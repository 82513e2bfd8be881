#!/usr/bin/env python3
"""Strong-field study: accuracy of the Peierls substitution versus B.

The lowest-Landau-level effective spectrum epsilon_n of a trapping
potential is compared against the exact spectrum of the full magnetic
Hamiltonian as the field grows.  For a quadratic trap the exact levels
are available in closed form, so the table shows three things at once:
the effective eigenvalues, the deviation (E_n - omega_B/2)
- epsilon_n, and its relative size, which shrinks as 1/B^2 and makes
the strong-field validity of the substitution quantitative.

Usage: python3 scripts/peierls_strong_field.py --out results/
"""

import argparse
import os
import sys

from ncqmlab.cli import emit_table
from ncqmlab.params import NCParams
from ncqmlab.peierls import peierls_spectrum, radial_potential


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fields", type=str, default="10,25,50,100,250",
                        help="comma-separated field strengths")
    parser.add_argument("--lam", type=float, default=0.1)
    parser.add_argument("--potential", type=str, default="1",
                        help="radial coefficients c1,c2,... for "
                             "V = sum c_k r^(2k)")
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=24)
    parser.add_argument("--out", type=str, default=".")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    V = radial_potential([float(v) for v in args.potential.split(",")])
    rows = {key: [] for key in (
        "B", "n", "epsilon_n", "full_E_n", "deviation", "relative")}
    for B in (float(v) for v in args.fields.split(",")):
        params = NCParams(theta=0.0, B=B)
        res = peierls_spectrum(V, args.lam, params, args.k,
                               n_max=args.n_max)
        deviations = res.deviations()
        for n in range(args.k):
            rows["B"].append(B)
            rows["n"].append(n)
            rows["epsilon_n"].append(res.epsilon_n[n])
            rows["full_E_n"].append(res.full_E_n[n])
            rows["deviation"].append(deviations[n])
            rows["relative"].append(abs(deviations[n]) / res.epsilon_n[n]
                                    if res.epsilon_n[n] != 0.0 else 0.0)
        print(f"B={B:g}: relative ground-level deviation "
              f"{abs(deviations[0]) / res.epsilon_n[0]:.3e}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"peierls_strong_field.{args.format}")
    emit_table(rows, args.format, path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
