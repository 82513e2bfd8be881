#!/usr/bin/env python3
"""Convergence study: truncated Landau spectra versus basis size.

For each noncommutativity value the magnetic spectrum is diagonalized on
truncated number bases of increasing size, twice: once on the fixed
unit-scale basis (where the truncation error decays smoothly with n_max)
and once on the degeneracy-adapted basis (where level multiplets are
exact at every truncation).  The output table records, per
(theta, n_max), the three lowest cluster means in the adapted basis and
the ground-level error in both bases, making the theta-independence of
the spectrum and the basis-resolution trend visible side by side.

Usage: python3 scripts/spectrum_convergence.py --out results/
"""

import argparse
import os
import sys

import numpy as np

from ncqmlab.cli import emit_table
from ncqmlab.fock import (
    FockSpace,
    dominant_clusters,
    kinetic_hamiltonian,
    realize_rep,
    spectrum,
    suggested_scale,
)
from ncqmlab.params import NCParams
from ncqmlab.peierls import magnetic_rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--B", type=float, default=1.0)
    parser.add_argument("--thetas", type=str, default="0,0.3",
                        help="comma-separated noncommutativity values")
    parser.add_argument("--n-max-list", type=str, default="12,16,20,24,28",
                        help="comma-separated truncation sizes")
    parser.add_argument("--out", type=str, default=".")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    thetas = [float(v) for v in args.thetas.split(",")]
    sizes = [int(v) for v in args.n_max_list.split(",")]
    exact0 = abs(args.B) * 0.5

    rows = {key: [] for key in (
        "theta", "n_max", "E0_adapted", "E1_adapted", "E2_adapted",
        "E0_error_adapted", "E0_error_unit")}
    for theta in thetas:
        params = NCParams(theta=theta, B=args.B)
        rep = magnetic_rep(params)
        for n_max in sizes:
            adapted = FockSpace(n_max, scale=suggested_scale(rep))
            H = kinetic_hamiltonian(realize_rep(rep, adapted), params.m)
            clusters = dominant_clusters(spectrum(H, 3), 3)
            means = [c.mean for c in clusters]

            unit = FockSpace(n_max)
            H = kinetic_hamiltonian(realize_rep(rep, unit), params.m)
            E0_unit = spectrum(H, 1).eigenvalues[0]

            rows["theta"].append(theta)
            rows["n_max"].append(n_max)
            rows["E0_adapted"].append(means[0])
            rows["E1_adapted"].append(means[1])
            rows["E2_adapted"].append(means[2])
            rows["E0_error_adapted"].append(abs(means[0] - exact0))
            rows["E0_error_unit"].append(abs(E0_unit - exact0))
            print(f"theta={theta:g} n_max={n_max}: "
                  f"E0_adapted={means[0]:.12f} "
                  f"unit error={abs(E0_unit - exact0):.3e}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"spectrum_convergence.{args.format}")
    emit_table(rows, args.format, path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
