"""End-to-end acceptance suite.

Each test exercises one headline capability of the package at its stated
tolerance and wall-clock budget, and emits one summary line
(``C0x <label>: PASS``/``FAIL``) so a plain ``pytest -v -s`` run reads as
a checklist.  Everything is checked against independent closed forms:
deformed commutator targets, Landau level formulas, the two-frequency
oscillator, and the classical gauge-frequency values.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from ncqmlab.dynamics import dominant_frequency, minimal_coupling_trajectory
from ncqmlab.fock import (
    FockSpace,
    build_canonical_ops,
    dominant_clusters,
    kinetic_hamiltonian,
    poly_of_commuting,
    realize_rep,
    spectrum,
    suggested_scale,
)
from ncqmlab.params import NCParams, kappa
from ncqmlab.peierls import (
    adapted_space,
    landau_projectors,
    peierls_spectrum,
    projector_sinc,
    truncated_commutators,
)
from ncqmlab.polysymbol import PolySymbol, x1, x2
from ncqmlab.reps import (
    Branch,
    commutator_table,
    landau_gauge_rep,
    symmetric_gauge_rep,
    symmetric_vector_potential,
    target_table,
    vector_potential_rep,
)
from ncqmlab.star import (
    GaugePotential,
    bbar_of_B,
    lambda_bar,
    moyal_star,
    star_commutator,
    star_landau_spectrum,
    sw_constant_field,
    sw_first_order,
)
from ncqmlab.structures import jacobi_residual, symplectic_matrix_field
from oracles import (det, gauge_function, landau_momentum_gauge, realize,
                     symmetric_momentum_gauge, unitary_from_hermitian)


@contextmanager
def _criterion(cid: str, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"{cid} exceeded its {budget_seconds:g}s budget: {elapsed:.1f}s"
        )
    except BaseException:
        print(f"{cid} {label}: FAIL")
        raise
    print(f"{cid} {label}: PASS ({elapsed:.1f}s)")


def test_c01_algebra_tables():
    with _criterion("C01", "deformed algebra tables", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            theta = float(rng.uniform(-1.0, 1.0))
            B = float(rng.uniform(-1.0, 1.0))
            params = NCParams(theta=theta, B=B)
            if abs(kappa(params)) < 1e-6:
                continue
            target = target_table(params)

            rep = landau_gauge_rep(params)
            table = commutator_table(rep)
            assert np.max(np.abs(table - target)) <= 1e-12
            assert abs(det(rep) - kappa(params)) <= 1e-12

            # |theta * B| < 1 here, so kappa > 0 and both square-root
            # branches of the symmetric-gauge family exist
            for a in (0.5, 1.0, 2.0):
                for branch in (Branch.PLUS, Branch.MINUS):
                    rep = symmetric_gauge_rep(params, a=a, branch=branch)
                    table = commutator_table(rep)
                    assert np.max(np.abs(table - target)) <= 1e-12
                    assert abs(det(rep) - kappa(params)) <= 1e-12


def test_c02_landau_theta_independence():
    with _criterion("C02", "Landau spectrum theta-independence", 120.0):
        B = 1.0
        exact = B * (np.arange(3) + 0.5)
        adapted_means = {}
        ground_errors = {}
        for theta in (0.0, 0.3):
            params = NCParams(theta=theta, B=B)
            if theta == 0.0:
                rep = vector_potential_rep(
                    symmetric_vector_potential(B), params)
            else:
                rep = symmetric_gauge_rep(params)
            for n_max in (20, 30, 40):
                # degeneracy-adapted basis: clusters are the true levels
                space = FockSpace(n_max, scale=suggested_scale(rep))
                H = kinetic_hamiltonian(realize_rep(rep, space), params.m)
                clusters = dominant_clusters(spectrum(H, 3), 3)
                adapted_means[(theta, n_max)] = np.array(
                    [c.mean for c in clusters])

                # fixed unit-scale basis: resolution improves with n_max,
                # giving a clean convergence trend for the ground level
                space = FockSpace(n_max)
                H = kinetic_hamiltonian(realize_rep(rep, space), params.m)
                E0 = spectrum(H, 1).eigenvalues[0]
                ground_errors[(theta, n_max)] = abs(E0 - 0.5)

        for n_max in (20, 30, 40):
            gap = np.max(np.abs(adapted_means[(0.0, n_max)]
                                - adapted_means[(0.3, n_max)]))
            assert gap <= 1e-6
        for theta in (0.0, 0.3):
            np.testing.assert_allclose(adapted_means[(theta, 40)], exact,
                                       rtol=0, atol=1e-6)
            errs = [ground_errors[(theta, n)] for n in (20, 30, 40)]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] <= 1e-3


def test_c03_moyal_exactness():
    with _criterion("C03", "Moyal product exactness", 1.0):
        theta = 0.25
        comm = star_commutator(x1(), x2(), theta)
        assert (comm - PolySymbol.constant(2, 1j * theta)).is_zero

        rng = np.random.default_rng(103)

        def random_poly():
            terms = {}
            for _ in range(5):
                e1, e2 = (int(v) for v in rng.integers(0, 3, size=2))
                terms[(e1, e2)] = float(rng.integers(-3, 4))
            return PolySymbol(2, terms)

        for _ in range(50):
            f, g, h = random_poly(), random_poly(), random_poly()
            assoc = (moyal_star(moyal_star(f, g, theta), h, theta)
                     - moyal_star(f, moyal_star(g, h, theta), theta))
            assert assoc.is_zero
            conj = (moyal_star(f, g, theta).conj()
                    - moyal_star(g.conj(), f.conj(), theta))
            assert conj.is_zero


def test_c04_disentangling_chain():
    with _criterion("C04", "magnetic disentangling chain", 1.0):
        for B in np.linspace(-0.9, 2.0, 10):
            for theta in np.linspace(0.0, 0.5, 10):
                params = NCParams(theta=float(theta), B=0.0)
                eff = bbar_of_B(float(B), params)
                assert abs(eff.Lambda_bar * eff.Bbar - B) <= 1e-12

        # chain-selected effective field: spectrum collapses to |B|(n+1/2)
        for B, theta in ((3.0, 0.1), (1.0, 0.4), (-0.7, 0.3), (0.5, 0.0)):
            params = NCParams(theta=theta, B=0.0)
            eff = bbar_of_B(B, params)
            res = star_landau_spectrum(params, eff.Bbar, 3)
            np.testing.assert_allclose(
                res, abs(B) * (np.arange(3) + 0.5),
                rtol=0, atol=1e-12)

        # theta-independent effective field: Lambda_bar * Bbar (n + 1/2)
        for bbar, theta in ((1.0, 0.2), (2.0, 0.45), (0.5, 0.0)):
            params = NCParams(theta=theta, B=0.0)
            res = star_landau_spectrum(params, bbar, 3)
            omega = lambda_bar(bbar, 1.0, theta) * bbar
            np.testing.assert_allclose(
                res, omega * (np.arange(3) + 0.5),
                rtol=0, atol=1e-12)


def test_c05_seiberg_witten():
    with _criterion("C05", "Seiberg-Witten map", 5.0):
        rng = np.random.default_rng(105)
        base = [x1(), x2(), x1() * x2(), x1() ** 2, x2() ** 2]
        for theta in (0.1, 0.4):
            for _ in range(20):
                A = GaugePotential((
                    sum((float(c) * m for c, m in
                         zip(rng.integers(-3, 4, size=5), base)),
                        PolySymbol.zero(2)),
                    sum((float(c) * m for c, m in
                         zip(rng.integers(-3, 4, size=5), base)),
                        PolySymbol.zero(2)),
                ))
                lam = (float(rng.integers(-2, 3)) * x1() * x2()
                       + float(rng.integers(-2, 3)) * x2() ** 2)
                out = sw_first_order(A, lam, PolySymbol.zero(2), theta)
                for comp in out["residual"]:
                    assert comp.max_abs_coeff() <= 1e-12

        # constant-field map, all orders in theta
        curlyB = 0.5
        spectra = []
        for theta in (0.1, 0.25, 0.4):
            params = NCParams(theta=theta, B=0.0)
            eff, result = sw_constant_field(curlyB, params, 4)
            closed = curlyB / (1.0 - params.e * theta * curlyB)
            assert abs(eff.B_check - closed) <= 1e-12
            spectra.append(result)
        # the commutative Landau levels of the bare field, theta-free
        exact = abs(curlyB) * (np.arange(4) + 0.5)
        for eigenvalues in spectra:
            np.testing.assert_allclose(eigenvalues, exact,
                                       rtol=0, atol=1e-12)


def test_c06_classical_gauge_frequencies():
    with _criterion("C06", "classical gauge frequencies", 10.0):
        params = NCParams(theta=0.25, B=0.0)
        expected = {"symmetric": 2.25, "landau": 2.00}
        for gauge, omega in expected.items():
            traj = minimal_coupling_trajectory(
                params, gauge, 2.0, (1.0, 0.0, 0.0, 0.0), 30.0, 1e-3)
            fitted = dominant_frequency(traj)
            assert abs(fitted - omega) / omega <= 1e-3
            assert traj.omega == pytest.approx(omega, abs=1e-12)


def test_c07_jacobi_dichotomy():
    with _criterion("C07", "Jacobi identity dichotomy", 1.0):
        theta = 0.3
        B_field = 1.0 + 2.0 * x1(2)
        standard = symplectic_matrix_field(theta, B_field, "standard")
        exotic = symplectic_matrix_field(theta, B_field, "exotic")
        rng = np.random.default_rng(107)
        for point in rng.uniform(-1.0, 1.0, size=(10, 4)):
            res = jacobi_residual(standard, point)
            assert res[1, 2, 3] == pytest.approx(-0.6, abs=1e-10)
            assert np.max(np.abs(jacobi_residual(exotic, point))) <= 1e-10


def test_c08_truncated_commutators():
    with _criterion("C08", "truncated commutator laws", 120.0):
        params = NCParams(theta=0.0, B=1.0)
        space = adapted_space(params, 30)
        ps = landau_projectors(params, space, 2)
        canon = build_canonical_ops(space)
        X = (canon.X1, canon.X2)
        P = (canon.P1, canon.P2)
        for N in (0, 1, 2):
            report = truncated_commutators(ps, N, X, P, params)
            fitted = report["coefficient_X1X2"]
            assert abs(fitted - (-(N + 1))) <= 0.05 * (N + 1)
            cross = 1.0 - 0.5 * (N + 1)
            assert report["coefficient_X1P1"] == pytest.approx(
                cross, abs=0.05)
            assert report["coefficient_X2P2"] == pytest.approx(
                cross, abs=0.05)
            if N > 0:
                assert report["coefficient_X1P1_lower"] == pytest.approx(
                    1.0, abs=0.05)

        H = kinetic_hamiltonian(ps.ops, params.m)
        for n in range(3):
            Psinc = projector_sinc(H, n, ps.level_energies[n])
            diff = Psinc.matrix - ps.projectors[n].matrix
            W = ps.interior_columns(n)
            assert np.max(np.abs(diff @ W)) <= 1e-8


def test_c09_peierls_strong_field():
    with _criterion("C09", "Peierls strong-field approximation", 180.0):
        lam = 0.1
        V = x1() ** 2 + x2() ** 2
        relative = []
        for B in (10.0, 50.0, 250.0):
            params = NCParams(theta=0.0, B=B)
            res = peierls_spectrum(V, lam, params, 3)
            dev = res.deviations()[0]
            relative.append(abs(dev) / res.epsilon_n[0])
            # exact two-frequency oscillator oracle for the lowest branch
            Omega = np.sqrt(B * B / 4.0 + 2.0 * lam)
            lowest_branch = Omega + np.arange(3) * (Omega - B / 2.0)
            assert np.max(np.abs(res.full_E_n - lowest_branch)) <= 1e-9
        assert relative[0] > relative[1] > relative[2]


def test_c10_representation_independence():
    with _criterion("C10", "representation independence", 180.0):
        theta = 0.4
        params = NCParams(theta=theta, B=0.0)
        n_max = 40

        def oscillator(ops):
            return (0.5 * (ops.P1 @ ops.P1 + ops.P2 @ ops.P2)
                    + 0.5 * (ops.X1 @ ops.X1 + ops.X2 @ ops.X2))

        reps = {
            "symmetric_a1": symmetric_gauge_rep(params, a=1.0,
                                                branch=Branch.PLUS),
            "symmetric_a13": symmetric_gauge_rep(params, a=1.3,
                                                 branch=Branch.PLUS),
            "momentum_symmetric": symmetric_momentum_gauge(theta),
            "momentum_landau": landau_momentum_gauge(theta),
        }
        means = {}
        realizations = {}
        for name, rep in reps.items():
            space = FockSpace(n_max, scale=suggested_scale(rep))
            ops = realize(rep, space)
            H = oscillator(ops)
            means[name] = spectrum(H, 5).eigenvalues
            realizations[name] = (space, ops, H)

        # closed form: decoupled pair of shifted-frequency oscillators
        omega_t = np.sqrt(1.0 + theta * theta / 4.0)
        ladder = sorted(
            (n1 + 0.5) * (omega_t + theta / 2.0)
            + (n2 + 0.5) * (omega_t - theta / 2.0)
            for n1 in range(4) for n2 in range(4))
        exact = np.array(ladder[:5])
        names = list(reps)
        for i, a in enumerate(names):
            np.testing.assert_allclose(means[a], exact, rtol=0, atol=1e-6)
            for b in names[i + 1:]:
                assert np.max(np.abs(means[a] - means[b])) <= 1e-6

        # explicit unitary connecting the two momentum-gauge realizations
        space, ops_S, H_S = realizations["momentum_symmetric"]
        _, ops_L, H_L = realizations["momentum_landau"]
        alpha = gauge_function(symmetric_momentum_gauge(theta),
                               landau_momentum_gauge(theta))
        canon = build_canonical_ops(space)
        G = poly_of_commuting(alpha, canon.P1, canon.P2)
        U = unitary_from_hermitian(-1.0 * G)
        assert np.max(np.abs(U @ U.conj().T - np.eye(space.dim))) <= 1e-12

        # the gauge shift in closed form: X_L - X_S = -d(alpha)/dp
        for j, (XL, XS) in enumerate(((ops_L.X1, ops_S.X1),
                                      (ops_L.X2, ops_S.X2))):
            shift = poly_of_commuting(alpha.diff(j), canon.P1, canon.P2)
            assert np.max(np.abs((XL - XS).matrix + shift.matrix)) <= 1e-12

        # conjugation maps one Hamiltonian onto the other on the
        # well-converged lowest eigenvectors, from a dense LAPACK solve
        # independent of block_eigh; (U H_S U^dag - H_L) psi is formed as
        # matrix-vector products
        _, vecs = scipy.linalg.eigh(H_L.matrix, subset_by_index=[0, 4])
        residual = U @ (H_S.stored @ (U.conj().T @ vecs)) - H_L.stored @ vecs
        for i in range(5):
            assert np.linalg.norm(residual[:, i]) <= 1e-8
