"""Parameter record and Poisson-structure layer: kappa, bracket tables,
and the Jacobi dichotomy for position-dependent fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncqmlab.errors import SingularStructure
from ncqmlab.params import NCParams, is_singular, kappa
from ncqmlab.polysymbol import PolySymbol, p1, p2, x1, x2
from ncqmlab.structures import (
    PoissonStructure,
    StructureKind,
    canonical_omega,
    jacobi_residual,
    symplectic_matrix,
    symplectic_matrix_field,
)
from oracles import poisson_bracket

finite = st.floats(-5, 5, allow_nan=False)


def test_kappa_closed_form():
    assert kappa(NCParams(theta=0.3, B=2.0)) == pytest.approx(0.4)
    assert kappa(NCParams(theta=0.0, B=5.0)) == pytest.approx(1.0)
    # kappa is a statement about the bare algebra: the charge does not
    # enter (it only rescales dynamical quantities such as omega_B)
    assert kappa(NCParams(theta=0.3, B=2.0, e=2.0)) \
        == pytest.approx(1 - 0.3 * 2.0)


def test_singularity_detection():
    assert is_singular(NCParams(theta=0.5, B=2.0))
    assert not is_singular(NCParams(theta=0.5, B=1.9))


def test_standard_structure_matrix():
    s = symplectic_matrix(NCParams(theta=0.3, B=2.0), "standard")
    M = s.matrix_at((0, 0, 0, 0))
    expected = np.array([
        [0.0, 0.3, 1.0, 0.0],
        [-0.3, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 2.0],
        [0.0, -1.0, -2.0, 0.0],
    ])
    np.testing.assert_allclose(M, expected, atol=1e-15)
    # functional determinant of the bracket matrix is kappa^2
    assert np.linalg.det(M) == pytest.approx(0.4 ** 2, rel=1e-12)


def test_exotic_structure_is_standard_over_kappa():
    # the exotic structure exists at every nonzero kappa, however small:
    # 1 - theta B rounds to 1.1e-16 and to -2.2e-16 at the last two points
    origin = (0, 0, 0, 0)
    for theta, B, want in [(0.3, 2.0, 0.4),
                           (0.3, 3.333333333333333, 1.1e-16),
                           (0.1, 10.000000000000002, -2.2e-16)]:
        params = NCParams(theta=theta, B=B)
        k = kappa(params)
        assert k == pytest.approx(want, rel=0.01)
        std = symplectic_matrix(params, "standard").matrix_at(origin)
        exo = symplectic_matrix(params, StructureKind.EXOTIC).matrix_at(origin)
        np.testing.assert_allclose(exo, std / k, rtol=1e-14, atol=0.0)


def test_exotic_rejects_singular_kappa():
    with pytest.raises(SingularStructure):
        symplectic_matrix(NCParams(theta=0.5, B=2.0), "exotic")


def test_canonical_brackets_from_poisson_bracket():
    s = symplectic_matrix(NCParams(theta=0.3, B=2.0), "standard")
    assert poisson_bracket(p1(), p2(), s).eval((0, 0, 0, 0)) \
        == pytest.approx(2.0)
    assert poisson_bracket(x1(2).embed(4, (0, 1)),
                           x2(2).embed(4, (0, 1)), s) \
        .eval((0, 0, 0, 0)) == pytest.approx(0.3)
    # {x_i, p_j} = delta_ij regardless of theta, B
    assert poisson_bracket(x1(2).embed(4, (0, 1)), p1(), s) \
        .eval((1, 2, 3, 4)) == pytest.approx(1.0)
    assert poisson_bracket(x1(2).embed(4, (0, 1)), p2(), s).is_zero


def test_poisson_bracket_antisymmetry_and_leibniz():
    s = symplectic_matrix(NCParams(theta=0.2, B=1.3), "standard")
    f = x1(2).embed(4, (0, 1)) * p2() + p1() ** 2
    g = x2(2).embed(4, (0, 1)) ** 2 - p1() * p2()
    h = p1() + x1(2).embed(4, (0, 1))
    assert poisson_bracket(f, g, s).allclose(-poisson_bracket(g, f, s))
    lhs = poisson_bracket(f, g * h, s)
    rhs = poisson_bracket(f, g, s) * h + g * poisson_bracket(f, h, s)
    assert lhs.allclose(rhs, tol=1e-10)


def test_jacobi_zero_for_constant_structures():
    for kind in ("standard", "exotic"):
        s = symplectic_matrix(NCParams(theta=0.3, B=2.0), kind)
        res = jacobi_residual(s, (0.7, -0.2, 1.1, 0.4))
        assert np.max(np.abs(res)) < 1e-14


def test_jacobi_dichotomy_position_dependent_field():
    """Standard brackets break Jacobi for B(x); exotic brackets repair it."""
    theta = 0.3
    B_field = 1.0 + 2.0 * x1(2)
    std = symplectic_matrix_field(theta, B_field, "standard")
    exo = symplectic_matrix_field(theta, B_field, "exotic")
    rng = np.random.default_rng(11)
    for point in rng.uniform(-1, 1, size=(10, 4)):
        res = jacobi_residual(std, point)
        # the violation sits in J^{x2 p1 p2} = -theta dB/dx1 = -0.6
        assert res[1, 2, 3] == pytest.approx(-0.6, abs=1e-10)
        assert np.max(np.abs(jacobi_residual(exo, point))) < 1e-10


def jacobi_loop(s: PoissonStructure, point) -> np.ndarray:
    """The Jacobi tensor summed term by term: the oracle of the
    contraction in jacobi_residual."""
    den = complex(s.denominator.eval(point))
    dden = [complex(s.denominator.diff(l).eval(point)) for l in range(4)]
    E = np.array([[complex(s.entries[i][j].eval(point)) for j in range(4)]
                  for i in range(4)])
    dE = np.array([[[complex(s.entries[i][j].diff(l).eval(point))
                     for j in range(4)] for i in range(4)]
                   for l in range(4)])
    omega = E / den
    domega = np.array([dE[l] / den - E * dden[l] / den**2
                       for l in range(4)])
    out = np.zeros((4, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                total = 0.0 + 0.0j
                for l in range(4):
                    total += (omega[i, l] * domega[l, j, k]
                              + omega[j, l] * domega[l, k, i]
                              + omega[k, l] * domega[l, i, j])
                out[i, j, k] = total
    return out.real


unit = st.floats(-1, 1, allow_nan=False)


@given(theta=unit, coeffs=st.lists(unit, min_size=6, max_size=6),
       point=st.lists(unit, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_jacobi_contraction_matches_loop(theta, coeffs, point):
    """Random quadratic B(x) on both structures, at a random point."""
    X1, X2 = x1(2), x2(2)
    monomials = (1.0, X1, X2, X1 * X1, X1 * X2, X2 * X2)
    B_field = sum((c * m for c, m in zip(coeffs, monomials)),
                  PolySymbol.zero(2))
    B_here = B_field.eval(point[:2]).real
    for kind in ("standard", "exotic"):
        if kind == "exotic" and abs(1.0 - theta * B_here) < 1e-3:
            continue
        s = symplectic_matrix_field(theta, B_field, kind)
        got, want = jacobi_residual(s, point), jacobi_loop(s, point)
        tol = 1e-14 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= tol


def jacobi_per_call_diff(s: PoissonStructure, point) -> np.ndarray:
    """jacobi_residual as it was before the structure kept its
    derivatives: every derivative symbol made again at each point.  The
    oracle of the kept derivatives, which must give the same bits."""
    point = tuple(float(v) for v in point)
    den = complex(s.denominator.eval(point))
    if den == 0:
        raise SingularStructure(f"structure singular at point {point}")
    dden = [complex(s.denominator.diff(l).eval(point)) for l in range(4)]
    E = np.zeros((4, 4), dtype=complex)
    dE = np.zeros((4, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            E[i, j] = s.entries[i][j].eval(point)
            for l in range(4):
                dE[l, i, j] = s.entries[i][j].diff(l).eval(point)
    omega = E / den
    domega = np.array(
        [dE[l] / den - E * dden[l] / den**2 for l in range(4)])
    T = np.einsum("il,ljk->ijk", omega, domega)
    return (T + T.transpose(2, 0, 1) + T.transpose(1, 2, 0)).real


@given(theta=unit, coeffs=st.lists(unit, min_size=6, max_size=6),
       points=st.lists(st.lists(unit, min_size=4, max_size=4), min_size=1,
                       max_size=4))
@settings(max_examples=100, deadline=None)
def test_kept_derivatives_give_the_per_call_bits(theta, coeffs, points):
    X1, X2 = x1(2), x2(2)
    monomials = (1.0, X1, X2, X1 * X1, X1 * X2, X2 * X2)
    B_field = sum((c * m for c, m in zip(coeffs, monomials)),
                  PolySymbol.zero(2))
    for kind in ("standard", "exotic"):
        try:
            s = symplectic_matrix_field(theta, B_field, kind)
        except SingularStructure:
            continue
        for point in points:
            try:
                want = jacobi_per_call_diff(s, point)
            except SingularStructure:
                with pytest.raises(SingularStructure):
                    jacobi_residual(s, point)
            else:
                assert jacobi_residual(s, point).tobytes() == want.tobytes()


def test_derivatives_are_made_once_per_structure(monkeypatch):
    # one point or ten, each structure differentiates its 16 entries and
    # its denominator in 4 variables once: 68 diff calls
    calls = []
    diff = PolySymbol.diff

    def counting_diff(self, index):
        calls.append(1)
        return diff(self, index)

    monkeypatch.setattr(PolySymbol, "diff", counting_diff)
    points = np.random.default_rng(3).uniform(-0.5, 0.5, (10, 4))
    counts = []
    for n_points in (1, 10):
        s = symplectic_matrix_field(0.3, 1.0 + 0.5 * x1(2) - x2(2) ** 2,
                                    "exotic")
        calls.clear()
        for point in points[:n_points]:
            jacobi_residual(s, point)
        counts.append(len(calls))
    assert counts == [68, 68]


def test_structure_entries_must_be_antisymmetric():
    one = PolySymbol.constant(4, 1.0)
    zero = PolySymbol.zero(4)
    bad = ((zero, one, zero, zero),) + ((zero,) * 4,) * 3
    with pytest.raises(ValueError):
        PoissonStructure(bad)


def test_canonical_omega_block():
    M = canonical_omega()
    assert M[0, 2] == 1.0 and M[3, 1] == -1.0
    np.testing.assert_allclose(M, -M.T)


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_kappa_determinant_identity(theta, B):
    params = NCParams(theta=theta, B=B)
    M = symplectic_matrix(params, "standard").matrix_at((0, 0, 0, 0))
    assert np.linalg.det(M) == pytest.approx(kappa(params) ** 2,
                                             rel=1e-9, abs=1e-9)
