"""Exact sparse-polynomial arithmetic underlying every symbolic check,
and the bulk evaluation of compiled tables: bit for bit the straight-line
``scalar()`` function at each point, and within rounding of the former
per-variable power evaluation.  Each table shape is compiled once, and
each table evaluates with its own coefficients."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncqmlab import polysymbol
from ncqmlab.errors import ArityMismatch
from ncqmlab.polysymbol import (_BLOCK, MonomialTable, PolySymbol, p1, p2,
                                x1, x2)
from oracles import allclose

coeffs = st.complex_numbers(min_magnitude=0.0, max_magnitude=1e3,
                            allow_nan=False, allow_infinity=False)


def poly2(max_degree=4):
    exponents = st.tuples(st.integers(0, max_degree),
                          st.integers(0, max_degree))
    return st.dictionaries(exponents, coeffs, max_size=8).map(
        lambda terms: PolySymbol(2, terms))


# --- direct oracles -----------------------------------------------------

def test_monomial_evaluation():
    f = 3.0 * x1() ** 2 * x2() - 2.0 * x2() + 1.0
    assert f.eval((2.0, 5.0)) == pytest.approx(3 * 4 * 5 - 10 + 1)


def test_derivative_drops_degree_and_multiplies():
    f = x1() ** 3 * x2() ** 2
    df = f.diff(0)
    assert df.terms == {(2, 2): 3.0}
    assert f.diff(1).terms == {(3, 1): 2.0}
    assert PolySymbol.constant(2, 7.0).diff(0).is_zero


def test_pow_matches_repeated_product():
    f = x1() + 2.0 * x2()
    assert (f ** 3).allclose(f * f * f)


def test_conjugation_is_coefficientwise():
    f = (1 + 2j) * x1() + 3j * x2() ** 2
    assert f.conj().terms == {(1, 0): 1 - 2j, (0, 2): -3j}


def test_embed_into_phase_space():
    f = x1() * x2()
    g = f.embed(4, (0, 1))
    assert g.arity == 4
    assert g.eval((2.0, 3.0, 9.0, 9.0)) == pytest.approx(6.0)
    assert p1().arity == 4 and p1().eval((0, 0, 5.0, 0)) == pytest.approx(5.0)
    assert p2().eval((0, 0, 0, 7.0)) == pytest.approx(7.0)


def test_arity_mismatch_rejected():
    with pytest.raises(ArityMismatch):
        x1() + p1()


def test_zero_and_degree():
    assert PolySymbol.zero(2).is_zero
    assert PolySymbol.zero(2).degree == -1  # sentinel for the zero polynomial
    assert (x1() ** 2 * x2()).degree == 3


# --- algebraic invariants ----------------------------------------------

@given(poly2(), poly2())
@settings(max_examples=50, deadline=None)
def test_product_rule(f, g):
    lhs = (f * g).diff(0)
    rhs = f.diff(0) * g + f * g.diff(0)
    assert allclose(lhs, rhs, 1e-9 * (1 + f.max_abs_coeff())
                    * (1 + g.max_abs_coeff()))


@given(poly2(), poly2(), st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
@settings(max_examples=50, deadline=None)
def test_eval_is_ring_homomorphism(f, g, point):
    fg = (f * g).eval(point)
    assert fg == pytest.approx(f.eval(point) * g.eval(point),
                               rel=1e-9, abs=1e-6 * (1 + abs(fg)))


@given(poly2(), poly2())
@settings(max_examples=50, deadline=None)
def test_conjugation_antihomomorphism(f, g):
    assert allclose((f * g).conj(), f.conj() * g.conj(), 1e-9 * (
        1 + f.max_abs_coeff()) * (1 + g.max_abs_coeff()))


@given(poly2())
@settings(max_examples=50, deadline=None)
def test_mixed_partials_commute(f):
    assert f.diff(0).diff(1).allclose(f.diff(1).diff(0))


# --- bulk evaluation: scalar() at every point, near the power plan ------

def power_plan_oracle(table: MonomialTable, points) -> tuple:
    """The former bulk evaluation, and the size its rounding is relative
    to: each variable that some monomial raises is raised to its distinct
    exponents with numpy's array power, the powers are gathered to the
    monomials and multiplied in variable order.  Returns the rows and
    sum_m |coeffs[r, m]| |monomial_m| at each point."""
    points = np.asarray(points, dtype=float)
    monomials = np.ones(points.shape[:-1] + table.exponents.shape[:1])
    for v, column in enumerate(table.exponents.T.tolist()):
        if any(column):
            powers = sorted({0, *column})
            index = [powers.index(e) for e in column]
            monomials *= (points[..., v, None] ** np.array(powers))[..., index]
    return (monomials @ table.coeffs.T,
            np.abs(monomials) @ np.abs(table.coeffs).T)


def assert_rows_are_scalar(table: MonomialTable, points: np.ndarray) -> None:
    """table(points) holds, at every point, the bits scalar() returns for
    that point's coordinates as floats; where scalar() returns NaN it holds
    NaN, whose sign bit numpy and the interpreter may set differently."""
    got = table(points)
    arity = table.exponents.shape[1]
    want = np.array([table.scalar()(*pt)
                     for pt in points.reshape(-1, arity).tolist()])
    want = want.reshape(got.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_near_power_plan(table: MonomialTable, points: np.ndarray) -> None:
    """Within 1e-14 of the size of the terms: at most 8 terms of degree at
    most 4, each product and sum rounding once in either evaluation."""
    want, size = power_plan_oracle(table, points)
    assert np.all(np.abs(table(points) - want) <= 1e-14 * size + 1e-300)


# every exponent tuple of total degree <= 4
TABLE_EXPONENTS = {arity: [e for e in itertools.product(range(5), repeat=arity)
                           if sum(e) <= 4] for arity in (2, 4)}
NON_FINITE = [math.inf, -math.inf, math.nan]
finite = st.floats(-1e3, 1e3)
coordinate = st.one_of(finite, st.sampled_from(NON_FINITE + [0.0, -0.0]))


@st.composite
def tables(draw):
    """A real table of arity 2 or 4 and degree <= 4; the variables in
    ``absent`` appear in no monomial at all."""
    arity = draw(st.sampled_from([2, 4]))
    absent = draw(st.sets(st.integers(0, arity - 1)))
    rows = draw(st.lists(st.dictionaries(
        st.sampled_from(TABLE_EXPONENTS[arity]), finite, max_size=8),
        min_size=1, max_size=5))
    return MonomialTable([
        PolySymbol(arity, {tuple(0 if v in absent else e
                                 for v, e in enumerate(expo)): c
                           for expo, c in row.items()})
        for row in rows])


def draw_points(data, table: MonomialTable, values) -> np.ndarray:
    arity = table.exponents.shape[1]
    return np.array(data.draw(st.lists(st.tuples(*[values] * arity),
                                       min_size=1, max_size=8)),
                    dtype=float).reshape(-1, arity)


class TestBulkEvaluationIsBitwise:
    @settings(max_examples=150, deadline=None)
    @given(tables(), st.data())
    def test_points_single_point_and_row_slices(self, table, data):
        points = draw_points(data, table, finite)
        assert_rows_are_scalar(table, points)
        assert_rows_are_scalar(table, points[0])
        assert_near_power_plan(table, points)
        rows = data.draw(st.slices(len(table.coeffs)))
        assert table[rows](points).tobytes() == \
            table(points)[:, rows].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.data())
    def test_points_holding_inf_and_nan(self, table, data):
        points = draw_points(data, table, coordinate)
        with np.errstate(invalid="ignore", over="ignore"):
            assert_rows_are_scalar(table, points)
            assert_rows_are_scalar(table, points[-1])

    @settings(max_examples=10, deadline=None)
    @given(tables(), st.integers(_BLOCK + 1, 3 * _BLOCK),
           st.integers(0, 2 ** 32 - 1))
    def test_more_points_than_a_block(self, table, n, seed):
        arity = table.exponents.shape[1]
        points = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, arity))
        assert_rows_are_scalar(table, points)
        assert_near_power_plan(table, points)

    def test_variables_in_no_monomial(self):
        # x1 and p2 appear nowhere: whatever they hold, the rows see x1**0
        # = p2**0 = 1, and the constant and empty tables see no variable
        cases = (
            MonomialTable([2.0 * p1() ** 2 - x2(4),
                           PolySymbol.constant(4, 0.5)]),
            MonomialTable([PolySymbol.constant(4, 3.0)]),
            MonomialTable([PolySymbol.zero(2)]),
        )
        for table in cases:
            arity = table.exponents.shape[1]
            for fill in (*NON_FINITE, -0.0, 1.7):
                points = np.full((3, arity), fill)
                points[:, 1] = (0.5, -2.0, 3.0)
                if arity == 4:
                    points[:, 2] = (1.5, -0.25, 0.0)
                assert np.isfinite(table(points)).all()
                assert_rows_are_scalar(table, points)
                assert_rows_are_scalar(table, points[0])


# --- one compile per shape ------------------------------------------------

class TestOneCompilePerShape:
    def test_tables_differing_in_coefficients_compile_once(self,
                                                           monkeypatch):
        monkeypatch.setattr(polysymbol, "_SHAPES", {})
        # dyadic values: every sum and product here is exact
        point = (0.5, -1.5, 2.0, 0.25)
        for scale in (0.75, 3.0, -7.25):
            row = scale * x1(4) ** 2 * p2() - 2.0 * scale * x2(4) + scale
            values = MonomialTable([row, PolySymbol.constant(4, 1.0)]
                                   ).scalar()(*point)
            assert values == (row.eval(point).real, 1.0)
        assert len(polysymbol._SHAPES) == 1

    @pytest.mark.parametrize("c", [1.0, -1.0, math.nextafter(1.0, 2.0),
                                   math.nextafter(-1.0, -2.0)])
    def test_unit_coefficients_keep_their_own_values(self, c, monkeypatch):
        # exactly +-1.0 is written as the bare monomial, its neighbours as
        # a parameter: either way each table computes its own c * x, and
        # neither table's defaults reach the other's
        monkeypatch.setattr(polysymbol, "_SHAPES", {})
        xs = [0.3, -1.7, 1e300, -0.0, math.nextafter(2.0, 3.0)]
        for coeff in (c, 2.0):
            table = MonomialTable([coeff * x1(2) + coeff * x2(2) ** 2,
                                   PolySymbol.constant(2, coeff)])
            for x in xs:
                assert table.scalar()(x, 0.5) == (coeff * x + coeff * 0.25,
                                                  coeff)
        assert len(polysymbol._SHAPES) == (2 if abs(c) == 1.0 else 1)
