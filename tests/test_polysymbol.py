"""Exact sparse-polynomial arithmetic underlying every symbolic check,
and the bulk evaluation of compiled tables against its former form."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncqmlab.errors import ArityMismatch
from ncqmlab.polysymbol import (_BLOCK, MonomialTable, PolySymbol, p1, p2,
                                x1, x2)

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
    assert lhs.allclose(rhs, tol=1e-9 * (1 + f.max_abs_coeff())
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
    assert (f * g).conj().allclose(f.conj() * g.conj(), tol=1e-9 * (
        1 + f.max_abs_coeff()) * (1 + g.max_abs_coeff()))


@given(poly2())
@settings(max_examples=50, deadline=None)
def test_mixed_partials_commute(f):
    assert f.diff(0).diff(1).allclose(f.diff(1).diff(0))


# --- bulk evaluation: bitwise the former broadcast-and-reduce form -------

def reduce_oracle(table: MonomialTable, points) -> np.ndarray:
    """The former bulk evaluation: every (point, monomial, variable) power
    from one broadcast array power, multiplied out along the variables,
    over the same blocks of _BLOCK points."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 2 and len(points) > _BLOCK:
        return np.concatenate([reduce_oracle(table, points[i:i + _BLOCK])
                               for i in range(0, len(points), _BLOCK)])
    monomials = np.multiply.reduce(points[..., None, :] ** table.exponents,
                                   axis=-1)
    return monomials @ table.coeffs.T


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes and equal bytes: -0.0 is not 0.0, and a NaN is only
    equal to the same NaN."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
        assert_bitwise_equal(table(points), reduce_oracle(table, points))
        assert_bitwise_equal(table(points[0]), reduce_oracle(table, points[0]))
        rows = data.draw(st.slices(len(table.coeffs)))
        assert_bitwise_equal(table[rows](points),
                             reduce_oracle(table[rows], points))

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.data())
    def test_points_holding_inf_and_nan(self, table, data):
        points = draw_points(data, table, coordinate)
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bitwise_equal(table(points), reduce_oracle(table, points))
            assert_bitwise_equal(table(points[-1]),
                                 reduce_oracle(table, points[-1]))

    @settings(max_examples=10, deadline=None)
    @given(tables(), st.integers(_BLOCK + 1, 3 * _BLOCK),
           st.integers(0, 2 ** 32 - 1))
    def test_more_points_than_a_block(self, table, n, seed):
        arity = table.exponents.shape[1]
        points = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, arity))
        assert_bitwise_equal(table(points), reduce_oracle(table, points))

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
                got = table(points)
                assert np.isfinite(got).all()
                assert_bitwise_equal(got, reduce_oracle(table, points))
                assert_bitwise_equal(table(points[0]),
                                     reduce_oracle(table, points[0]))

    def test_lone_exponent_keeps_the_array_power(self):
        # x1 and x2 are each raised to one power only, never to 0; numpy's
        # power loop would square a lone exponent 2 as x * x, which is not
        # bitwise its array power on every build
        x = np.random.default_rng(1).uniform(-3.0, 3.0, 4096)
        monomial = x1() ** 2 * x2() ** 3
        table = MonomialTable([monomial, -0.5 * monomial])
        points = np.stack([x, x[::-1]], axis=1)
        assert_bitwise_equal(table(points), reduce_oracle(table, points))
