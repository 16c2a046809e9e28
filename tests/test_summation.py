import math
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from kspecfun.summation import (
    CompensatedSum,
    dd_add,
    dd_div_d,
    dd_mul,
    dd_mul_d,
    two_prod,
    two_sum,
)

finite = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)
small = st.floats(min_value=-1e60, max_value=1e60, allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_two_sum_is_exact(a, b):
    s, e = two_sum(a, b)
    assert Fraction(a) + Fraction(b) == Fraction(s) + Fraction(e)


@given(small, small)
def test_two_prod_is_exact(a, b):
    # exactness holds away from under/overflow of the product's rounding error
    assume(a == 0.0 or 1e-140 < abs(a) < 1e140)
    assume(b == 0.0 or 1e-140 < abs(b) < 1e140)
    p, e = two_prod(a, b)
    assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


def test_dd_add_recovers_cancellation():
    x = (1.0, 1e-20)
    y = (-1.0, 0.0)
    s = dd_add(x, y)
    assert s[0] + s[1] == 1e-20


def test_dd_scalar_roundtrip():
    t = (1.0, 0.0)
    for d in (3.0, 7.0, 11.0, 1.5):
        t = dd_div_d(t, d)
    for d in (3.0, 7.0, 11.0, 1.5):
        t = dd_mul_d(t, d)
    assert abs((t[0] - 1.0) + t[1]) < 1e-30


@given(small, small, small, small)
def test_dd_mul_is_double_double_accurate(a, b, c, d):
    assume(all(x == 0.0 or 1e-40 < abs(x) < 1e40 for x in (a, b, c, d)))
    x = two_sum(a, b * 1e-17)
    y = two_sum(c, d * 1e-17)
    p = dd_mul(x, y)
    exact = (Fraction(x[0]) + Fraction(x[1])) * (Fraction(y[0]) + Fraction(y[1]))
    assert abs(Fraction(p[0]) + Fraction(p[1]) - exact) <= Fraction(2) ** -100 * abs(exact)


def test_dd_mul_of_doubles_is_two_prod():
    assert dd_mul((0.1, 0.0), (3.3, 0.0)) == two_prod(0.1, 3.3)


def test_compensated_sum_rescues_big_small():
    cs = CompensatedSum()
    for x in (1e16, 1.0, -1e16):
        cs.add(x)
    assert cs.value == 1.0


@given(st.lists(st.floats(min_value=-1e10, max_value=1e10,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_compensated_sum_tracks_fsum(xs):
    cs = CompensatedSum()
    for x in xs:
        cs.add(x)
    ref = math.fsum(xs)
    assert abs(cs.value - ref) <= 1e-12 * max(1.0, abs(ref))
