import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kspecfun.summation import (
    CompensatedSum,
    accumulate,
    dd_add,
    dd_div_d,
    dd_mul,
    dd_mul_d,
)

small = st.floats(min_value=-1e60, max_value=1e60, allow_nan=False, allow_infinity=False)


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


# 0.0, -0.0, or a magnitude in (1e-40, 1e40)
magnitude = st.floats(min_value=1e-40, max_value=1e40, exclude_min=True, exclude_max=True)
mid = st.sampled_from((0.0, -0.0)) | magnitude | magnitude.map(lambda x: -x)


@settings(deadline=None)
@given(mid, mid, mid, mid)
def test_dd_mul_is_double_double_accurate(a, b, c, d):
    x = dd_add((a, 0.0), (b * 1e-17, 0.0))
    y = dd_add((c, 0.0), (d * 1e-17, 0.0))
    p = dd_mul(x, y)
    exact = (Fraction(x[0]) + Fraction(x[1])) * (Fraction(y[0]) + Fraction(y[1]))
    assert abs(Fraction(p[0]) + Fraction(p[1]) - exact) <= Fraction(2) ** -100 * abs(exact)


@given(small, small)
@example(0.1, 3.3)
def test_dd_mul_of_doubles_is_exact(a, b):
    # exactness holds away from under/overflow of the product's rounding error
    assume(a == 0.0 or 1e-140 < abs(a) < 1e140)
    assume(b == 0.0 or 1e-140 < abs(b) < 1e140)
    p = dd_mul((a, 0.0), (b, 0.0))
    assert Fraction(p[0]) + Fraction(p[1]) == Fraction(a) * Fraction(b)


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


_STREAMS = {
    "empty": [],
    "zero_ratio": [(1.0, 0.5), (0.5, 0.0), (7.0, 0.5)],
    "nan_ratio": [(1.0, math.nan), (0.5, 0.1), (0.05, 0.1)],
    "inf_ratio": [(1.0, math.inf), (0.5, 0.1), (0.05, 0.1)],
    "rising": [(1.0, 0.9), (0.9, 0.95), (1e-3, 0.99), (1e-4, 0.5)],
    "alternating": [(1.0, 0.5), (-0.5, 0.5), (0.25, 0.5), (-0.125, 0.5)],
    "subnormal": [(5e-324, 0.9), (5e-324, 0.9), (1e-323, 0.9)],
    "inf_term": [(1.0, 2.0), (math.inf, 2.0), (7.0, 0.5)],
    "sum_overflows": [(1e308, 0.9), (1e308, 0.9), (7.0, 0.5)],
}


# expected (value, terms_used, tail_estimate, converged), bit for bit
@pytest.mark.parametrize("stream, max_terms, tol, expected", [
    ("empty", 400, 1.0, (0.0, 1, 0.0, False)),
    ("empty", 400, 1e-300, (0.0, 1, 0.0, False)),
    ("zero_ratio", 400, 1.0, (1.0, 1, 1.0, True)),
    ("zero_ratio", 400, 1e-300, (1.5, 2, 0.0, True)),
    ("nan_ratio", 400, 1.0, (1.55, 3, 0.005555555555555557, True)),
    ("nan_ratio", 400, 1e-300, (1.55, 3, 0.005555555555555557, False)),
    ("inf_ratio", 400, 1.0, (1.5, 2, 0.05555555555555556, True)),
    ("inf_ratio", 400, 1e-300, (1.55, 3, 0.005555555555555557, False)),
    ("rising", 400, 1.0, (1.9011, 4, 0.0001, True)),
    ("rising", 400, 1e-300, (1.9011, 4, 0.0001, False)),
    ("alternating", 400, 1.0, (1.0, 1, 1.0, True)),
    ("alternating", 400, 1e-300, (0.625, 4, 0.125, False)),
    ("subnormal", 400, 1.0, (5e-324, 1, 5e-323, True)),
    ("subnormal", 400, 1e-300, (2e-323, 3, 1e-322, False)),
    ("rising", 1, 1e-300, (1.0, 1, 9.000000000000002, False)),
    ("rising", 2, 1e-300, (1.9, 2, 17.099999999999984, False)),
    ("rising", 3, 1e-300, (1.901, 3, 0.09899999999999991, False)),
    ("alternating", 1, 1e-300, (1.0, 1, 1.0, False)),
    ("alternating", 2, 1e-300, (0.5, 2, 0.5, False)),
    ("alternating", 3, 1e-300, (0.75, 3, 0.25, False)),
])
def test_accumulate_on_crafted_streams(stream, max_terms, tol, expected):
    r = accumulate(iter(_STREAMS[stream]), tol, max_terms)
    assert repr((r.value, r.terms_used, r.tail_estimate, r.converged)) == repr(expected)


@pytest.mark.parametrize("stream", ["inf_term", "sum_overflows"])
def test_accumulate_raises_at_first_partial_sum_past_double_range(stream):
    # an inf term, or finite terms whose sum overflows, ends the series with
    # OverflowError; the term after it is never drawn
    pairs = iter(_STREAMS[stream])
    with pytest.raises(OverflowError, match="math range error"):
        accumulate(pairs, 1e-300, 400)
    assert list(pairs) == [(7.0, 0.5)]
