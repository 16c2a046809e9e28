import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kspecfun as ks
from kspecfun.summation import (
    CompensatedSum,
    SeriesResult,
    accumulate,
    dd_add,
    dd_div_d,
    dd_mul,
    dd_mul_d,
    check_series_args,
    settle,
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


def _stated_rule(n, t_abs, rho, rho_prev, s, tol, max_terms, tsum):
    """The stop rule as the documentation states it, builtins and all, with
    grow = 0: the floor 2^-64 |s| holds where the term sizes tsum are <= 2 |s|."""
    tail = t_abs * rho / (1 - rho) if rho < 1 else t_abs
    bound = tol * min(max(abs(s), 1e-300), 1)
    rounding = 2**-53 * tsum * (1 + abs(math.log(tsum))) if tsum else 0.0
    if rho < 1 and rho <= rho_prev and (tail <= bound or tail <= 2**-64 * abs(s) and tsum <= 2 * abs(s)):
        return SeriesResult(s, n, tail, True, rounding)
    return SeriesResult(s, n, tail, False, rounding) if n >= max_terms else None


# 2^63 and 2^64 put |t| = 1 at rho = 0.5 just past and exactly on the floor
_SIZES = (0.0, 5e-324, 1e-300, math.nextafter(1e-300, 1.0), 0.5, 1.0, math.nextafter(1.0, 2.0),
          2.0**63, 2.0**64, 1e300)
# at rho = 0.5 the tail is |t|, so it sits on the bound exactly at |t| = |s|,
# tol = 1 and 1e-300 <= |s| <= 1, and at |t| = 0.5, tol = 0.5 and |s| >= 1
_RATIOS = (0.0, 0.5, math.nextafter(1.0, 0.0), 1.0, 2.0, math.inf, math.nan)


@pytest.mark.parametrize("s", [x for v in _SIZES for x in (v, -v)])
def test_settle_matches_the_stated_rule_bit_for_bit(s):
    outcomes = set()
    floor_decides = False
    # the term sizes of a sum that may take the floor, at its largest, and just past it
    tsums = (2.0 * abs(s), math.nextafter(2.0 * abs(s), math.inf))
    for rho in _RATIOS:
        # rho_prev equal to rho, larger, smaller, and -inf
        for rho_prev in (rho, math.nextafter(rho, math.inf), math.nextafter(rho, -math.inf), -math.inf):
            for t_abs in (0.0, 5e-324, 0.5, 1.0, abs(s)):
                for tol in (1e-300, 1e-10, 0.5, 1.0):
                    for max_terms in (3, 4):  # the term cap reached at n = 3, and not
                        ends = []
                        for tsum in tsums:
                            got = settle(3, t_abs, rho, rho_prev, s, tol, max_terms, tsum, 0.0)
                            want = _stated_rule(3, t_abs, rho, rho_prev, s, tol, max_terms, tsum)
                            assert repr(got) == repr(want), (t_abs, rho, rho_prev, tol, max_terms, tsum)
                            outcomes.add(None if want is None else want.converged)
                            ends.append(got is not None and got.converged)
                        if ends[0] != ends[1]:
                            # only the floor tells them apart: 2 |s| takes it, the next double does not
                            assert ends == [True, False]
                            floor_decides = True
    assert outcomes == {None, True, False}
    # the floor alone ends some of these sums: those whose 2^-64 |s| reaches a tail of 0.5
    assert floor_decides == (abs(s) >= 2.0**63)


@pytest.mark.parametrize("t_abs, max_terms, converged", [(1e-13, 400, True), (0.5, 3, False)])
@pytest.mark.parametrize("tsum, grow, rounding", [
    (4.0, 2.0, 2.0**-53 * 4.0 * (2.0 * 3 + 1.0 + math.log(4.0))),
    (1e-6, 5.0, 2.0**-53 * 1e-6 * (5.0 * 3 + 1.0 - math.log(1e-6))),
    (0.0, 2.0, 0.0),
])
def test_settle_reports_the_rounding_bound_of_its_sum(t_abs, max_terms, converged, tsum, grow, rounding):
    # R = u tsum (grow n + 1 + |ln tsum|) on a converged sum and at the cap alike
    r = settle(3, t_abs, 0.5, 0.6, 1.0, 1e-10, max_terms, tsum, grow)
    assert (r.converged, r.rounding) == (converged, rounding)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_settle_raises_on_a_partial_sum_that_is_not_finite(s):
    with pytest.raises(OverflowError, match="math range error"):
        settle(1, 0.0, 0.0, math.inf, s, 1.0, 1, 0.0, 0.0)


# the whole result, rounding included, of one call on each caller of settle, bit for bit
@pytest.mark.parametrize("call, expected", [
    # the double-double path, I_0(264): one sign, so it stops at a 2^-64 relative tail
    (lambda: ks.eval_gmk_bessel(ks.BesselParams(1, 0, 1, 1, 1, 1), 264.0, tol=1e-14),
     "SeriesResult(value=1.1067699210422132e+113, terms_used=213, tail_estimate=3.696483035600299e+93, "
     "converged=True, rounding=1.1062460211821844e+100)"),
    # the log path at H1's Bessel factor
    (lambda: ks.eval_gmk_bessel(ks.BesselParams(1.5, 0.5, 1.5, 0.7, -1.0, 1.0), 10.0),
     "SeriesResult(value=-1.4605341591524655e-05, terms_used=53, tail_estimate=1.074964246256837e-15, "
     "converged=True, rounding=3.4067915945741526e-05)"),
    (lambda: ks.eval_k_bessel_first(1.5, 0.5, 1.5, 0.7, 10.0),
     "SeriesResult(value=-0.004462866618452489, terms_used=24, tail_estimate=2.884181040496636e-13, "
     "converged=True, rounding=2.093944841578665e-11)"),
    # fresh log-path tables over many written-out rows: H1's factor at z = 20 (105 rows)
    # and the alternating first kind there (34 rows)
    (lambda: ks.eval_gmk_bessel(ks.BesselParams(1.5, 0.5, 1.5, 0.7, -1.0, 1.0), 20.0),
     "SeriesResult(value=2628371.0371604827, terms_used=105, tail_estimate=4.320217986639062e-11, "
     "converged=True, rounding=1586044821.8706243)"),
    # int k and lambda1 on the log path (61 rows), the same bits as the all-float call
    (lambda: ks.eval_gmk_bessel(ks.BesselParams(2, 0.5, 1.5, 1, -1.0, 1.0), 12.0),
     "SeriesResult(value=0.017766923984080286, terms_used=61, tail_estimate=4.1216194909667616e-13, "
     "converged=True, rounding=0.01954942881947508)"),
    (lambda: ks.eval_k_bessel_first(1.5, 0.5, 1.5, 0.7, 20.0),
     "SeriesResult(value=0.00022259240412350416, terms_used=34, tail_estimate=4.0744397843043415e-15, "
     "converged=True, rounding=1.4000788182575526e-09)"),
    # the log path, one sign (c > 0, gamma > 0): it stops on the 2^-64 floor, its tail above tol
    (lambda: ks.eval_gmk_bessel(ks.BesselParams(1.0, 0.5, 1.5, 0.7, 1.0, 1.0), 40.0),
     "SeriesResult(value=3.6431847058252203e+28, terms_used=91, tail_estimate=986793439.3549839, "
     "converged=True, rounding=4.423260806083864e+16)"),
    # the first kind at gamma = -2k ends on its exact zero at n = 3
    (lambda: ks.eval_k_bessel_first(2.0, 0.5, -4.0, 1.0, 2.0),
     "SeriesResult(value=5.975304578303514, terms_used=3, tail_estimate=0.0, "
     "converged=True, rounding=1.4612609638653844e-14)"),
    # the first kind at z < 0, one sign
    (lambda: ks.eval_k_bessel_first(1.5, 0.5, 1.5, 0.7, -10.0),
     "SeriesResult(value=152.58700667717812, terms_used=22, tail_estimate=3.9995368674375485e-11, "
     "converged=True, rounding=1.7178432465685222e-11)"),
    (lambda: ks.eval_k_wright(ks.WrightSpec(((1.5, 0.5),), ((2.0, 1.0), (0.5, 0.7)), 1.5), -8.0),
     "SeriesResult(value=0.07086190364878453, terms_used=17, tail_estimate=6.628745009858519e-12, "
     "converged=True, rounding=2.0839809175384636e-13)"),
    # no ratio bound while -1.5 + n <= 0
    (lambda: ks.eval_pfq((0.5, 1.5), (-1.5,), -0.75),
     "SeriesResult(value=1.198907716146378, terms_used=129, tail_estimate=9.116885699310524e-11, "
     "converged=True, rounding=2.3209816273080025e-11)"),
    # H2's canonical right side, one sign (c > 0, gamma > 0)
    (lambda: ks.theorem1_rhs_canonical(ks.BesselParams(1.0, 0.0, 1.0, 1.0, 1.0, 1.0),
                                       0.5, 0.6, 0.01, 1.0),
     "SeriesResult(value=2.428862381341323e+40, terms_used=102, tail_estimate=6.048603872705348e+20, "
     "converged=True, rounding=8.035557874483663e+26)"),
])
def test_settle_callers_keep_their_bits(call, expected):
    assert repr(call()) == expected


# the whole result, rounding included, of longer Wright and pFq sums, bit for bit
@pytest.mark.parametrize("call, expected", [
    # a 3F2 of 29 terms
    (lambda: ks.eval_pfq((0.5, 2.25), (1.75, 0.6), 5.0),
     "SeriesResult(value=216.9367650489907, terms_used=29, tail_estimate=7.227730496020677e-11, "
     "converged=True, rounding=4.3444101855982195e-12)"),
    # p = q + 1 close to its radius
    (lambda: ks.eval_pfq((0.75, 1.25), (1.5,), -0.9),
     "SeriesResult(value=0.6652659629189834, terms_used=217, tail_estimate=6.452632012700365e-11, "
     "converged=True, rounding=4.705797651393346e-13)"),
    # (-7)_n ends the sum at n = 8
    (lambda: ks.eval_pfq((-7.0, 1.5), (2.5, 1.25), -3.25),
     "SeriesResult(value=126.93144891869589, terms_used=8, tail_estimate=0.0, "
     "converged=True, rounding=7.587766137802696e-13)"),
    # k_scale 1.7 with three lower rows
    (lambda: ks.eval_k_wright(ks.WrightSpec(((1.5, 0.5), (0.75, 1.25)),
                                            ((2.0, 1.0), (0.5, 0.7), (1.25, 0.4)), 1.7), 6.5),
     "SeriesResult(value=354.63859336787147, terms_used=29, tail_estimate=5.2641796342643854e-11, "
     "converged=True, rounding=2.554156372963546e-12)"),
    # the same spec at z = -6.5, alternating, and at z = 0, its n = 0 term alone
    (lambda: ks.eval_k_wright(ks.WrightSpec(((1.5, 0.5), (0.75, 1.25)),
                                            ((2.0, 1.0), (0.5, 0.7), (1.25, 0.4)), 1.7), -6.5),
     "SeriesResult(value=0.02671617003464859, terms_used=31, tail_estimate=1.0810332175556658e-12, "
     "converged=True, rounding=2.7116475456750178e-12)"),
    (lambda: ks.eval_k_wright(ks.WrightSpec(((1.5, 0.5), (0.75, 1.25)),
                                            ((2.0, 1.0), (0.5, 0.7), (1.25, 0.4)), 1.7), 0.0),
     "SeriesResult(value=0.6580540328365688, terms_used=1, tail_estimate=0.0, converged=True, rounding=0.0)"),
    # cut unconverged at the cap of 5 terms
    (lambda: ks.eval_pfq((1.5,), (2.5,), 50.0, max_terms=5),
     "SeriesResult(value=78533.886002886, terms_used=5, tail_estimate=71022.72727272728, "
     "converged=False, rounding=2.813737526319416e-10)"),
    # no ratio bound while -2.5 + n <= 0, then (-3)_n ends the sum at n = 4
    (lambda: ks.eval_pfq((-3.0,), (-2.5, 1.5), 2.0),
     "SeriesResult(value=3.7784126984126982, terms_used=4, tail_estimate=0.0, "
     "converged=True, rounding=9.366876805502476e-15)"),
    # p = q + 1: the Wright side is summed from the weight-1 terms and the pFq ratio bound
    (lambda: ks.wright_pfq_reduction_check((0.75, 1.25), (1.5,), -0.9), "2.2636220122758838e-15"),
])
def test_wright_and_pfq_sums_keep_their_bits(call, expected):
    assert repr(call()) == expected


class _Float(float):
    pass


@pytest.mark.parametrize("z, tol, max_terms, message", [
    (True, 1e-10, 400, "argument must be a finite real, got True"),
    ("1", 1e-10, 400, "argument must be a finite real, got '1'"),
    (math.nan, 1e-10, 400, "argument must be a finite real, got nan"),
    (math.inf, 1e-10, 400, "argument must be a finite real, got inf"),
    (_Float(math.inf), 1e-10, 400, "argument must be a finite real, got inf"),
    (2.0, True, 400, "tolerance must be positive, got True"),
    (2.0, "1", 400, "tolerance must be positive, got '1'"),
    (2.0, math.nan, 400, "tolerance must be positive, got nan"),
    (2.0, math.inf, 400, "tolerance must be finite, got inf"),
    (2.0, _Float(math.inf), 400, "tolerance must be finite, got inf"),
    (2.0, 0.0, 400, "tolerance must be positive, got 0.0"),
    (2.0, 1e-10, True, "max_terms must be a whole number >= 1, got True"),
    (2.0, 1e-10, False, "max_terms must be a whole number >= 1, got False"),
    (2.0, 1e-10, 0, "max_terms must be a whole number >= 1, got 0"),
])
def test_series_args_reject_with_their_messages(z, tol, max_terms, message):
    with pytest.raises(ks.DomainError) as err:
        check_series_args(z, tol, max_terms)
    assert str(err.value) == message


@pytest.mark.parametrize("z, tol, max_terms", [
    (2.0, 1e-10, 400), (_Float(2.0), 1e-10, 400), (2, 1e-10, 400), (2.0, _Float(1e-10), 400),
    (2.0, 1, 400), (2.0, 1e-10, 400.0), (-2.0, 1.7976931348623157e308, 1),
])
def test_series_args_come_back_as_float_and_int(z, tol, max_terms):
    got = check_series_args(z, tol, max_terms)
    assert got == (z, max_terms)
    assert (type(got[0]), type(got[1])) == (float, int)
