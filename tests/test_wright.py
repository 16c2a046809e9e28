import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kspecfun import wright
from kspecfun.errors import DomainError, NonConvergenceError
from kspecfun.kgamma import KScale, log_k_gamma
from kspecfun.summation import accumulate, logsig_pairs
from kspecfun.wright import (
    WrightSpec,
    convergence_margin,
    eval_k_wright,
    eval_pfq,
    eval_wright,
    wright_pfq_reduction_check,
    wright_terms_logsig,
)


def test_margin_values():
    assert convergence_margin(WrightSpec(upper=((1, 1),), lower=((1, 1),))) == 0.0
    # weights of the packaged 2-Psi-3 rows sum to lambda1 + 4 - 4
    for lam1 in (0.5, 1.0, 2.0):
        s = WrightSpec(
            upper=((4.0, 2.0), (2.0, 2.0)),
            lower=((1.5, lam1), (5.0, 2.0), (3.0, 2.0)),
        )
        assert convergence_margin(s) == pytest.approx(lam1, abs=1e-15)


def test_margin_rejection():
    with pytest.raises(DomainError):
        WrightSpec(upper=((1.0, 3.0),), lower=((1.0, 1.0),))
    # weight-1 p = q+1 sits exactly on the boundary and is rejected
    with pytest.raises(DomainError):
        WrightSpec(upper=((1.0, 1.0), (2.0, 1.0)), lower=((3.0, 1.0),))


def test_margin_scales_with_k():
    # same rows that are rejected classically converge under k_scale = 2
    rows = dict(upper=((2.0, 2.0),), lower=((2.0, 1.0),))
    with pytest.raises(DomainError):
        WrightSpec(k_scale=1.0, **rows)
    s = WrightSpec(k_scale=2.0, **rows)
    assert convergence_margin(s) == -1.0


def test_row_validation():
    with pytest.raises(DomainError):
        WrightSpec(upper=((0.0, 1.0),), lower=())
    with pytest.raises(DomainError):
        WrightSpec(upper=(), lower=((1.0, -0.5),))
    with pytest.raises(DomainError):
        WrightSpec(upper=(), lower=(), k_scale=0.0)
    with pytest.raises(DomainError) as err:
        WrightSpec(((1.0,),), ())
    assert str(err.value) == "upper rows must be (offset, weight) pairs, got (1.0,)"
    # both used to construct, as k_scale 1.0 and 2.0
    for k_scale in (True, "2"):
        with pytest.raises(DomainError) as err:
            WrightSpec(((1.0, 1.0),), ((2.0, 1.0),), k_scale=k_scale)
        assert str(err.value) == f"k_scale must be positive, got {k_scale!r}"


def test_exponential_case():
    s = WrightSpec(upper=((1.0, 1.0),), lower=((1.0, 1.0),))
    r = eval_wright(s, 1.0, tol=1e-14)
    assert r.converged
    assert r.value == pytest.approx(math.e, rel=1e-13)


def test_squared_factorial_series():
    # sum x^n/(n!)^2 at x=1
    s = WrightSpec(upper=(), lower=((1.0, 1.0),))
    assert eval_wright(s, 1.0, tol=1e-14).value == pytest.approx(
        2.2795853023360672674, rel=1e-13
    )
    # alternating variant is the classical J0(2) value
    assert eval_wright(s, -1.0, tol=1e-14).value == pytest.approx(
        0.22389077914123566805, rel=1e-13
    )


def test_two_psi_two_value():
    s = WrightSpec(upper=((1.5, 0.5), (2.0, 1.0)), lower=((2.5, 1.5), (1.0, 0.5)))
    assert eval_wright(s, 0.8, tol=1e-14).value == pytest.approx(
        1.0208617365678387512, rel=1e-12
    )


def test_z_zero_single_term():
    s = WrightSpec(upper=((2.0, 1.0),), lower=((1.0, 1.0),))
    r = eval_wright(s, 0.0)
    assert r.value == pytest.approx(math.gamma(2.0) / math.gamma(1.0), rel=1e-15)
    assert r.terms_used == 1 and r.converged


def test_k_scaled_value():
    # 80-term extended-precision reference
    s = WrightSpec(upper=((2.0, 2.0),), lower=((2.0, 1.0),), k_scale=2.0)
    assert eval_k_wright(s, 0.5, tol=1e-14).value == pytest.approx(
        2.7742859576700095503, rel=1e-12
    )


def test_k_one_degeneracy():
    rng = random.Random(20240816)
    for _ in range(10):
        upper = tuple((rng.uniform(0.5, 5), rng.uniform(0.1, 1.0)) for _ in range(rng.randint(0, 2)))
        lower = tuple((rng.uniform(0.5, 5), rng.uniform(0.5, 1.5)) for _ in range(rng.randint(1, 3)))
        try:
            s = WrightSpec(upper=upper, lower=lower, k_scale=1.0)
        except DomainError:
            continue
        z = rng.uniform(-1, 1)
        a = eval_wright(s, z, tol=1e-13)
        b = eval_k_wright(s, z, tol=1e-13)
        assert a.value == pytest.approx(b.value, rel=1e-13)


def test_eval_wright_requires_unit_scale():
    s = WrightSpec(upper=(), lower=((1.0, 1.0),), k_scale=2.0)
    with pytest.raises(DomainError):
        eval_wright(s, 1.0)


def test_pfq_values():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    assert eval_pfq((1.0, 1.0), (2.0,), 0.5, tol=1e-14).value == pytest.approx(
        1.3862943611198906188, rel=1e-13
    )
    # 1F1(2;3;-1)
    assert eval_pfq((2.0,), (3.0,), -1.0, tol=1e-14).value == pytest.approx(
        0.52848223531423071362, rel=1e-13
    )
    # 0F0 is exp
    assert eval_pfq((), (), 1.0, tol=1e-14).value == pytest.approx(math.e, rel=1e-13)
    # parameter cancellation: 1F1(a;a;z) = e^z
    assert eval_pfq((3.7,), (3.7,), 2.0, tol=1e-14).value == pytest.approx(
        math.exp(2.0), rel=1e-13
    )


def test_pfq_domain():
    with pytest.raises(DomainError):
        eval_pfq((1.0, 1.0, 1.0), (2.0,), 0.5)  # p > q+1
    with pytest.raises(DomainError):
        eval_pfq((1.0, 1.0), (2.0,), 1.5)  # p = q+1 needs |z| < 1
    with pytest.raises(DomainError):
        eval_pfq((1.0,), (0.0,), 0.5)
    with pytest.raises(DomainError):
        eval_pfq((1.0,), (-2.0,), 0.5)


def test_pfq_stops_at_first_inf_term(monkeypatch):
    # 1F1(1;2;1e5) overflows at term 91 and raises there; it once ran all 400 terms
    settled = []
    settle = wright.settle

    def counted(n, *args):
        settled.append(n)
        return settle(n, *args)

    monkeypatch.setattr(wright, "settle", counted)
    with pytest.raises(OverflowError, match="math range error"):
        eval_pfq((1.0,), (2.0,), 1e5)
    assert settled == list(range(1, 92))


def test_pfq_terminating_series():
    # upper parameter -2 terminates after three terms
    r = eval_pfq((-2.0,), (1.0,), 3.0, tol=1e-14)
    assert r.converged
    # sum_{n=0..2} (-2)_n 3^n / ((1)_n n!) = 1 - 6 + 4.5
    assert r.value == pytest.approx(-0.5, rel=1e-14)


def test_reduction_check_examples():
    assert wright_pfq_reduction_check((1.0,), (1.0,), 1.0) <= 1e-12
    assert wright_pfq_reduction_check((2.0, 3.0), (4.0,), 0.3) <= 1e-10
    assert wright_pfq_reduction_check((0.5,), (1.5,), -1.0) <= 1e-10
    # p = q + 1 at z = 0: both sides are their n = 0 term
    assert wright_pfq_reduction_check((1.0, 2.0), (3.0,), 0.0) == 0.0


_CANCELS = pytest.mark.xfail(
    strict=True, reason="2F2(1.5, 2.25; 1.75, 0.6; -5) = 5.9e-3 cancels to a rounding bound of "
    "6.4e-11, and the two sides differ by 5.1e-10 relative; ROADMAP item 1")


@pytest.mark.parametrize("p, q, z", [
    pytest.param(p, q, z, marks=_CANCELS if (p, q, z) == (2, 2, -5.0) else ())
    for p, q in [(0, 1), (1, 1), (1, 2), (2, 2), (2, 3)] for z in (-5.0, 0.3, 5.0)
])
def test_reduction_check_for_every_entire_shape(p, q, z):
    # p <= q sums the same unit-weight Wright terms as p = q + 1
    upper, lower = (1.5, 2.25)[:p], (1.75, 0.6, 3.1)[:q]
    assert wright_pfq_reduction_check(upper, lower, z) <= 1e-10


def test_reduction_check_raises_on_unconverged_side():
    # both sides cut at term 5 agree to 4e-15 although the pFq tail is 7e4
    assert not eval_pfq((1.5,), (2.5,), 50.0, max_terms=5).converged
    with pytest.raises(NonConvergenceError, match=r"^pFq side .* not converge \(terms=5, tail="):
        wright_pfq_reduction_check((1.5,), (2.5,), 50.0, max_terms=5)


@pytest.mark.parametrize(
    "upper, lower, z, side",
    [((-2,), (1,), 3.0, "upper -2.0"), ((1,), (0,), 0.5, "lower 0.0")],
)
def test_reduction_check_rejects_nonpositive_parameters(upper, lower, z, side):
    # at p = q + 1 and at p <= q alike; Gamma has poles here
    with pytest.raises(DomainError, match=side.replace(" ", " parameters.*")):
        wright_pfq_reduction_check(upper, lower, z)


@pytest.mark.parametrize("call", [
    lambda v: WrightSpec(((v, 1.0),), ((2.0, 1.0),)),
    lambda v: WrightSpec(((1.0, 1.0),), ((2.0, v),)),
    lambda v: eval_pfq((v,), (2.0,), 0.5),
    lambda v: eval_pfq((1.0,), (v,), 0.5),
    lambda v: wright_pfq_reduction_check((v,), (2.0,), 0.5),
], ids=["upper offset", "lower weight", "pfq upper", "pfq lower", "reduction check"])
@pytest.mark.parametrize("v", [True, "2"])
def test_parameters_follow_the_real_rule(call, v):
    # each used to be converted to 1.0 or 2.0 and evaluated
    with pytest.raises(DomainError, match="finite"):
        call(v)


def test_pfq_negative_lower_parameter():
    # b + n < 0 for the first terms: no tail bound may be certified there
    mpmath = pytest.importorskip("mpmath")
    r = eval_pfq((), (-1.5,), 3.0, tol=1e-13)
    assert r.converged
    assert r.tail_estimate >= 0.0
    assert r.value == pytest.approx(float(mpmath.hyp0f1(-1.5, 3.0)), rel=1e-12)
    r = eval_pfq((2.0,), (-2.5, 0.5), -4.0, tol=1e-13)
    assert r.converged and r.tail_estimate >= 0.0
    assert r.value == pytest.approx(float(mpmath.hyp1f2(2.0, -2.5, 0.5, -4.0)), rel=1e-12)


def _k_wright_exact(s, z, terms=400):
    """The k-Wright series from its definition, in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        k, z = mpmath.mpf(s.k_scale), mpmath.mpf(z)

        def gk(x):
            return k ** (x / k - 1) * mpmath.gamma(x / k)

        def term(n):
            t = z**n / mpmath.factorial(n)
            for a, w in s.upper:
                t *= gk(mpmath.mpf(a) + mpmath.mpf(w) * n)
            for b, w in s.lower:
                t /= gk(mpmath.mpf(b) + mpmath.mpf(w) * n)
            return t

        return mpmath.fsum(term(n) for n in range(terms))


def _pfq_exact(upper, lower, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return mpmath.hyper(upper, lower, z)


# two of the worst false converged=True calls of the series census:
# cancelled sums of 4.024e-4 for 1.2967e-5 and -154827.1 for -0.0142802
CENSUS_PFQ = ([4.899837543109729, 2.7708755416414386], [0.6026775875327508, 3.4400955761084124],
              -21.237260192039457)
CENSUS_WRIGHT = (WrightSpec([(1.4781503143400228, 1.2839759624051206)],
                            [(0.5494467057708643, 0.6830283417141244)], 1.250002688099295),
                 -6.019373879817173)
CENSUS = [
    (lambda: eval_pfq(*CENSUS_PFQ), lambda: _pfq_exact(*CENSUS_PFQ)),
    (lambda: eval_k_wright(*CENSUS_WRIGHT), lambda: _k_wright_exact(*CENSUS_WRIGHT)),
]


@pytest.mark.xfail(strict=True, reason="cancellation leaves these sums at 4.0e-4 for 1.3e-5 and "
                   "-1.5e5 for -0.014, each with converged=True; ROADMAP item 1's rounding bound "
                   "reports them unconverged")
@pytest.mark.parametrize("call, exact", CENSUS, ids=["pfq", "k_wright"])
def test_census_sums_are_right_where_they_report_converged(call, exact):
    r = call()
    assert not r.converged or abs(r.value - exact()) <= 1e-10 * max(abs(exact()), 1)


@pytest.mark.parametrize("call, exact", CENSUS, ids=["pfq", "k_wright"])
def test_rounding_and_tail_bound_the_error_of_census_sums(call, exact):
    # the census sums above report converged on cancellation noise and say so in rounding
    r = call()
    assert r.rounding + r.tail_estimate >= abs(r.value - exact())


def _terms_by_log_k_gamma(upper, lower, k_scale, z, count):
    """The first count items of `wright_terms_logsig`, one checked `log_k_gamma` call per row."""
    k = KScale(k_scale)
    out = []
    for n in range(count):
        lg = -math.lgamma(n + 1.0)
        for off, wt in upper:
            lg += log_k_gamma(off + wt * n, k)
        for off, wt in lower:
            lg -= log_k_gamma(off + wt * n, k)
        out.append((lg, -1 if z < 0 and n % 2 else 1))
    return out


# float rows, and int rows that take the checked log_k_gamma call
_rows = st.lists(st.tuples(st.one_of(st.floats(0.01, 50.0), st.integers(1, 20)),
                           st.one_of(st.floats(0.0, 3.0), st.integers(0, 3))), max_size=3)


@settings(max_examples=150, deadline=None)
@given(_rows, _rows, st.floats(0.05, 5.0), st.floats(-50.0, 50.0))
@example([(1.5, 0.5), (0.75, 1.25)], [(2.0, 1.0), (0.5, 0.7), (1.25, 0.4)], 1.7, 6.5)
def test_wright_terms_match_a_log_k_gamma_call_per_row(upper, lower, k_scale, z):
    got = list(itertools.islice(wright_terms_logsig(upper, lower, k_scale, z), 60))
    assert repr(got) == repr(_terms_by_log_k_gamma(upper, lower, k_scale, z, 60))


@pytest.mark.parametrize("upper, lower, bad", [
    ([(-1.0, 1.0)], [], "-1.0"),  # a negative offset
    ([(1.0, 1.0)], [(2.0, -1.0)], "0.0"),  # a lower row that reaches 0 at n = 2
    ([(1, 0)], [(-2, 1)], "-2"),  # int rows keep their repr in the message
])
def test_raw_rows_off_the_domain_raise_the_log_k_gamma_error(upper, lower, bad):
    with pytest.raises(DomainError) as err:
        list(itertools.islice(wright_terms_logsig(upper, lower, 1.0, 2.0), 4))
    assert str(err.value) == f"log k-gamma requires z > 0, got {bad}"


def _pairs_with_a_bound_per_term(upper, lower, z, count):
    """The first count (term, ratio bound) pairs of a pFq, the bound a separate call per term."""

    def bound(dens, least, n):
        if least + n <= 0:
            return math.inf
        rho = abs(z)
        for j, aj in enumerate(upper):
            x = abs(aj + n) / (dens[j] + n)
            rho *= x if x > 1.0 else 1.0
        for d in dens[len(upper):]:
            rho /= d + n
        return rho

    dens = list(lower) + [1.0]
    out, t = [], 1.0
    for n in range(count):
        r = z / (n + 1.0)
        for aj in upper:
            r *= aj + n
        for bj in lower:
            r /= bj + n
        out.append((t, 0.0 if r == 0.0 else bound(dens, min(dens), n)))
        t *= r
    return out


# parameters that include negative integers (upper: exact termination) and
# negative non-integers (lower: no bound while b + n <= 0)
_param = st.one_of(st.floats(-6.0, 6.0), st.integers(-5, 5).map(float), st.integers(-5, 5).map(lambda i: i + 0.5))


@settings(max_examples=200, deadline=None)
@given(st.lists(_param, max_size=3), st.lists(_param, max_size=3), st.floats(-30.0, 30.0))
@example([-3.0, 1.5], [-2.5], 2.0)
def test_pfq_pairs_match_a_bound_per_term(upper, lower, z):
    assume(len(upper) <= len(lower) + 1)
    assume(not any(b <= 0 and b == math.floor(b) for b in lower))
    got = list(itertools.islice(wright._pfq_pairs(upper, lower, z), 60))
    assert repr(got) == repr(_pairs_with_a_bound_per_term(upper, lower, z, 60))


def test_pfq_pairs_give_no_bound_then_end_exactly():
    # b = -2.5: no bound at n = 0, 1, 2; a = -3: the ratio after term 3 is an exact 0
    rhos = [rho for _, rho in itertools.islice(wright._pfq_pairs([-3.0, 1.5], [-2.5], 2.0), 5)]
    assert rhos[:3] == [math.inf] * 3 and rhos[3] == 0.0 and 0.0 < rhos[4] < math.inf


def _outcome(call):
    """The repr of call's result, or the type and message of the error it raised."""
    try:
        return repr(call())
    except (ArithmeticError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


# two sums of the series census whose terms are all positive: each stops on the
# 2^-64 relative floor with its absolute tail above tol, 2 and 40 terms before
# that tail reaches tol, and keeps the value bits of the longer sum
ONE_SIGN_PFQ = ([4.821699858927725], [1.9809673261504277], 18.792827077542444)
ONE_SIGN_WRIGHT = (
    WrightSpec(((3.345080075772784, 1.3072214705401835), (3.2729546796899296, 0.970851798342144)),
               ((4.811373594621574, 0.8004632863419455), (3.796931031592405, 0.8659735961237536)),
               1.3162845292552443),
    6.954298492802444)


@pytest.mark.parametrize("call, exact, value, terms", [
    (lambda: eval_pfq(*ONE_SIGN_PFQ), lambda: _pfq_exact(*ONE_SIGN_PFQ), "53968532004.14548", 74),
    (lambda: eval_k_wright(*ONE_SIGN_WRIGHT), lambda: _k_wright_exact(*ONE_SIGN_WRIGHT),
     "8.530204521768115e+18", 231),
], ids=["pfq", "k_wright"])
def test_one_sign_census_sums_stop_on_the_floor(call, exact, value, terms):
    r = call()
    assert (repr(r.value), r.terms_used, r.converged) == (value, terms, True)
    assert 1e-10 < r.tail_estimate <= 2.0**-64 * r.value
    # right to tol relative to the sum, within its own rounding bound
    assert abs(r.value - exact()) <= min(r.rounding, 1e-10 * r.value)


_tols = st.sampled_from([1e-14, 1e-10, 1e-6, 0.5])
_caps = st.one_of(st.integers(1, 40), st.just(400))


@settings(max_examples=200, deadline=None)
@given(st.lists(_param, max_size=3), st.lists(_param, max_size=3),
       st.one_of(st.floats(-30.0, 30.0), st.floats(-1e6, 1e6)), _tols, _caps)
@example([1.0], [2.0], 1e5, 1e-10, 400)  # an OverflowError at term 91
@example([-3.0], [-2.5, 1.5], 2.0, 1e-10, 400)  # no bound, then an exact end
@example([1.5], [2.5], 50.0, 1e-10, 5)  # cut at the cap
def test_pfq_loop_sums_as_accumulate_does(upper, lower, z, tol, cap):
    p, q = len(upper), len(lower)
    assume(p <= q + 1 and (p <= q or abs(z) < 1.0))
    assume(not any(b <= 0 and b == math.floor(b) for b in lower))
    assert _outcome(lambda: eval_pfq(upper, lower, z, tol, cap)) == _outcome(
        lambda: accumulate(wright._pfq_pairs(upper, lower, z), tol, cap, grow=p + q + 2.0))


@settings(max_examples=200, deadline=None)
@given(_rows, _rows, st.floats(0.05, 5.0),
       st.one_of(st.floats(-50.0, 50.0), st.floats(-1e6, 1e6)), _tols, _caps)
@example([(1.5, 0.5), (0.75, 1.25)], [(2.0, 1.0), (0.5, 0.7), (1.25, 0.4)], 1.7, -6.5, 1e-10, 400)
@example([(1.5, 0.5), (0.75, 1.25)], [(2.0, 1.0), (0.5, 0.7), (1.25, 0.4)], 1.7, 6.5, 1e-10, 3)
@example([(0.45, 2.3)], [(3.27, 2.5)], 0.5, -1.8, 1e-6, 400)  # a ratio below 1 that rises
def test_k_wright_loop_sums_as_accumulate_does(upper, lower, k_scale, z, tol, cap):
    assume(z != 0.0)
    try:
        s = WrightSpec(upper, lower, k_scale)
    except DomainError:
        assume(False)
    terms = wright_terms_logsig(s.upper, s.lower, s.k_scale, z)
    assert _outcome(lambda: eval_k_wright(s, z, tol, cap)) == _outcome(
        lambda: accumulate(logsig_pairs(terms, math.log(abs(z))), tol, cap))
