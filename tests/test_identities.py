import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kspecfun import identities, kbessel, quadrature
from kspecfun.errors import DomainError, NonConvergenceError
from kspecfun.identities import (
    CSV_FIELDS,
    IDENTITY_IDS,
    classical_reduction_check,
    corollary1_rhs,
    corollary3_rhs,
    theorem1_rhs_canonical,
    theorem1_rhs_paper,
    theorem2_rhs_canonical,
    theorem2_rhs_paper,
    to_record,
    verify,
)
from kspecfun.kbessel import BesselParams
from kspecfun.kgamma import k_gamma, log_k_gamma
from kspecfun.quadrature import ObParams, oberhettinger_closed_form, theorem1_lhs
from kspecfun.summation import SeriesResult
from kspecfun.wright import wright_terms_logsig

UNIT = BesselParams(k=1, nu=1, gamma=1, lambda1=1, c=-1, b=1)
GEN = BesselParams(k=2, nu=0.5, gamma=1.5, lambda1=2, c=1, b=2)

UNIT_PARAMS = dict(k=1, nu=1, gamma=1, lambda1=1, c=-1, b=1, mu=1, lam=2, a=1, y=1)
GEN_PARAMS = dict(k=2, nu=0.5, gamma=1.5, lambda1=2, c=1, b=2, mu=0.5, lam=1.5, a=2, y=0.5)


def test_canonical_value_pins():
    # frozen from 50-digit term-by-term sums of the closed-form images
    assert theorem1_rhs_canonical(UNIT, 1.0, 2.0, 1.0, 1.0, tol=1e-13).value == pytest.approx(
        0.05994941425506648404, rel=1e-12
    )
    assert theorem2_rhs_canonical(UNIT, 0.5, 2.0, 1.0, 1.0, tol=1e-13).value == pytest.approx(
        0.035622556948013906223, rel=1e-12
    )
    assert theorem1_rhs_canonical(GEN, 0.5, 1.5, 2.0, 0.5, tol=1e-13).value == pytest.approx(
        0.13407906355454481474, rel=1e-12
    )
    assert theorem2_rhs_canonical(GEN, 0.5, 1.5, 2.0, 0.5, tol=1e-13).value == pytest.approx(
        0.083612897993277648976, rel=1e-12
    )


def test_canonical_c_zero_collapse():
    p = BesselParams(k=2, nu=0.5, gamma=1.5, lambda1=2, c=0, b=2)
    mu, lam, a, y = 0.5, 1.5, 2.0, 0.5
    s0 = p.nu + 0.5 * (p.b + 1.0)
    front = (y / 2.0) ** p.nu / k_gamma(s0, p.k)
    r1 = theorem1_rhs_canonical(p, mu, lam, a, y)
    assert r1.terms_used == 1
    assert r1.value == pytest.approx(
        front * oberhettinger_closed_form(ObParams(mu, lam + p.nu, a)), rel=1e-12
    )
    r2 = theorem2_rhs_canonical(p, mu, lam, a, y)
    assert r2.value == pytest.approx(
        front * oberhettinger_closed_form(ObParams(mu + p.nu, lam + p.nu, a)), rel=1e-12
    )


def test_canonical_y_zero():
    r = theorem1_rhs_canonical(UNIT, 1.0, 2.0, 1.0, 0.0)
    assert r.value == 0.0 and r.converged


@pytest.mark.parametrize("nu", [0.0, 1.0])
@pytest.mark.parametrize("rhs", [theorem1_rhs_canonical, theorem2_rhs_canonical])
def test_canonical_y_whose_half_rounds_to_zero(rhs, nu):
    # 0.5 * 5e-324 is 0.0: the sum is its n = 0 term, as at y = 0, not log(0)
    p = BesselParams(k=2, nu=nu, gamma=1.5, lambda1=2, c=1, b=2)
    assert rhs(p, 0.5, 1.5, 2.0, 5e-324) == rhs(p, 0.5, 1.5, 2.0, 0.0)


@pytest.mark.parametrize("identity, y", [
    ("theorem1", 1e-20), ("theorem1", 1e-300), ("theorem2", 1e-280), ("theorem2", 1e-320),
])
def test_verify_takes_quadrature_nodes_whose_half_argument_rounds_to_zero(identity, y):
    # a node of these integrals lands on z = 5e-324, where z/2 is 0.0
    r = verify(identity, dict(UNIT_PARAMS, lambda1=0.5, y=y))
    assert r.verdict == "match"


def _canonical_sum(which, p, mu, lam, a, y):
    """Canonical right side from its definition, term by term in 40-digit
    arithmetic: the series term times the kernel's closed form
    2 l a^-l (a/2)^m Gamma(2m) Gamma(l - m) / Gamma(1 + l + m) with
    (m, l) = (mu, lam + nu + 2n) or (mu + nu + 2n, lam + nu + 2n); the
    sum stops at the first vanishing term."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k, nu, gamma, lam1, c, b = map(mpmath.mpf, (p.k, p.nu, p.gamma, p.lambda1, p.c, p.b))
        mu, lam, a, y = map(mpmath.mpf, (mu, lam, a, y))
        total, n = mpmath.mpf(0), 0
        while True:
            poch = mpmath.fprod(gamma + j * k for j in range(n))
            if poch == 0:
                return total, n
            s = lam1 * n + nu + (b + 1) / 2
            gk = k ** (s / k - 1) * mpmath.gamma(s / k)
            term = c**n * poch / gk * (y / 2) ** (nu + 2 * n) / mpmath.factorial(n) ** 2
            ln = lam + nu + 2 * n
            m = mu if which == 1 else mu + nu + 2 * n
            total += term * 2 * ln * a**-ln * (a / 2) ** m * mpmath.gamma(2 * m) * mpmath.gamma(
                (ln if which == 1 else lam) - mu) / mpmath.gamma(1 + ln + m)
            n += 1


@pytest.mark.parametrize("which, rhs", [(1, theorem1_rhs_canonical), (2, theorem2_rhs_canonical)])
@pytest.mark.parametrize(
    "params",
    [
        dict(k=1.5, nu=0.5, gamma=-3.0, lambda1=1.05, c=-1.0, b=1.0),  # log path
        dict(k=1.0, nu=1.0, gamma=-2.0, lambda1=2.0, c=0.7, b=2.0),
    ],
)
def test_canonical_terminates_at_gamma_minus_2k(which, rhs, params):
    p = BesselParams(**params)
    mu, lam, a, y = 0.5, 1.5, 0.75, 3.0
    expected, nonzero = _canonical_sum(which, p, mu, lam, a, y)
    assert nonzero == 3
    r = rhs(p, mu, lam, a, y)
    assert r.converged and r.terms_used == 3 and r.tail_estimate == 0.0
    assert r.value == pytest.approx(float(expected), rel=1e-13)


class _CountingMath:
    """Stands in for the math module and counts calls of log."""

    def __init__(self):
        self.log_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.log_calls += 1
        return math.log(x)


def test_canonical_series_log_work_is_linear_in_terms(monkeypatch):
    # The H1 point: ~100 terms.  Rebuilding the Pochhammer product at every
    # term takes ~n^2/2 logs; carrying it takes one per term.
    counting = _CountingMath()
    monkeypatch.setattr(kbessel, "math", counting)
    p = BesselParams(k=1.5, nu=0.5, gamma=1.5, lambda1=0.7, c=-1.0, b=1.0)
    r = theorem1_rhs_canonical(p, 0.5, 1.5, 0.5, 10.0)
    assert r.terms_used > 50
    assert counting.log_calls <= 3 * r.terms_used


def test_canonical_one_sign_sum_stops_on_the_floor():
    # c > 0 and gamma > 0 with positive kernel factors: every term is positive,
    # so the sum stops once its tail is at most 2^-64 of it, far above tol
    r = theorem1_rhs_canonical(BesselParams(1, 0.5, 1.5, 1, 1, 1), 0.5, 1.5, 0.5, 40.0)
    assert repr(r) == ("SeriesResult(value=6.206295770907139e+32, terms_used=87, "
                       "tail_estimate=18712603271187.727, converged=True, rounding=1.7260954037466214e+19)")
    assert 1e-10 < r.tail_estimate <= 2.0**-64 * r.value


def test_canonical_sum_reports_its_rounding_at_h1():
    # 102 cancelling terms sum to 697447.57 where the true value is 0.0555033;
    # converged says only that the tail is small, rounding says the rest
    r = theorem1_rhs_canonical(BesselParams(1.5, 0.5, 1.5, 0.7, -1.0, 1.0), 0.5, 1.5, 0.5, 10.0)
    assert (r.value, r.terms_used, r.converged) == (697447.5740582938, 102, True)
    assert r.rounding > 1e-10 * abs(r.value)
    assert r.rounding >= abs(r.value - 0.0555033)


def test_packaged_sum_passes_on_its_k_wright_rounding():
    # the packaged side is pref times a k-Wright sum, and so is its rounding
    bp = BesselParams(1.5, 0.5, 1.5, 0.7, -1.0, 1.0)
    pref, spec, arg = identities._packaging(1, False, bp, 0.5, 1.5, 0.5, 10.0)
    inner = identities.eval_k_wright(spec, arg)
    r = theorem1_rhs_paper(bp, 0.5, 1.5, 0.5, 10.0)
    assert inner.rounding > 0.0
    assert (r.value, r.rounding) == (pref * inner.value, abs(pref) * inner.rounding)


def test_corollary1_matches_negated_paper_form():
    for lambda1 in (1.0, 2.0):
        for c in (-1.0, 1.0):
            bp = BesselParams(k=1, nu=1, gamma=1, lambda1=lambda1, c=c, b=1)
            bn = BesselParams(k=1, nu=1, gamma=1, lambda1=lambda1, c=-c, b=1)
            v_cor = corollary1_rhs(bp, 1.0, 2.0, 1.0, 1.0).value
            v_neg = theorem1_rhs_paper(bn, 1.0, 2.0, 1.0, 1.0).value
            assert v_cor == pytest.approx(v_neg, rel=1e-12)


def test_corollary3_matches_negated_paper_form_at_b_one():
    for c in (-1.0, 1.0):
        bp = BesselParams(k=1, nu=0.5, gamma=1, lambda1=1, c=c, b=1)
        bn = BesselParams(k=1, nu=0.5, gamma=1, lambda1=1, c=-c, b=1)
        v_cor = corollary3_rhs(bp, 0.5, 2.0, 1.0, 1.0).value
        v_neg = theorem2_rhs_paper(bn, 0.5, 2.0, 1.0, 1.0).value
        assert v_cor == pytest.approx(v_neg, rel=1e-12)


def test_corollary_rhs_requires_k_one():
    with pytest.raises(DomainError):
        corollary1_rhs(GEN, 0.5, 1.5, 2.0, 0.5)


def test_verify_theorem1_unit_match():
    r = verify("theorem1", UNIT_PARAMS)
    assert r.verdict == "match"
    assert r.rel_diff_canonical <= 1e-5
    assert r.rel_diff_paper <= 1e-5
    assert r.rhs_paper is not None
    assert r.quad_evals > 0 and r.series_terms > 0


def test_verify_theorem1_general_canonical_only():
    r = verify("theorem1", GEN_PARAMS)
    assert r.verdict == "canonical_only"
    assert r.rel_diff_canonical <= 1e-5
    assert r.rel_diff_paper > 1e-5
    assert "ratio" in r.diagnostics
    assert "n=0 0.125" in r.diagnostics


def test_verify_theorem2_unit_canonical_only():
    r = verify("theorem2", dict(UNIT_PARAMS, mu=0.5))
    assert r.verdict == "canonical_only"
    assert "n=1 4" in r.diagnostics


@pytest.mark.parametrize("point, ratios", [
    # c = 0: every canonical term past n = 0 vanishes
    (dict(c=0, b=2), "n=0 1.32934, n=1 n/a, n=2 n/a"),
    # y = 0: the ratios are taken at y = 1, where the y-powers cancel
    (dict(nu=0, c=-1, b=2, y=0), "n=0 0.886227, n=1 5.31736, n=2 26.5868"),
])
def test_verify_theorem2_ratio_diagnostics(point, ratios):
    r = verify("theorem2", dict(UNIT_PARAMS, mu=0.5, **point))
    assert (r.verdict, r.diagnostics) == ("canonical_only", "packaged/canonical term ratios: " + ratios)


def test_verify_ratio_diagnostics_where_half_y_rounds_to_zero():
    # y/2 is 0.0, as at y = 0: the ratios are taken at y = 1
    at_zero = verify("theorem2", dict(UNIT_PARAMS, mu=0.5, nu=0, c=-1, b=2, y=0))
    r = verify("theorem2", dict(UNIT_PARAMS, mu=0.5, nu=0, c=-1, b=2, y=5e-324))
    assert (r.verdict, r.diagnostics) == ("canonical_only", at_zero.diagnostics)


@pytest.mark.parametrize("y", [1e-300, 1.3, 3.0])
def test_verify_ratio_diagnostics_where_terms_underflow(y):
    # at y = 1e-300 the canonical terms past n = 0 and the packaged argument
    # underflow to 0.0; the ratios, exp of log differences, are those of y = 0,
    # as at every y: the y-powers cancel in each ratio
    point = dict(k=2, nu=0, gamma=1.5, lambda1=2, c=1, b=2, mu=0.5, lam=1.5, a=2)
    at_zero = verify("theorem1", dict(point, y=0))
    r = verify("theorem1", dict(point, y=y))
    assert at_zero.diagnostics == "packaged/canonical term ratios: n=0 0.125, n=1 0.0833333, n=2 0.047619"
    assert (r.verdict, r.diagnostics) == ("canonical_only", at_zero.diagnostics)


@settings(deadline=None, max_examples=200)
@given(which=st.sampled_from([1, 2]), k=st.floats(0.5, 2.5), nu=st.floats(0.0, 2.0),
       gamma=st.floats(0.1, 3.0), lambda1=st.floats(0.3, 3.0), c=st.floats(0.1, 2.0),
       c_sign=st.sampled_from([-1.0, 1.0]), b=st.floats(0.0, 3.0), mu=st.floats(0.1, 3.0),
       gap=st.floats(0.1, 3.0), a=st.floats(0.1, 10.0), y=st.floats(0.1, 10.0))
def test_packaged_to_canonical_term_ratio_closed_forms(which, k, nu, gamma, lambda1, c, c_sign, b,
                                                       mu, gap, a, y):
    # log(packaged_n / canonical_n) in closed form, free of y and a:
    # first identity   -(1 + 4 mu) ln k + ln n! - ln (gamma)_{n,k}
    # second identity  n ln 4 + ln n! - ln (gamma)_{n,k}
    #                  + ln Gamma_k(s0 + lambda1 n) - ln Gamma_k(nu + 1 + lambda1 n)
    bp = BesselParams(k, nu, gamma, lambda1, c_sign * c, b)
    lam = mu + gap
    pref, spec, arg = identities._packaging(which, False, bp, mu, lam, a, y)
    packaged = wright_terms_logsig(spec.upper, spec.lower, spec.k_scale, arg)
    canonical = identities._canonical_terms_logsig(which, bp, mu, lam, a, y)
    log_poch = 0.0
    for n, (plg, psg), (lg, sg) in zip(range(6), packaged, canonical):
        got = math.log(pref) + plg + n * math.log(abs(arg)) - lg
        want = math.lgamma(n + 1.0) - log_poch
        if which == 1:
            want -= (1.0 + 4.0 * mu) * math.log(k)
        else:
            want += (n * math.log(4.0) + log_k_gamma(bp.s0 + lambda1 * n, k)
                     - log_k_gamma(nu + 1.0 + lambda1 * n, k))
        assert got == pytest.approx(want, rel=0, abs=1e-12), n
        assert pref > 0.0 and psg == sg, n
        log_poch += math.log(gamma + n * k)


@pytest.mark.parametrize("identity", ["theorem1", "oberhettinger"])
def test_verify_precondition_inconclusive(identity):
    r = verify(identity, dict(UNIT_PARAMS, mu=5, lam=1))
    assert r.verdict == "inconclusive"
    assert r.diagnostics.startswith("precondition")
    assert math.isnan(r.lhs)


@pytest.mark.parametrize("identity, params, diagnostics", [
    ("oberhettinger", {"mu": "1", "lam": True, "a": 1}, "precondition: mu must be a finite real, got '1'"),
    ("oberhettinger", {"mu": 1, "lam": True, "a": 1}, "precondition: lam must be a finite real, got True"),
    ("theorem1", dict(UNIT_PARAMS, y="1"), "precondition: y must be a finite real, got '1'"),
    ("theorem2", dict(UNIT_PARAMS, mu=0.5, k=True), "precondition: k must be a finite real, got True"),
], ids=["oberhettinger str mu", "oberhettinger bool lam", "theorem1 str y", "theorem2 bool k"])
def test_verify_rejects_non_real_parameters(identity, params, diagnostics):
    # each used to be converted: the first two read a wrong ordering
    # (mu=1.0 lam=1.0), the last two a verdict on y = 1 and k = 1
    r = verify(identity, params)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == diagnostics
    assert r.params == params and math.isnan(r.lhs)


@pytest.mark.parametrize("tol_match", [math.nan, -1.0, 0.0, True])
@pytest.mark.parametrize("identity", ["theorem1", "oberhettinger"])
def test_verify_rejects_bad_tol_match(identity, tol_match):
    # every `rel <= tol_match` comparison is false here, which used to read
    # as a mismatch for a point that agrees to 3e-16
    r = verify(identity, UNIT_PARAMS, tol_match=tol_match)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == f"precondition: tol_match must be finite and > 0, got {tol_match!r}"
    assert math.isnan(r.lhs)


@pytest.mark.parametrize("identity", ["theorem1", "oberhettinger"])
def test_verify_missing_parameter(identity):
    r = verify(identity, {"mu": 1})
    assert r.verdict == "inconclusive"
    assert "missing" in r.diagnostics


def test_verify_non_convergence_series():
    # the integrand's own series gives up first and surfaces as a failure
    r = verify("theorem1", UNIT_PARAMS, max_terms=2)
    assert r.verdict == "inconclusive"
    assert "evaluation failed" in r.diagnostics and "converge" in r.diagnostics


def test_verify_names_the_unconverged_series_factor():
    r = verify("theorem1", UNIT_PARAMS, max_terms=2)
    assert r.diagnostics == ("evaluation failed: series factor failed to converge at argument 1.0 "
                             "(terms=2, tail=0.002717391304347826)")


class _Float(float):
    pass


@pytest.mark.parametrize("settings, message", [
    ({"tol_series": True}, "tolerance must be positive, got True"),
    ({"tol_series": "1"}, "tolerance must be positive, got '1'"),
    ({"tol_series": math.nan}, "tolerance must be positive, got nan"),
    ({"tol_series": _Float(math.inf)}, "tolerance must be finite, got inf"),
    ({"max_terms": True}, "max_terms must be a whole number >= 1, got True"),
    ({"max_terms": False}, "max_terms must be a whole number >= 1, got False"),
])
def test_verify_reports_bad_series_settings_from_the_integrand(settings, message):
    r = verify("theorem1", UNIT_PARAMS, **settings)
    assert (r.verdict, r.diagnostics, r.quad_evals) == (
        "inconclusive", f"evaluation failed: {message}", 0)


@pytest.mark.parametrize("identity", ["theorem1", "oberhettinger"])
def test_verify_non_convergence_quadrature(identity):
    r = verify(identity, UNIT_PARAMS, tol_quad=1e-15, quad_budget=250)
    assert r.verdict == "inconclusive"
    assert "did not converge: quadrature" in r.diagnostics


@pytest.mark.parametrize("identity", ["theorem1", "oberhettinger"])
def test_verify_evaluation_error_inconclusive(identity):
    r = verify(identity, UNIT_PARAMS, tol_quad=0)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == "evaluation failed: tolerance must be positive, got 0"


def test_verify_packaged_underflow_inconclusive():
    # the packaged k-Wright sum underflows to 0.0 at z = -625 and is multiplied by 2.26e168
    p = dict(UNIT_PARAMS, k=0.5, nu=120, y=50)
    r = verify("theorem1", p)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == "did not converge: packaged series"
    assert r.lhs == pytest.approx(1.3151761756614128e-235, rel=1e-9, abs=0)
    assert r.rhs_canonical == pytest.approx(1.3151761756799195e-235, rel=1e-9, abs=0)
    bp = BesselParams(k=0.5, nu=120, gamma=1, lambda1=1, c=-1, b=1)
    assert not theorem1_rhs_paper(bp, 1.0, 2.0, 1.0, 50.0).converged


def test_verify_is_deterministic():
    p = dict(UNIT_PARAMS, mu=0.5)
    assert verify("theorem2", p) == verify("theorem2", p)


def test_verify_unknown_identity():
    with pytest.raises(DomainError):
        verify("theorem3", UNIT_PARAMS)


def test_verify_corollary2_reports_reduction_gap():
    r = verify("corollary2", dict(nu=1, mu=1, lam=2, a=1, y=1))
    assert r.verdict == "match"
    assert "classical J reduction" in r.diagnostics
    # forced replacements visible in the echoed parameters
    assert r.params["k"] == 1.0 and r.params["c"] == -1.0 and r.params["gamma"] == 1.0


def test_verify_corollary1_flags_sign_flip():
    r = verify("corollary1", UNIT_PARAMS)
    assert r.verdict == "canonical_only"
    assert "n=1 -1" in r.diagnostics


def test_classical_reduction_check():
    assert classical_reduction_check("bessel_J", 0.0, 2.0) <= 1e-12
    assert classical_reduction_check("bessel_I", 1.0, 1.0) <= 1e-12
    assert classical_reduction_check("bessel_J", 0.0, 0.0) == 0.0
    # both used to be converted: True as order 1, "2" as z = 2
    with pytest.raises(DomainError, match="got nu=True"):
        classical_reduction_check("bessel_J", True, 2.0)
    with pytest.raises(DomainError, match="got nu=0.0 z='2'"):
        classical_reduction_check("bessel_J", 0.0, "2")
    with pytest.raises(DomainError):
        classical_reduction_check("bessel_K", 0.0, 1.0)


def test_to_record_fields():
    rec = to_record(verify("oberhettinger", {"mu": 1, "lam": 2, "a": 1}))
    assert set(rec) == set(CSV_FIELDS)
    assert rec["identity"] == "oberhettinger"
    assert rec["verdict"] == "match"
    assert rec["k"] is None and rec["y"] is None
    assert rec["rhs_paper"] is None and rec["rel_diff_paper"] is None
    assert rec["lhs"] == pytest.approx(1.0 / 3.0, rel=1e-7)


def test_to_record_skipped_has_no_nan():
    rec = to_record(verify("theorem1", dict(UNIT_PARAMS, mu=5, lam=1)))
    assert rec["verdict"] == "inconclusive"
    assert rec["lhs"] is None and rec["rhs_canonical"] is None
    # a failed kernel point records the kernel's parameters only
    rec = to_record(verify("oberhettinger", dict(UNIT_PARAMS, mu=5, lam=1)))
    assert rec["verdict"] == "inconclusive" and rec["lhs"] is None
    assert (rec["mu"], rec["lam"], rec["a"]) == (5.0, 1.0, 1.0)
    assert all(rec[key] is None for key in ("k", "nu", "gamma", "lambda1", "c", "b", "y"))


def test_to_record_echoes_only_real_parameters():
    # mu=True and a="1" used to be echoed as 1.0 beside a diagnostic saying "got True"
    report = verify("oberhettinger", {"mu": True, "lam": 2, "a": "1"})
    rec = to_record(report)
    assert report.diagnostics == "precondition: mu must be a finite real, got True"
    assert (rec["mu"], rec["lam"], rec["a"]) == (None, 2.0, None)


H1 = dict(k=1.5, nu=0.5, gamma=1.5, lambda1=0.7, c=-1, b=1, mu=0.5, lam=1.5, a=0.5, y=10)
H2 = dict(k=1, nu=0, gamma=1, lambda1=1, c=1, b=1, mu=0.5, lam=0.6, a=0.01, y=1)


def test_verify_h2_matches_within_400_nodes():
    # the integral is 2.4e40, so an absolute 1e-8 spent the 60000-node budget
    r = verify("theorem1", H2)
    assert r.verdict == "match"
    assert r.quad_evals <= 400
    assert r.rel_diff_canonical < 1e-12


# the hard points whose integrand stays below its noise goal, at a 600-node
# budget: the reports are the same bytes as before the integrator took noise,
# but for the left sides of H2 and its neighbours, whose one-sign Bessel
# factors now come from plain-double rows (the same node counts and verdicts)
@pytest.mark.parametrize("identity, params, expected", [
    ("theorem1", H2,
     "lhs=2.4288623813414726e+40, rhs_canonical=2.428862381341323e+40, rhs_paper=2.4288623813414823e+40, "
     "rel_diff_canonical=6.15198425617844e-14, rel_diff_paper=3.98186683247794e-15, verdict='match', "
     "tolerances={'quad': 1e-08, 'series': 1e-10, 'match': 1e-05}, diagnostics='', quad_evals=360, "
     "series_terms=102)"),
    ("theorem2", H1,
     "lhs=0.4838459143284497, rhs_canonical=0.48384591433835084, rhs_paper=0.31088928456462894, "
     "rel_diff_canonical=2.0463406166404103e-11, rel_diff_paper=0.35746220985223076, "
     "verdict='canonical_only', tolerances={'quad': 1e-08, 'series': 1e-10, 'match': 1e-05}, "
     "diagnostics='packaged/canonical term ratios: n=0 1, n=1 2.66667, n=2 7.11111', quad_evals=240, "
     "series_terms=23)"),
    ("theorem1", dict(k=1.0, nu=0.0, gamma=1.006753912533581, lambda1=1.0, c=1.0047386416890705,
                      b=0.9998911978834796, mu=0.5080776151952594, lam=0.609509360502703,
                      a=0.00987422144645161, y=0.9973692765816736),
     "lhs=7.880123053628395e+40, rhs_canonical=7.880123053628247e+40, rhs_paper=7.644953413928986e+40, "
     "rel_diff_canonical=1.87779453840758e-14, rel_diff_paper=0.02984339687324114, "
     "verdict='canonical_only', tolerances={'quad': 1e-08, 'series': 1e-10, 'match': 1e-05}, "
     "diagnostics='packaged/canonical term ratios: n=0 1, n=1 0.993291, n=2 0.989948', quad_evals=360, "
     "series_terms=103)"),
    ("theorem1", dict(k=1.0, nu=0.0, gamma=0.9899030855114426, lambda1=1.0, c=0.9801544532517644,
                      b=1.0097241110525836, mu=0.5008678464405092, lam=0.6027973433791587,
                      a=0.009817231242980737, y=1.0159431320298373),
     "lhs=2.5558947962608695e+41, rhs_canonical=2.5558947962608885e+41, rhs_paper=2.675018303439017e+41, "
     "rel_diff_canonical=7.416563811346518e-15, rel_diff_paper=0.044531847511099946, "
     "verdict='canonical_only', tolerances={'quad': 1e-08, 'series': 1e-10, 'match': 1e-05}, "
     "diagnostics='packaged/canonical term ratios: n=0 1, n=1 1.0102, n=2 1.01533', quad_evals=360, "
     "series_terms=104)"),
], ids=["H2", "T2", "huge 1", "huge 2"])
def test_hard_reports_below_their_noise_goal_are_pinned(identity, params, expected):
    r = verify(identity, params, quad_budget=600)
    assert repr(r).split(", lhs=", 1)[1] == expected[len("lhs="):]


def test_verify_h1_fails_fast_on_its_integrand_noise():
    # H1's Bessel factor cancels, so its integrand's rounding noise is about
    # 2e9 times the quadrature goal: it stops after the 240 starting nodes
    r = verify("theorem1", H1)
    assert (r.verdict, r.diagnostics, r.quad_evals) == ("inconclusive", "did not converge: quadrature", 240)


@pytest.mark.parametrize("tol_quad, verdict, diagnostics", [
    (1e-3, "inconclusive", "did not converge: quadrature"),
    (1e-5, "match", ""),
])
def test_verify_loose_quadrature_cannot_match(tol_quad, verdict, diagnostics):
    # at 1e-3 the quadrature stops with a relative estimate of 1.1e-4, above tol_match
    r = verify("theorem1", H2, tol_quad=tol_quad)
    assert (r.verdict, r.diagnostics) == (verdict, diagnostics)


@pytest.mark.parametrize("a", [1e8, 1e11])
def test_verify_tiny_kernel_integral_matches(a):
    # the integral is about 1e-21 or less, so an absolute tolerance was met
    # at once and the verdict was a mismatch of quadrature noise
    r = verify("oberhettinger", dict(mu=0.5, lam=3, a=a))
    assert r.verdict == "match"
    assert r.rel_diff_canonical < 1e-12


def test_identity_registry():
    assert "oberhettinger" in IDENTITY_IDS
    assert len(IDENTITY_IDS) == 7


def test_verify_corollary3_flags_fourfold_ratio():
    r = verify("corollary3", UNIT_PARAMS)
    assert r.verdict == "canonical_only"
    assert "n=1 -4" in r.diagnostics
    assert "classical J" not in r.diagnostics


def test_verify_corollary4_flags_ratio_and_classical_gap():
    r = verify("corollary4", UNIT_PARAMS)
    assert r.verdict == "canonical_only"
    assert "n=1 4" in r.diagnostics
    assert "classical J reduction gap" in r.diagnostics


@pytest.mark.parametrize("identity", ["corollary2", "corollary4"])
def test_verify_reports_a_classical_check_past_double_range(identity):
    # Gamma(nu + 1) of the classical reference overflows at nu = 171; the
    # side check is named as failed and the two routes keep the verdict
    r = verify(identity, dict(UNIT_PARAMS, nu=171))
    assert r.verdict == "inconclusive"
    assert r.diagnostics == ("did not converge: packaged series; "
                             "classical J reduction failed: math range error")


@pytest.mark.parametrize(
    "identity, fixed",
    [
        ("corollary1", dict(k=1.0)),
        ("corollary3", dict(k=1.0)),
        ("corollary2", dict(k=1.0, lambda1=1.0, gamma=1.0, b=1.0, c=-1.0)),
        ("corollary4", dict(k=1.0, lambda1=1.0, gamma=1.0, b=1.0, c=-1.0)),
    ],
)
def test_verify_corollaries_override_fixed_parameters(identity, fixed):
    supplied = dict(UNIT_PARAMS, k=2, lambda1=2, gamma=1.5, b=2)
    r = verify(identity, supplied)
    for key, value in fixed.items():
        assert r.params[key] == value
    for key in set(supplied) - set(fixed):
        assert r.params[key] == float(supplied[key])


def test_verify_notes_overridden_fixed_parameters():
    r = verify("corollary1", dict(UNIT_PARAMS, k=2.0))
    assert r.params["k"] == 1.0
    assert r.diagnostics.endswith("; fixed k=1.0 (given 2.0)")
    plain = verify("corollary1", dict(UNIT_PARAMS, k=1.0))
    assert plain.diagnostics == r.diagnostics[: -len("; fixed k=1.0 (given 2.0)")]
    assert "fixed" not in plain.diagnostics
    r = verify("corollary2", dict(UNIT_PARAMS, c=1.0, gamma=0.5))
    assert r.diagnostics.endswith("; fixed gamma=1.0 (given 0.5); fixed c=-1.0 (given 1.0)")
    bad = verify("corollary3", dict(UNIT_PARAMS, k=3.0, mu=-1.0))
    assert bad.diagnostics.startswith("precondition:")
    assert bad.diagnostics.endswith("; fixed k=1.0 (given 3.0)")


# Records of a slice of the benchmark grid: both theorems at lambda1/k in
# {0.5, 1, 2} (the log/sign path and both double-double paths) and c = -1, 1.
# repr pins every bit of the left side and both right sides, so any drift in
# the series evaluation fails here.  Frozen from the per-node recurrences
# that preceded the per-parameter term table.  The left sides of the theorem2
# c = 1 records at whole lambda1/k, whose one-sign Bessel factors come from
# plain-double rows, have those bits again (log rows moved them by <= 3e-16).
GRID_SLICE = dict(nu=0.5, gamma=1.5, b=1.0, mu=0.5, lam=1.5, a=0.75, y=3.0)
GRID_SLICE_RECORDS = {
    ('theorem1', 2.0, 1.0, -1.0): (
        "{'identity': 'theorem1', 'k': 2.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " -1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.2537720718330204, 'rhs_canonical': 0.2537720718267932, 'rhs_paper': "
        "0.032472322858321793, 'rel_diff_canonical': 2.453871657406008e-11, "
        "'rel_diff_paper': 0.8720413849176899, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 20}"
    ),
    ('theorem1', 2.0, 1.0, 1.0): (
        "{'identity': 'theorem1', 'k': 2.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " 1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "26.858053972053554, 'rhs_canonical': 26.858053972006687, 'rhs_paper': "
        "1.0328478943284833, 'rel_diff_canonical': 1.7450035248087169e-12, "
        "'rel_diff_paper': 0.9615442021449809, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 19}"
    ),
    ('theorem1', 1.0, 1.0, -1.0): (
        "{'identity': 'theorem1', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " -1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.014569021262457125, 'rhs_canonical': 0.014569021263281244, 'rhs_paper': "
        "0.38585680781261394, 'rel_diff_canonical': 5.65665006788277e-11, "
        "'rel_diff_paper': 0.9622424148868914, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 13}"
    ),
    ('theorem1', 1.0, 1.0, 1.0): (
        "{'identity': 'theorem1', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " 1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "7.5066659576133565, 'rhs_canonical': 7.506665957635196, 'rhs_paper': "
        "5.088580845876595, 'rel_diff_canonical': 2.9093367528620376e-12, "
        "'rel_diff_paper': 0.3221250453118017, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 12}"
    ),
    ('theorem1', 1.0, 2.0, -1.0): (
        "{'identity': 'theorem1', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 2.0, 'c':"
        " -1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.5062385118616817, 'rhs_canonical': 0.506238511861911, 'rhs_paper': "
        "0.8561859261028033, 'rel_diff_canonical': 4.530909275233572e-13, "
        "'rel_diff_paper': 0.4087282955397506, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 7}"
    ),
    ('theorem1', 1.0, 2.0, 1.0): (
        "{'identity': 'theorem1', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 2.0, 'c':"
        " 1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "2.9600034334923206, 'rhs_canonical': 2.960003433502631, 'rhs_paper': "
        "2.4902803687761548, 'rel_diff_canonical': 3.4832456842417845e-12, "
        "'rel_diff_paper': 0.15869004049159813, 'verdict': 'canonical_only', "
        "'quad_evals': 240, 'series_terms': 7}"
    ),
    ('theorem2', 2.0, 1.0, -1.0): (
        "{'identity': 'theorem2', 'k': 2.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " -1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.4274515782906544, 'rhs_canonical': 0.4274515782890347, 'rhs_paper': "
        "0.31371984375279893, 'rel_diff_canonical': 3.7892113467043744e-12, "
        "'rel_diff_paper': 0.26606928202876173, 'verdict': 'canonical_only', "
        "'quad_evals': 240, 'series_terms': 10}"
    ),
    ('theorem2', 2.0, 1.0, 1.0): (
        "{'identity': 'theorem2', 'k': 2.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " 1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.6775724639685666, 'rhs_canonical': 0.6775724639784652, 'rhs_paper': "
        "1.053758409261901, 'rel_diff_canonical': 1.4608808605993717e-11, "
        "'rel_diff_paper': 0.35699448942650114, 'verdict': 'canonical_only', "
        "'quad_evals': 240, 'series_terms': 10}"
    ),
    ('theorem2', 1.0, 1.0, -1.0): (
        "{'identity': 'theorem2', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " -1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.523111657875022, 'rhs_canonical': 0.5231116578966388, 'rhs_paper': "
        "0.4095798910450061, 'rel_diff_canonical': 4.132352838873318e-11, "
        "'rel_diff_paper': 0.21703161288969036, 'verdict': 'canonical_only', "
        "'quad_evals': 240, 'series_terms': 7}"
    ),
    ('theorem2', 1.0, 1.0, 1.0): (
        "{'identity': 'theorem2', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 1.0, 'c':"
        " 1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.72123130102684, 'rhs_canonical': 0.7212313010169777, 'rhs_paper': "
        "0.9564832809502734, 'rel_diff_canonical': 1.367414605551169e-11, "
        "'rel_diff_paper': 0.2459551406792064, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 7}"
    ),
    ('theorem2', 1.0, 2.0, -1.0): (
        "{'identity': 'theorem2', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 2.0, 'c':"
        " -1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.5752294029666392, 'rhs_canonical': 0.5752294029693347, 'rhs_paper': "
        "0.5131631386363469, 'rel_diff_canonical': 4.685974791227969e-12, "
        "'rel_diff_paper': 0.1078982819901017, 'verdict': 'canonical_only', 'quad_evals':"
        " 240, 'series_terms': 5}"
    ),
    ('theorem2', 1.0, 2.0, 1.0): (
        "{'identity': 'theorem2', 'k': 1.0, 'nu': 0.5, 'gamma': 1.5, 'lambda1': 2.0, 'c':"
        " 1.0, 'b': 1.0, 'mu': 0.5, 'lam': 1.5, 'a': 0.75, 'y': 3.0, 'lhs': "
        "0.6542038086358345, 'rhs_canonical': 0.6542038086395744, 'rhs_paper': "
        "0.7238762778383591, 'rel_diff_canonical': 5.716715848123032e-12, "
        "'rel_diff_paper': 0.09624913999196195, 'verdict': 'canonical_only', "
        "'quad_evals': 240, 'series_terms': 5}"
    ),
}


@pytest.mark.parametrize("identity, k, lambda1, c", list(GRID_SLICE_RECORDS))
def test_grid_slice_records_are_pinned(identity, k, lambda1, c):
    report = verify(identity, dict(GRID_SLICE, k=k, lambda1=lambda1, c=c))
    assert repr(to_record(report)) == GRID_SLICE_RECORDS[identity, k, lambda1, c]


def _grid_slice_records():
    return [repr(to_record(verify(identity, dict(GRID_SLICE, k=k, lambda1=lambda1, c=c))))
            for identity, k, lambda1, c in GRID_SLICE_RECORDS]


def test_kernel_table_keeps_the_grid_slice_records():
    # the slice's two kernels (theorem1, theorem2) from a cold table, a warm
    # one, and one rebuilt after more kernels than the bound passed through
    tables = quadrature._kernel_table
    expected = list(GRID_SLICE_RECORDS.values())
    tables.cache_clear()
    assert _grid_slice_records() == expected
    assert tables.cache_info().misses == 2
    assert _grid_slice_records() == expected
    assert tables.cache_info().misses == 2
    flat = BesselParams(k=1, nu=0, gamma=1, lambda1=1, c=0, b=1)
    for i in range(quadrature._KERNEL_TABLES + 1):
        theorem1_lhs(flat, 0.5, 1.5, 1.0 + i, 3.0)
    assert tables.cache_info().currsize == quadrature._KERNEL_TABLES
    misses = tables.cache_info().misses
    assert _grid_slice_records() == expected
    assert tables.cache_info().misses == misses + 2


@pytest.mark.parametrize("identity", ["theorem1", "theorem2"])
@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_signed_zero_y_shares_one_kernel_table(identity, first):
    # y = -0.0 == 0.0 is one key: whichever sign builds the table, both read the same record
    point = dict(k=1, nu=0, gamma=1.5, lambda1=1, c=-1, b=1, mu=0.5, lam=1.5, a=0.75)
    quadrature._kernel_table.cache_clear()
    cold = to_record(verify(identity, dict(point, y=first)))
    warm = to_record(verify(identity, dict(point, y=-first)))
    assert quadrature._kernel_table.cache_info().misses == 1
    assert (repr(cold.pop("y")), repr(warm.pop("y"))) == (repr(first), repr(-first))
    assert cold["lhs"] > 0.0 and cold["verdict"] == "match"
    assert repr(cold) == repr(warm)


@pytest.mark.parametrize("which, rhs", [(1, theorem1_rhs_canonical), (2, theorem2_rhs_canonical)])
def test_canonical_y_zero_nu_zero(which, rhs):
    # only the n = 0 term survives: the kernel closed form over Gamma_k(s0),
    # with exponent pair (mu, lam) for both identities at nu = 0
    p = BesselParams(k=2, nu=0, gamma=1.5, lambda1=2, c=1, b=2)
    r = rhs(p, 0.5, 1.5, 2.0, 0.0)
    expected = oberhettinger_closed_form(ObParams(0.5, 1.5, 2.0)) / k_gamma(1.5, 2.0)
    assert (r.terms_used, r.tail_estimate, r.converged) == (1, 0.0, True)
    assert r.value == pytest.approx(expected, rel=1e-14, abs=0)


@pytest.mark.parametrize("rhs, p", [
    (theorem1_rhs_paper, GEN),
    (theorem2_rhs_paper, GEN),
    (corollary1_rhs, UNIT),
    (corollary3_rhs, UNIT),
])
def test_packaged_y_zero_nu_positive(rhs, p):
    # every term carries (y/2)^(nu+2n) with nu > 0
    assert rhs(p, 0.5, 1.5, 2.0, 0.0) == SeriesResult(0.0, 1, 0.0, True)


@pytest.mark.parametrize("nu", [0.3, 1.7])
@pytest.mark.parametrize("z", [0.1, 1.0, 5.0, 10.0, 20.0, 50.0, 100.0])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_classical_bessel_series_matches_mpmath(nu, z, sign):
    # a non-dyadic nu makes every divisor n + 1 + nu a rounded double in a
    # double-double sum; the exact rational sum is off only by its prefactor and final rounding
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ref = (mpmath.besselj if sign < 0 else mpmath.besseli)(mpmath.mpf(nu), mpmath.mpf(z))
        got = identities._classical_bessel_series(sign, nu, z)
        assert got.converged
        assert abs((got.value - ref) / ref) <= 1e-15


@pytest.mark.parametrize("nu, z, side", [(1.0, 300.0, "generalized"), (0.0, 282.0, "classical")])
def test_classical_reduction_check_raises_on_unconverged_side(nu, z, side):
    # two sums cut at their term caps would be compared whatever their tails;
    # at z = 300 the generalized side used to return a gap of 1.704 after 400 terms
    with pytest.raises(NonConvergenceError, match=rf"^{side} side .* not converge \(terms=400, tail="):
        classical_reduction_check("bessel_J", nu, z)


def test_verify_reports_an_unconverged_classical_check():
    r = verify("corollary2", dict(nu=0, mu=1, lam=2, a=0.5, y=141), quad_budget=240)
    assert r.diagnostics == ("did not converge: quadrature; classical J reduction failed: classical side "
                             "of the reduction check did not converge (terms=400, tail=inf)")


@pytest.mark.xfail(strict=True, reason="eval_gmk_bessel divides by the rounded double n + nu + 1 "
                   "and is 7.8e-10 off at nu = 1.7, z = 20; ROADMAP item 2 makes its inputs exact")
def test_classical_reduction_sees_evaluator_rounding_at_non_dyadic_nu():
    assert classical_reduction_check("bessel_J", 1.7, 20.0) <= 1e-12


@pytest.mark.xfail(strict=True, reason="at subnormal y the left side's own arithmetic underflows: "
                   "theorem2 gives lhs 0.0 against rhs_canonical 9.587e-163, theorem1 1.688e-162 "
                   "against 2.505e-162; at y = 1e-310 theorem2 matches, so no precondition on y fits")
@pytest.mark.parametrize("identity", ["theorem1", "theorem2"])
def test_subnormal_y_reads_no_mismatch(identity):
    params = dict(k=2, nu=0.5, gamma=1.5, lambda1=2, c=1, b=1, mu=0.5, lam=1.5, a=0.75, y=1e-323)
    assert verify(identity, params).verdict != "mismatch"


@pytest.mark.xfail(strict=True, reason="rel_diff floors its denominator at 1e-300, so this point reads "
                   "match with rel_diff_canonical 3.5e-23 although lhs 3.4e-322 and rhs_canonical "
                   "3.75e-322 differ by 9.2%; ROADMAP item 7's underflow stop mends it")
def test_subnormal_answer_reports_its_true_relative_gap():
    r = verify("theorem2", dict(UNIT_PARAMS, lambda1=0.5, y=1e-320))
    gap = abs(r.lhs - r.rhs_canonical) / max(abs(r.lhs), abs(r.rhs_canonical))
    assert r.rel_diff_canonical == pytest.approx(gap, rel=1e-6)


# ROADMAP item 9's census of how far verify answers: both theorems where the
# series is the classical J_nu (k = gamma = lambda1 = b = 1, c = -1), for
# each (nu, mu, lam, a), out along y/a (theorem1) or y (theorem2).
CENSUS_KERNELS = {0.5: (0.5, 1.5, 0.5), 0.0: (0.5, 1.5, 1.0), 1.0: (1.0, 2.0, 1.0)}
CENSUS_REACH = (4, 8, 12, 16, 20, 24, 32, 40)
# The left side at each reach, from mpmath at 120 digits as the term-wise sum
# of Oberhettinger closed forms; mpmath.quad of the integrand with
# mpmath.besselj at 45 digits agrees with every value to 2.2e-25.
CENSUS_REFERENCES = {
    ("theorem1", 0.5): (
        0.5787852117219931283, 0.2024051962748256763, 0.0770122633129711348,
        0.1248859264333595868, 0.0621903314214625083, 0.0520139901079142830,
        0.0344871566366015880, 0.0417459360792061736,
    ),
    ("theorem1", 0.0): (
        0.1694741969926281562, 0.1277550311477502498, 0.0324488405859411611,
        0.0526468566448314279, 0.0397822498501865800, 0.0204624419928171681,
        0.0208275027445796132, 0.0221291624847839852,
    ),
    ("theorem1", 1.0): (
        0.1291277080014718210, 0.0588338070804075839, 0.0432183826700738028,
        0.0308968860325730305, 0.0248329171895603748, 0.0211007605298318076,
        0.0156509658481210012, 0.0124212260512265093,
    ),
    ("theorem2", 0.5): (
        0.8829399495247346944, 0.7649366405700845836, 0.5738339584040938466,
        0.5374983121168807776, 0.5056937062210216140, 0.4423965333898552069,
        0.4074912321045832981, 0.3579986127143608262,
    ),
    ("theorem2", 0.0): (
        0.9157296314298771432, 0.6600119816742946551, 0.5273503188623136980,
        0.4869700926282523771, 0.4355857604703540908, 0.3909245744986898792,
        0.3501806618380400926, 0.3139929266231421957,
    ),
    ("theorem2", 1.0): (
        0.1187961627614515076, 0.1166503110619558988, 0.0602931613294156208,
        0.0451929218606723779, 0.0477813709208885835, 0.0345782859588015755,
        0.0298450458524438668, 0.0199714884091477358,
    ),
}
# (verdict, last reach that reads it); every farther point is inconclusive
# with "did not converge: quadrature".  A change that widens the reach moves
# these pins.
CENSUS_ANSWERS = {
    ("theorem1", 0.5): ("match", 12),
    ("theorem1", 0.0): ("match", 12),
    ("theorem1", 1.0): ("match", 16),
    ("theorem2", 0.5): ("canonical_only", 32),
    ("theorem2", 0.0): ("canonical_only", 32),
    ("theorem2", 1.0): ("canonical_only", 32),
}


@pytest.mark.parametrize("identity, nu, reach, ref", [
    (identity, nu, reach, ref)
    for (identity, nu), refs in CENSUS_REFERENCES.items() for reach, ref in zip(CENSUS_REACH, refs)
])
def test_census_answers_only_right_values(identity, nu, reach, ref):
    mu, lam, a = CENSUS_KERNELS[nu]
    y = reach * a if identity == "theorem1" else float(reach)
    r = verify(identity, dict(k=1, nu=nu, gamma=1, lambda1=1, c=-1, b=1, mu=mu, lam=lam, a=a, y=y))
    assert r.verdict != "mismatch"
    answer, last = CENSUS_ANSWERS[identity, nu]
    if reach > last:
        assert (r.verdict, r.diagnostics) == ("inconclusive", "did not converge: quadrature")
        return
    assert r.verdict == answer
    for value in (r.lhs, r.rhs_canonical):
        assert abs(value - ref) <= r.tolerances["match"] * abs(ref)


# ROADMAP item 14's census: seeded points over the paper's parameter space away
# from item 9's J_nu line, both theorems, c of both signs, whole and non-whole
# lambda1/k, y/a log-uniform out to 30, 60 or 120.  A quarter of the points take
# k = gamma = 1, where the packaged rows are right, so `match` is judged as well
# as `canonical_only`.  Every draw is rounded to 6 decimals, so a platform's
# last-bit exp or log cannot move a point.
def _random_census_points(n=100):
    rng = random.Random(14)

    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    points = []
    for i in range(n):
        unit = rng.random() < 0.25
        k = 1.0 if unit else draw(0.5, 2.0)
        lambda1 = rng.choice((1, 2)) * k if rng.random() < 0.5 else draw(0.3 * k, 2.5 * k)
        a, mu = draw(0.3, 3.0), draw(0.3, 1.5)
        reach = rng.choice((30, 60, 120))
        y = round(a * math.exp(rng.uniform(math.log(0.1), math.log(reach))), 6)
        p = dict(k=k, nu=draw(0.0, 2.0), gamma=1.0 if unit else draw(0.5, 2.0), lambda1=lambda1,
                 c=rng.choice((-1, 1)) * draw(0.5, 1.5), b=draw(0.5, 2.0),
                 mu=mu, lam=round(mu + rng.uniform(0.2, 2.0), 6), a=a, y=y)
        points.append((("theorem1", "theorem2")[i % 2], p))
    return points


# (verdict, canonical reference, packaged reference) of each point in turn.  The
# references are bench/oracle.py's sums of both right sides in mpmath, with the
# digits raised by log10(max term / |S|) until they cover the cancellation the
# sum shows (up to 113 digits here); a rerun at twice the digits agrees with
# every one to 1e-48.  Later changes may turn an inconclusive pin into a right
# answer, never a right answer into a wrong one (5 inconclusive at this pin).
RANDOM_CENSUS = [
    ("match", 0.26352022244830886, 0.26352022244830886),
    ("canonical_only", 5.443369823623659, 25.835580177605554),
    ("canonical_only", -0.17615165195877575, -0.9727358442466036),
    ("canonical_only", 0.4925343373659688, -0.09078320179481332),
    ("canonical_only", 0.1536898849804261, 0.04370975001937156),
    ("canonical_only", 0.02832996984014924, 0.03105282222091892),
    ("match", 0.22838795249450627, 0.22838795249450627),
    ("canonical_only", 533276146.94621795, 2.4879567686307504e+22),
    ("canonical_only", 0.29037278774552877, 0.036524731237836776),
    ("canonical_only", 86.3785639616207, 723983.737643345),
    ("match", 0.0011275180347894893, 0.0011275180347894893),
    ("canonical_only", 0.017427214709850578, 0.009244149334317556),
    ("canonical_only", 0.29295549315667824, 0.06581217692594057),
    ("canonical_only", 0.0012539294596463058, 0.0014500580168949945),
    ("canonical_only", 0.21359475336265596, 0.05033764217864195),
    ("canonical_only", 0.001108213302133229, 0.0011764867226806322),
    ("canonical_only", 0.1453329147881989, 0.005510118328826638),
    ("canonical_only", 0.026384901278117642, 0.01554395660820115),
    ("canonical_only", 0.1033769400651535, 0.08202490293861278),
    ("canonical_only", 0.014094954368132353, 0.011609540859036325),
    ("match", 0.15348882411919623, 0.15348882411919623),
    ("canonical_only", 0.3014228918663767, 0.3085755855439296),
    ("canonical_only", -0.002021242791653726, 0.012665003951976823),
    ("canonical_only", 0.006409271816623197, 0.008925883132333307),
    ("canonical_only", 3.662834046690501, 4.900130261924337),
    ("canonical_only", 0.046794414144106344, 0.04734132208012471),
    ("canonical_only", 1.3377500617986368e+16, 77983201899700.39),
    ("canonical_only", 0.008223286085392576, 0.007864187074290091),
    ("canonical_only", 0.019395264057902303, 0.024701441133046984),
    ("canonical_only", 0.004360558470392213, 0.0053175491540108245),
    ("match", 0.04647144528495595, 0.04647144528495595),
    ("canonical_only", -0.10781496672077485, -0.8171717217876069),
    ("canonical_only", 1.6092763046449012, 6.030388247381176),
    ("canonical_only", 29.037531801430486, 90.69675811565772),
    ("canonical_only", 0.4249392651050015, 0.09388994065220749),
    ("canonical_only", 8385752.321866177, 2.831475665869696e+17),
    ("canonical_only", 22.859664982879966, 2235.55881005738),
    ("canonical_only", 0.014373001062845153, 0.01570057262468105),
    ("canonical_only", 2.822001721181011, 1.291436594114948),
    ("canonical_only", 0.05335092577463122, 0.05470601326782425),
    ("canonical_only", 0.11908370446641578, 1.5104391864648707),
    ("canonical_only", 0.34626314986497814, 0.49323649319738505),
    ("canonical_only", 0.04145863702847501, 0.006874327297219607),
    ("canonical_only", 0.043557213964518025, 0.0667888504564142),
    ("match", 1160026697491.0254, 1160026697491.0254),
    ("canonical_only", 1.1591125347669111, 14.224653975985003),
    ("canonical_only", 0.001447121198436724, 0.0006295312344202203),
    ("canonical_only", 7.015657694891567e-05, 0.00011306212753534957),
    ("match", 0.8517926249790396, 0.8517926249790396),
    ("canonical_only", 0.029631121351590236, 0.036950883223300965),
    ("canonical_only", 0.02331443330519278, 0.03468021559947668),
    ("canonical_only", 0.005280995371693266, 0.005084955240269702),
    ("canonical_only", 0.0024872142341655344, -1.6114105948918709),
    ("canonical_only", 0.3010295911521773, 0.4740136859234778),
    ("canonical_only", 1.7409743576034786, 0.5681158457111376),
    ("canonical_only", 0.05727941321666698, 0.10433955189554141),
    ("match", -0.9167308856663481, -0.9167308856663481),
    ("canonical_only", 0.00028689563593981297, 0.0002747638621243029),
    ("inconclusive", 0.151442016909532, 15.315668643393137),
    ("canonical_only", 0.002343214894366288, 0.0028286015070465497),
    ("canonical_only", 0.00013460172217874512, 2.4848464946041733e-05),
    ("inconclusive", 0.0007877437417567247, 0.0007064638173153477),
    ("match", 0.0021086576789179842, 0.0021086576789179842),
    ("canonical_only", 0.11009372816752976, 0.24486929738452062),
    ("canonical_only", 0.0003123755481412863, 8.934711736493121e-06),
    ("canonical_only", 0.035507188875302076, 0.07937095831680303),
    ("match", 36.60333647068261, 36.60333647068261),
    ("canonical_only", 0.08640058065768683, 0.03893885292175534),
    ("canonical_only", 0.01312393339346404, 0.001534884666320693),
    ("inconclusive", 0.00497611480671812, 0.0013339431260900733),
    ("match", 0.10428537704863658, 0.10428537704863658),
    ("canonical_only", 0.18184620005348173, 0.17574634786731227),
    ("canonical_only", 0.000567596894147436, 0.04886444166942773),
    ("canonical_only", 5.087547112848949, 68.48908530343658),
    ("match", 0.23336839844870566, 0.23336839844870566),
    ("inconclusive", 0.4941680645428858, 26.293031156682257),
    ("canonical_only", 0.026523263683013932, 0.06159466126840643),
    ("canonical_only", 0.0003095999929300553, 0.00030055549694289703),
    ("canonical_only", 85035.80504887961, 872.3451182387075),
    ("canonical_only", 13.280345019605049, 34.026556039422886),
    ("match", 0.017675122018635143, 0.017675122018635143),
    ("canonical_only", 0.0028432837111278643, 0.0026763278891600607),
    ("inconclusive", -0.0015217049372515383, 8.663278943440137e-07),
    ("canonical_only", -0.6577524712804285, -4.033478752232749),
    ("match", 0.006928755131980286, 0.006928755131980286),
    ("canonical_only", 0.00018728407392127176, 0.00026206946939828383),
    ("match", 0.004933123520268446, 0.004933123520268446),
    ("canonical_only", 0.09724680685235203, 0.11259610985060178),
    ("canonical_only", 0.0417998070535571, 0.9113355169311138),
    ("canonical_only", 0.0005520858662512877, 0.0005288141297266058),
    ("canonical_only", 1130079978955.9985, 865729181611.3997),
    ("canonical_only", 0.39449998016242277, 1.2711287403689875),
    ("canonical_only", 0.78975839042049, 1.306022256174721),
    ("canonical_only", 0.1395259635873097, -0.3627695535322006),
    ("match", 0.06494359279355943, 0.06494359279355943),
    ("canonical_only", 0.0009520844798269092, 0.0009231985584897155),
    ("match", 18.181177201070273, 18.181177201070273),
    ("canonical_only", 20.448594583486138, 342.4523038253428),
    ("canonical_only", 0.0072530053275846615, 0.05385116863891788),
    ("canonical_only", 0.03609954023922456, 0.034198889139247325),
]


@pytest.mark.parametrize("identity, params, verdict, canonical, packaged", [
    (identity, params, *pin) for (identity, params), pin in zip(_random_census_points(), RANDOM_CENSUS)
], ids=[f"{i}-{pin[0]}" for i, pin in enumerate(RANDOM_CENSUS)])
def test_random_census_reads_no_wrong_verdict(identity, params, verdict, canonical, packaged):
    r = verify(identity, params, quad_budget=6000)
    tol = r.tolerances["match"]

    def near(value, ref):
        return abs(value - ref) <= tol * abs(ref)

    assert r.verdict != "mismatch"  # each identity is a theorem
    if r.verdict in ("match", "canonical_only"):
        assert near(r.lhs, canonical) and near(r.rhs_canonical, canonical)
    if r.verdict == "match":
        assert near(r.rhs_paper, packaged)
    if r.verdict == "canonical_only":
        assert not near(packaged, canonical)
    assert r.verdict == verdict


@pytest.mark.parametrize("kind", ["bessel_J", "bessel_I"])
def test_classical_reduction_check_both_zero(kind):
    # at z = 0 and nu > 0 both routes are exactly 0; the gap is 0, not 0/0
    assert classical_reduction_check(kind, 1.5, 0.0) == 0.0


def test_bessel_overflow_raises():
    # I_0(1000) ~ 1e432 leaves double range; this used to return nan
    with pytest.raises(OverflowError, match="math range error"):
        classical_reduction_check("bessel_I", 0.0, 1e3)
    r = verify("theorem1", dict(UNIT_PARAMS, c=1, y=2000))
    assert (r.verdict, r.diagnostics) == ("inconclusive", "evaluation failed: math range error")


def test_verify_mismatch_verdict(monkeypatch):
    # no route's error estimate is within tol_match = 1e-15 of its value
    loose = verify("theorem1", UNIT_PARAMS, tol_match=1e-15)
    assert (loose.verdict, loose.diagnostics) == (
        "inconclusive", "did not converge: quadrature, canonical series, packaged series")
    # a closed form 1% off is a genuine mismatch
    monkeypatch.setattr(
        identities, "oberhettinger_closed_form", lambda p: 1.01 * oberhettinger_closed_form(p))
    r = verify("oberhettinger", {"mu": 1, "lam": 2, "a": 1})
    assert r.verdict == "mismatch"
    assert r.diagnostics == ""
    assert r.rel_diff_canonical == pytest.approx(0.01 / 1.01, rel=1e-6)
    assert to_record(r)["verdict"] == "mismatch"


def test_verify_series_tail_above_tol_match_is_inconclusive():
    # the README unit point agrees to 6e-12, but at tol_series = 1e-10 the
    # canonical tail (1.5e-13) exceeds tol_match |rhs| (6e-14): no verdict
    r = verify("theorem1", UNIT_PARAMS, tol_quad=1e-12, tol_match=1e-12)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == "did not converge: canonical series, packaged series"
    # tight series tolerances bring the tails under it, and the routes agree
    r = verify("theorem1", UNIT_PARAMS, tol_quad=1e-12, tol_match=1e-12, tol_series=1e-14)
    assert r.verdict == "match"
    assert r.rel_diff_canonical < 1e-12


@pytest.mark.parametrize("setting, value, message", [
    # tol_series = inf used to read mismatch at a point that matches at the default
    ("tol_series", math.inf, "tolerance must be finite, got inf"),
    # max_terms = nan used to raise a bare ValueError out of verify
    ("max_terms", math.nan, "max_terms must be a whole number >= 1, got nan"),
    ("max_terms", 2.7, "max_terms must be a whole number >= 1, got 2.7"),
    ("tol_quad", math.inf, "tolerance must be finite, got inf"),
    # quad_budget = 0 used to read match with quad_evals = 240
    ("quad_budget", 0, "budget must be a whole number >= 240, got 0"),
])
def test_verify_bad_setting_inconclusive(setting, value, message):
    r = verify("theorem1", dict(UNIT_PARAMS, y=3), **{setting: value})
    assert r.verdict == "inconclusive"
    assert r.diagnostics == f"evaluation failed: {message}"
    assert r.quad_evals == 0


@pytest.mark.parametrize("settings, message", [
    # each of these used to read match: the closed form sums no series
    ({"tol_series": math.inf, "max_terms": -3}, "tolerance must be finite, got inf"),
    ({"max_terms": -3}, "max_terms must be a whole number >= 1, got -3"),
    ({"tol_series": True}, "tolerance must be positive, got True"),
])
def test_verify_kernel_bad_series_setting_inconclusive(settings, message):
    r = verify("oberhettinger", {"mu": 1, "lam": 2, "a": 1}, **settings)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == f"evaluation failed: {message}"
    assert r.quad_evals == 0


def test_verify_kernel_bad_budget_inconclusive():
    r = verify("oberhettinger", {"mu": 1, "lam": 2, "a": 1}, quad_budget=0)
    assert r.verdict == "inconclusive"
    assert r.diagnostics == "evaluation failed: budget must be a whole number >= 240, got 0"


@pytest.mark.parametrize("rhs", [theorem1_rhs_canonical, theorem1_rhs_paper, theorem2_rhs_canonical,
                                 theorem2_rhs_paper])
@pytest.mark.parametrize("y", [0.0, 1.0])
def test_right_sides_check_settings_at_every_y(rhs, y):
    # the y = 0 shortcuts used to return before the settings were looked at
    with pytest.raises(DomainError, match="tolerance must be finite"):
        rhs(UNIT, 0.5, 2.0, 1.0, y, tol=math.inf)
    with pytest.raises(DomainError, match="max_terms must be a whole number"):
        rhs(UNIT, 0.5, 2.0, 1.0, y, max_terms=0)
