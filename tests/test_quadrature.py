import math

import pytest
from hypothesis import given, settings, strategies as st

from kspecfun import quadrature
from kspecfun.errors import DomainError
from kspecfun.kbessel import BesselParams
from kspecfun.kgamma import k_gamma
from kspecfun.quadrature import (
    ObParams,
    integrate_semi_infinite,
    oberhettinger_closed_form,
    oberhettinger_lhs,
    phi,
    theorem1_lhs,
    theorem2_lhs,
)

UNIT = BesselParams(k=1, nu=1, gamma=1, lambda1=1, c=-1, b=1)


def test_exponential_integral():
    q = integrate_semi_infinite(lambda x: math.exp(-x), tol=1e-10)
    assert q.converged
    assert q.value == pytest.approx(1.0, abs=1e-10)


def test_endpoint_singularity():
    # int_0^inf x^(-1/2) e^(-x) dx = Gamma(1/2)
    q = integrate_semi_infinite(lambda x: math.exp(-x) / math.sqrt(x), tol=1e-10)
    assert q.converged
    assert q.value == pytest.approx(1.7724538509055160273, rel=1e-10)


def test_rational_decay():
    q = integrate_semi_infinite(lambda x: (1.0 + x) ** -3, tol=1e-10)
    assert q.value == pytest.approx(0.5, rel=1e-10)


def test_gamma_consistency():
    for s in (0.5, 1.0, 2.5, 5.0):
        q = integrate_semi_infinite(
            lambda x, s=s: math.exp(-x + (s - 1.0) * math.log(x)), tol=1e-11
        )
        assert q.converged
        assert q.value == pytest.approx(math.gamma(s), rel=1e-9)


def test_budget_exhaustion():
    # hundreds of oscillations at a tolerance the budget cannot reach
    q = integrate_semi_infinite(
        lambda x: math.sin(50.0 * x) * math.exp(-x), tol=1e-15, budget=500
    )
    assert not q.converged


def test_quad_result_contract():
    q = integrate_semi_infinite(lambda x: math.exp(-x), tol=1e-9)
    assert q.converged
    assert q.abs_err_estimate <= 1e-9
    assert q.evaluations > 0


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_cancelling_integral_stops_at_the_rounding_floor(scale):
    # int_0^inf (1+x)^-2 - 2 (1+x)^-3 dx = 0 with int |f| = 1/2; at 1e12 no
    # absolute tolerance is reachable, and a relative one alone never is
    q = integrate_semi_infinite(lambda x: scale * ((1.0 + x) ** -2 - 2.0 * (1.0 + x) ** -3))
    assert q.converged
    assert q.evaluations <= 600
    assert abs(q.value) <= 1e-14 * scale
    assert q.abs_err_estimate <= 50.0 * 2.0**-52 * 0.5 * scale


def test_relative_tolerance_is_scale_free():
    # the same integrand at any scale takes the same panels
    scales = (1e-30, 1.0, 1e30)
    runs = [integrate_semi_infinite(lambda x: s * math.exp(-x) / math.sqrt(x)) for s in scales]
    assert len({q.evaluations for q in runs}) == 1
    assert all(q.converged for q in runs)


def test_phi_values():
    assert phi(0.0, 1.0) == pytest.approx(1.0, abs=0.0)
    assert phi(3.0, 1.0) == pytest.approx(3.0 + 1.0 + math.sqrt(15.0), rel=1e-15)
    # asymptotic slope 2
    x = 1e8
    assert phi(x, 1.0) == pytest.approx(2.0 * x, rel=1e-6)


def test_phi_monotone_and_bounded_below():
    for a in (0.5, 1.0, 3.0):
        prev = phi(0.0, a)
        assert prev == a
        for i in range(1, 40):
            x = 0.3 * i
            cur = phi(x, a)
            assert cur > prev
            assert cur >= a
            prev = cur


@pytest.mark.parametrize("x, a", [
    (-1.0, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, math.nan), (True, 1.0), ("1", 1.0), (1.0, True),
])
def test_phi_rejects_bad_arguments(x, a):
    # phi(nan, a) used to return nan, phi(True, 1.0) 3.732 and phi("1", 1.0) a TypeError
    with pytest.raises(DomainError) as err:
        phi(x, a)
    assert str(err.value) == f"phi needs x >= 0 and a > 0, got x={x!r} a={a!r}"


def test_ob_params_validation():
    with pytest.raises(DomainError):
        ObParams(2.0, 2.0, 1.0)  # mu < lam violated at equality
    with pytest.raises(DomainError):
        ObParams(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ObParams(1.0, 2.0, 0.0)
    # "1" used to raise TypeError and True to be taken as mu = 1
    for mu in ("1", True):
        with pytest.raises(DomainError) as err:
            ObParams(mu, 2.0, 1.0)
        assert str(err.value) == f"parameters must be finite reals, got ({mu!r}, 2.0, 1.0)"


def test_oberhettinger_worked_values():
    assert oberhettinger_closed_form(ObParams(1.0, 2.0, 1.0)) == pytest.approx(
        1.0 / 3.0, rel=1e-14
    )
    # 6 * 2^-3 * Gamma(2)Gamma(2)/Gamma(5) = 0.75/24
    assert oberhettinger_closed_form(ObParams(1.0, 3.0, 2.0)) == pytest.approx(
        0.03125, rel=1e-14
    )


def test_oberhettinger_quadrature_matches_closed_form():
    for mu, lam, a, tol in (
        (1.0, 2.0, 1.0, 1e-8),
        (0.5, 1.5, 2.0, 1e-8),
        (0.25, 0.5, 1.0, 1e-7),
    ):
        p = ObParams(mu, lam, a)
        q = oberhettinger_lhs(p, tol=1e-10)
        assert q.converged
        assert q.value == pytest.approx(oberhettinger_closed_form(p), rel=tol)


def test_theorem_lhs_y_zero():
    q = theorem1_lhs(UNIT, 1.0, 2.0, 1.0, 0.0, tol=1e-10)
    assert q.value == 0.0 and q.converged
    q = theorem2_lhs(UNIT, 0.5, 2.0, 1.0, 0.0, tol=1e-10)
    assert q.value == 0.0 and q.converged


def test_theorem1_lhs_c_zero_collapse():
    p = BesselParams(k=2, nu=0.5, gamma=1.5, lambda1=2, c=0, b=2)
    mu, lam, a, y = 0.5, 1.5, 2.0, 0.5
    q = theorem1_lhs(p, mu, lam, a, y, tol=1e-12)
    s0 = p.nu + 0.5 * (p.b + 1.0)
    base = oberhettinger_lhs(ObParams(mu, lam + p.nu, a), tol=1e-12)
    expected = (y / 2.0) ** p.nu / k_gamma(s0, p.k) * base.value
    assert q.value == pytest.approx(expected, rel=1e-9)


def test_theorem2_lhs_c_zero_collapse():
    p = BesselParams(k=2, nu=0.5, gamma=1.5, lambda1=2, c=0, b=2)
    mu, lam, a, y = 0.5, 1.5, 2.0, 0.5
    q = theorem2_lhs(p, mu, lam, a, y, tol=1e-12)
    s0 = p.nu + 0.5 * (p.b + 1.0)
    base = oberhettinger_lhs(ObParams(mu + p.nu, lam + p.nu, a), tol=1e-12)
    expected = (y / 2.0) ** p.nu / k_gamma(s0, p.k) * base.value
    assert q.value == pytest.approx(expected, rel=1e-9)


def test_theorem_lhs_positivity():
    p = BesselParams(k=1, nu=0.5, gamma=1, lambda1=1, c=1, b=1)
    assert theorem1_lhs(p, 1.0, 2.0, 1.0, 1.0, tol=1e-9).value > 0.0
    assert theorem2_lhs(p, 0.5, 2.0, 1.0, 1.0, tol=1e-9).value > 0.0


def test_theorem_preconditions():
    with pytest.raises(DomainError, match="precondition"):
        theorem1_lhs(UNIT, 5.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="precondition"):
        theorem1_lhs(UNIT, 0.0, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="precondition"):
        theorem2_lhs(UNIT, 2.0, 1.5, 1.0, 1.0)
    with pytest.raises(DomainError, match="precondition"):
        theorem2_lhs(UNIT, -2.0, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        theorem1_lhs(UNIT, 1.0, 2.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        theorem1_lhs(UNIT, 1.0, 2.0, 1.0, -1.0)
    # both used to be converted and integrated
    with pytest.raises(DomainError, match="precondition: y must be a finite real, got '1'"):
        theorem1_lhs(UNIT, 1.0, 2.0, 1.0, "1")
    with pytest.raises(DomainError, match="precondition: a must be a finite real, got True"):
        theorem2_lhs(UNIT, 0.5, 2.0, True, 1.0)
    # ahead of the integrator's own settings
    for lhs in (theorem1_lhs, theorem2_lhs):
        with pytest.raises(DomainError, match="precondition: a > 0 fails"):
            lhs(UNIT, 0.5, 1.5, -1.0, 3.0, tol=math.nan, budget=0)


@pytest.mark.parametrize("lhs, expected", [
    (theorem1_lhs, "QuadResult(value=0.014569021263106193, abs_err_estimate=7.852140836317155e-12,"
                   " evaluations=240, converged=True)"),
    (theorem2_lhs, "QuadResult(value=0.5231116578745755, abs_err_estimate=8.795000713356589e-13,"
                   " evaluations=240, converged=True)"),
], ids=["theorem1", "theorem2"])
def test_bessel_factor_once_per_distinct_argument(monkeypatch, lhs, expected):
    # Near x = 0 (first identity) and x = inf (second) the argument y/phi
    # or x y/phi stops changing in floating point, so nodes repeat it.
    # A warm kernel table would skip _phi, so every z is computed anew.
    quadrature._kernel_table.cache_clear()
    bp = BesselParams(k=1, nu=0.5, gamma=1.5, lambda1=1, c=-1, b=1)
    mu, lam, a, y = 0.5, 1.5, 0.75, 3.0
    seen, calls = [], []
    real_phi, real_eval = quadrature._phi, quadrature.eval_gmk_bessel

    def recording_phi(x, a):
        ph = real_phi(x, a)
        seen.append(y / ph if lhs is theorem1_lhs else x / ph * y)
        return ph

    def counted(p, z, *args, **kwargs):
        calls.append(z)
        return real_eval(p, z, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_phi", recording_phi)
    monkeypatch.setattr(quadrature, "eval_gmk_bessel", counted)
    q = lhs(bp, mu, lam, a, y)
    assert repr(q) == expected
    assert len(seen) == q.evaluations
    # in first-visit order of the arguments, which decides the node a
    # "series factor failed to converge at argument ..." message names
    assert calls == list(dict.fromkeys(seen))
    assert len(calls) < q.evaluations


@pytest.mark.parametrize("setting, value, message", [
    ("tol", math.inf, "tolerance must be finite, got inf"),
    ("tol", math.nan, "tolerance must be positive, got nan"),
    ("tol", True, "tolerance must be positive, got True"),
    ("budget", 0, "budget must be a whole number >= 240, got 0"),
    ("budget", -600, "budget must be a whole number >= 240, got -600"),
    ("budget", math.nan, "budget must be a whole number >= 240, got nan"),
    ("budget", 239, "budget must be a whole number >= 240, got 239"),
    ("budget", 600.5, "budget must be a whole number >= 240, got 600.5"),
    ("budget", True, "budget must be a whole number >= 240, got True"),
    ("budget", "600", "budget must be a whole number >= 240, got '600'"),
])
@pytest.mark.parametrize("integral", [integrate_semi_infinite, theorem1_lhs, theorem2_lhs],
                         ids=["integrate_semi_infinite", "theorem1_lhs", "theorem2_lhs"])
def test_integrator_rejects_bad_settings(monkeypatch, integral, setting, value, message):
    # these used to evaluate the 240 nodes of the starting panels anyway; the
    # theorem left sides make their starting values in one pass, after the check
    calls = []
    real_eval = quadrature.eval_gmk_bessel
    monkeypatch.setattr(quadrature, "eval_gmk_bessel",
                        lambda p, z, *args: calls.append(z) or real_eval(p, z, *args))
    with pytest.raises(DomainError) as err:
        if integral is integrate_semi_infinite:
            integral(lambda x: calls.append(x) or math.exp(-x), **{setting: value})
        else:
            integral(UNIT, 0.5, 1.5, 0.75, 3.0, **{setting: value})
    assert str(err.value) == message
    assert calls == []


def test_integrator_budget_of_the_starting_panels():
    q = integrate_semi_infinite(lambda x: math.exp(-x), tol=1e-10, budget=240.0)
    assert q.evaluations == 240
    assert q.value == pytest.approx(1.0, rel=1e-10)


H1_FACTOR = BesselParams(k=1.5, nu=0.5, gamma=1.5, lambda1=0.7, c=-1, b=1)


def test_h1_stops_after_its_starting_panels():
    # its Bessel factor cancels (sum |t| / |S| about 5e14 at z = 20), so the
    # integrand's own rounding noise is far above the goal and refinement
    # cannot converge; it used to spend the whole 60000-node budget
    q = theorem1_lhs(H1_FACTOR, 0.5, 1.5, 0.5, 10.0)
    assert (q.evaluations, q.converged) == (240, False)


def _mapped(f, rel):
    """The integrator's arguments ahead of tol and budget for f(x) dx/du on
    its mapped axis, with relative noise rel: values and node."""

    def values(records):
        for x, _, cu in records:
            yield f(x) * x * quadrature._DE_C * cu, rel

    return values, quadrature._u_node


def test_noise_above_the_goal_stops_after_the_starting_panels():
    # exp(-x) refines past 240 nodes at tol 1e-12 (330 evaluations) unless its noise stops it
    q = quadrature._integrate(*_mapped(lambda x: math.exp(-x), 1e-9), 1e-12, 60000, quadrature._start_nodes())
    assert (q.evaluations, q.converged) == (240, False)
    assert q.value == pytest.approx(1.0, rel=1e-9)


def test_noise_below_the_goal_changes_nothing():
    def f(x):
        return math.exp(-x)

    quiet = quadrature._integrate(*_mapped(f, 1e-14), 1e-12, 60000, quadrature._start_nodes())
    assert quiet == integrate_semi_infinite(f, tol=1e-12)
    assert quiet.evaluations > 240 and quiet.converged


# repr of each result, bit for bit as before the integrator took noise; the
# refined ones at tol 1e-13 read every Gauss-Kronrod weight
@pytest.mark.parametrize("integral, expected", [
    (lambda: integrate_semi_infinite(lambda x: math.exp(-x), tol=1e-10),
     "QuadResult(value=1.0, abs_err_estimate=1.2813903569035092e-11, evaluations=330, converged=True)"),
    (lambda: integrate_semi_infinite(lambda x: math.exp(-x) / math.sqrt(x), tol=1e-10),
     "QuadResult(value=1.7724538509055159, abs_err_estimate=2.13837495548985e-11, evaluations=300,"
     " converged=True)"),
    (lambda: integrate_semi_infinite(lambda x: math.sin(50.0 * x) * math.exp(-x), tol=1e-15, budget=500),
     "QuadResult(value=0.030346801160466837, abs_err_estimate=0.156488286726232, evaluations=480,"
     " converged=False)"),
    (lambda: integrate_semi_infinite(lambda x: 1e12 * ((1.0 + x) ** -2 - 2.0 * (1.0 + x) ** -3)),
     "QuadResult(value=-5.8860926799307156e-05, abs_err_estimate=1.1262492585793458e-06, evaluations=540,"
     " converged=True)"),
    (lambda: oberhettinger_lhs(ObParams(0.5, 1.5, 2.0), tol=1e-12),
     "QuadResult(value=0.5303300858899106, abs_err_estimate=3.842037915574024e-13, evaluations=240,"
     " converged=True)"),
    (lambda: oberhettinger_lhs(ObParams(0.5, 1.0, 0.5), tol=1e-13),
     "QuadResult(value=2.666666666666666, abs_err_estimate=2.382506243994496e-13, evaluations=300,"
     " converged=True)"),
    (lambda: oberhettinger_lhs(ObParams(1.5, 3.5, 2.0), tol=1e-13),
     "QuadResult(value=0.01031197389230382, abs_err_estimate=5.3114535804711314e-17, evaluations=420,"
     " converged=True)"),
    (lambda: integrate_semi_infinite(lambda x: math.exp(-x) / math.sqrt(x), tol=1e-13),
     "QuadResult(value=1.7724538509055159, abs_err_estimate=1.1989296041272158e-13, evaluations=390,"
     " converged=True)"),
], ids=["exp", "endpoint singularity", "budget", "cancelling", "kernel", "refined kernel mu=0.5",
        "refined kernel mu=1.5", "refined endpoint singularity"])
def test_integrands_without_noise_keep_their_bits(integral, expected):
    assert repr(integral()) == expected


@settings(deadline=None, max_examples=60)
@given(mu=st.floats(0.05, 4.0), gap=st.floats(0.05, 4.0), log_a=st.floats(-3.0, 3.0),
       log_tol=st.floats(-14.0, -8.0), budget=st.integers(240, 2000))
def test_kernel_integral_keeps_the_bits_of_its_integrand_formula(mu, gap, log_a, log_tol, budget):
    # a theorem left side whose Bessel factor is exactly 1.0 with rounding 0 (c = 0 leaves
    # (z/2)^0 / Gamma_1(1)): `_kernel_node`'s kernel log and the theorem integrand against
    # x^(mu-1) phi^(-lam) written out as a plain integrand; tol down to 1e-14 refines past
    # the starting panels
    lam, a, tol = mu + gap, 10.0**log_a, 10.0**log_tol

    def f(x):
        return math.exp((mu - 1.0) * math.log(x) - lam * math.log(quadrature._phi(x, a)))

    one = BesselParams(1, 0, 1, 1, 0, 1)
    assert repr(theorem1_lhs(one, mu, lam, a, 0.0, tol, budget)) == repr(integrate_semi_infinite(f, tol, budget))
