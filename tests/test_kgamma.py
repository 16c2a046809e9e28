import math

import pytest
from hypothesis import given, settings, strategies as st

from kspecfun.errors import DomainError
from kspecfun.kgamma import (
    KScale,
    classical_gamma,
    k_gamma,
    k_gamma_oracle,
    k_pochhammer,
    log_classical_gamma,
    log_k_gamma,
    log_k_pochhammer,
)


def test_gamma_half():
    # Gamma(1/2) = sqrt(pi)
    assert classical_gamma(0.5) == pytest.approx(1.7724538509055160273, rel=1e-15)
    assert k_gamma(0.5, 1.0) == pytest.approx(1.7724538509055160273, rel=1e-15)


def test_k_gamma_at_k_is_one():
    for k in (0.25, 0.5, 1.0, 2.0, 5.0):
        assert k_gamma(k, k) == pytest.approx(1.0, abs=1e-13)


def test_k_gamma_examples():
    # Gamma_2(4) = 2^(4/2-1) Gamma(2) = 2
    assert k_gamma(4.0, 2.0) == pytest.approx(2.0, rel=1e-14)
    # 60-digit reference for log Gamma_3(10)
    assert log_k_gamma(10.0, 3.0) == pytest.approx(3.5852169646575645322, rel=1e-14)


def test_k_gamma_scaling_relation():
    # Gamma_k(kx) = k^(x-1) Gamma(x)
    for k in (0.5, 2.0, 3.0):
        for x in (0.7, 1.0, 2.5, 6.0):
            lhs = k_gamma(k * x, k)
            rhs = k**(x - 1.0) * classical_gamma(x)
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_recurrence_grid():
    # Gamma_k(z + k) = z Gamma_k(z)
    for k in (0.5, 1.0, 2.0, 3.0):
        for i in range(60):
            z = 0.1 + i * (50.0 - 0.1) / 59.0
            assert k_gamma(z + k, k) == pytest.approx(z * k_gamma(z, k), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_recurrence_property(z, k):
    assert k_gamma(z + k, k) == pytest.approx(z * k_gamma(z, k), rel=1e-12)


def test_log_matches_direct():
    for k in (0.5, 1.0, 2.0):
        for z in (0.2, 1.0, 3.7, 20.0, 80.0):
            assert math.exp(log_k_gamma(z, k)) == pytest.approx(k_gamma(z, k), rel=1e-12)


def test_log_classical_gamma():
    for z in (0.5, 1.0, 4.5, 30.0):
        assert log_classical_gamma(z) == pytest.approx(math.lgamma(z), rel=1e-15)


def test_pochhammer_small_products():
    # (2)_{3,2} = 2 * 4 * 6
    assert k_pochhammer(2.0, 3, 2.0) == 48.0
    assert k_pochhammer(5.0, 0, 1.0) == 1.0
    assert k_pochhammer(1.0, 4, 1.0) == pytest.approx(math.factorial(4), rel=1e-15)


def test_pochhammer_nonpositive_start():
    # exact zero once the product crosses zero
    assert k_pochhammer(0.0, 3, 1.0) == 0.0
    assert k_pochhammer(-2.0, 4, 1.0) == 0.0
    assert k_pochhammer(-2.0, 2, 1.0) == pytest.approx(2.0, rel=1e-15)
    # a factor past the zero overflows; 0 * inf used to give nan, then an OverflowError
    assert k_pochhammer(0.0, 3, 1e308) == 0.0
    assert k_pochhammer(-1e308, 3, 1e308) == 0.0


@pytest.mark.parametrize("call", [
    lambda: k_gamma(340.0, 2.0),  # the product of two finite factors overflows
    lambda: k_gamma(170000.0, 1000.0),  # k**(z/k - 1) overflows
    lambda: k_pochhammer(1e300, 2),
    lambda: k_pochhammer(-1e300, 3),
    lambda: k_pochhammer(1.5, 10**6),  # the Gamma_k-ratio branch
], ids=["k_gamma-product", "k_gamma-power", "k_pochhammer-positive", "k_pochhammer-negative",
        "k_pochhammer-ratio"])
def test_overflow_raises(call):
    # the first, third and fourth used to return inf or -inf
    with pytest.raises(OverflowError, match="^math range error$"):
        call()


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=10.0),
    st.integers(min_value=0, max_value=30),
    st.sampled_from([1.0, 2.0]),
)
def test_pochhammer_gamma_bridge(x, n, k):
    # (x)_{n,k} = Gamma_k(x + n k) / Gamma_k(x)
    lhs = k_pochhammer(x, n, k)
    rhs = math.exp(log_k_gamma(x + n * k, k) - log_k_gamma(x, k))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_log_pochhammer_matches_product():
    assert log_k_pochhammer(2.0, 0) == 0.0  # the empty product
    for x, n, k in ((0.5, 5, 1.0), (2.0, 12, 2.0), (1.5, 80, 0.5)):
        assert math.exp(log_k_pochhammer(x, n, k)) == pytest.approx(
            k_pochhammer(x, n, k), rel=1e-11
        )
    with pytest.raises(DomainError) as err:
        log_k_pochhammer(-1.0, 2)
    assert str(err.value) == "log pochhammer requires x > 0, got -1.0"


def test_integral_oracle_grid():
    for z in (0.5, 1.0, 2.0, 5.0):
        for k in (1.0, 2.0, 3.0):
            q = k_gamma_oracle(z, k, tol=1e-10)
            assert q.converged
            assert q.value == pytest.approx(k_gamma(z, k), rel=1e-8)


def test_domain_errors():
    with pytest.raises(DomainError):
        classical_gamma(0.0)
    with pytest.raises(DomainError):
        classical_gamma(-1.0)
    with pytest.raises(DomainError):
        k_gamma(1.0, 0.0)
    with pytest.raises(DomainError):
        k_gamma(1.0, -2.0)
    with pytest.raises(DomainError):
        log_k_gamma(-0.5, 1.0)
    with pytest.raises(DomainError):
        k_gamma_oracle(0.0, 1.0)


@pytest.mark.parametrize("fn, name", [
    (classical_gamma, "gamma"),
    (log_classical_gamma, "log-gamma"),
    (k_gamma, "k-gamma"),
    (log_k_gamma, "log k-gamma"),
    (k_gamma_oracle, "k-gamma oracle"),
])
@pytest.mark.parametrize("z", [True, "2"])
def test_gamma_argument_follows_the_positive_rule(fn, name, z):
    # both used to be converted: k_gamma(True, 1.0) and k_gamma("2", 1.0) were 1.0
    with pytest.raises(DomainError) as err:
        fn(z)
    assert str(err.value) == f"{name} requires z > 0, got {z!r}"


def test_kscale_type():
    s = KScale(2.0)
    assert k_gamma(4.0, s) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(DomainError):
        KScale(0.0)
    with pytest.raises(DomainError):
        KScale(math.inf)
    # a bool or a string used to be taken as a number: k_gamma(2.0, True) was 1.0
    for call, k in ((KScale, True), (lambda k: k_gamma(2.0, k), True), (lambda k: k_gamma(2.0, k), "2"),
                    (lambda k: k_pochhammer(1.0, 3, k), True)):
        with pytest.raises(DomainError) as err:
            call(k)
        assert str(err.value) == f"scale parameter must be positive and finite, got {k!r}"


@pytest.mark.parametrize("fn", [k_pochhammer, log_k_pochhammer])
@pytest.mark.parametrize("x, n, message", [
    (1.0, 2.7, "pochhammer order must be an integer >= 0, got 2.7"),
    (1.0, 3.0, "pochhammer order must be an integer >= 0, got 3.0"),
    (1.0, True, "pochhammer order must be an integer >= 0, got True"),
    (1.0, "2", "pochhammer order must be an integer >= 0, got '2'"),
    (1.0, -1, "pochhammer order must be an integer >= 0, got -1"),
    (math.nan, 3, "pochhammer start must be finite, got nan"),
    (math.inf, 2, "pochhammer start must be finite, got inf"),
    (math.inf, 0, "pochhammer start must be finite, got inf"),
    (True, 3, "pochhammer start must be finite, got True"),
    ("2", 3, "pochhammer start must be finite, got '2'"),
])
def test_pochhammer_rejects_bad_arguments(fn, x, n, message):
    # k_pochhammer(1, 2.7) used to return (1)_2 = 2 and k_pochhammer(nan, 3) nan
    with pytest.raises(DomainError) as err:
        fn(x, n, 1.0)
    assert str(err.value) == message
