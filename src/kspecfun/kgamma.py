"""k-deformed Gamma machinery.

The family is the one-parameter deformation

    Gamma_k(z) = k**(z/k - 1) * Gamma(z/k),    k > 0, z > 0,

with the step-k recurrence Gamma_k(z + k) = z * Gamma_k(z), normalization
Gamma_k(k) = 1, and the step-k rising product

    (x)_{n,k} = x (x + k) (x + 2k) ... (x + (n-1)k).

An integral-based oracle (direct quadrature of int_0^inf exp(-t^k/k) t^(z-1) dt)
is kept alongside for cross-validation; production evaluation always goes
through the classical-Gamma reduction above.  `wright.wright_terms_logsig` and
`kbessel._LogTable` write `log_k_gamma`'s formula out, ln k taken once; the tests
`test_wright_terms_match_a_log_k_gamma_call_per_row` and
`test_log_rows_match_a_log_k_gamma_call_per_row` compare each with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .summation import is_positive, is_real

__all__ = [
    "KScale",
    "classical_gamma",
    "log_classical_gamma",
    "k_gamma",
    "log_k_gamma",
    "k_pochhammer",
    "log_k_pochhammer",
    "k_gamma_oracle",
]


@dataclass(frozen=True)
class KScale:
    """Positive, finite scale parameter of the deformed Gamma family."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _kval(self.k))


def _kval(k: KScale | float) -> float:
    """The scale as a float: a KScale's k, checked when made, or k under the positive rule."""
    if isinstance(k, KScale):
        return k.k
    if not is_positive(k):
        raise DomainError(f"scale parameter must be positive and finite, got {k!r}")
    return k if type(k) is float else float(k)


def _gamma_arg(z, name: str) -> float:
    """z as a float under the positive rule, else `<name> requires z > 0`.  Run once per
    series term, k_gamma and log_k_gamma call it only for z not a finite float > 0."""
    if not is_positive(z):
        raise DomainError(f"{name} requires z > 0, got {z!r}")
    return float(z)


def classical_gamma(z: float) -> float:
    """Gamma(z) for real z > 0.

    Delegates to the platform Gamma (correct to a few ulp on (0, 170]);
    arguments past the double-precision range raise OverflowError rather
    than returning inf.
    """
    return math.gamma(_gamma_arg(z, "gamma"))


def log_classical_gamma(z: float) -> float:
    """ln Gamma(z) for real z > 0."""
    return math.lgamma(_gamma_arg(z, "log-gamma"))


def k_gamma(z: float, k: KScale | float = 1.0) -> float:
    """Gamma_k(z) = k**(z/k - 1) * Gamma(z/k) for z > 0; OverflowError past double range."""
    kk = _kval(k)
    if type(z) is not float or not 0.0 < z < math.inf:
        z = _gamma_arg(z, "k-gamma")
    w = z / kk
    g = math.pow(kk, w - 1.0) * math.gamma(w)
    if not math.isfinite(g):
        raise OverflowError("math range error")
    return g


def log_k_gamma(z: float, k: KScale | float = 1.0) -> float:
    """ln Gamma_k(z) = (z/k - 1) ln k + ln Gamma(z/k)."""
    kk = _kval(k)
    if type(z) is not float or not 0.0 < z < math.inf:
        z = _gamma_arg(z, "log k-gamma")
    w = z / kk
    return (w - 1.0) * math.log(kk) + math.lgamma(w)


# Direct products stay cheap up to this order; past it, for x > 0, the
# Gamma_k-ratio form costs two log-gamma calls whatever the order.
_POCH_DIRECT_LIMIT = 64


def _poch_args(x, n: int) -> float:
    """Check a Pochhammer start (real rule) and order (an int >= 0, not a bool); x as a float."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise DomainError(f"pochhammer order must be an integer >= 0, got {n!r}")
    if not is_real(x):
        raise DomainError(f"pochhammer start must be finite, got {x!r}")
    return float(x)


def k_pochhammer(x: float, n: int, k: KScale | float = 1.0) -> float:
    """Step-k rising product (x)_{n,k}; empty product 1 at n = 0.

    Any finite real x is accepted (the product semantics are exact,
    including sign-alternating factors, and a zero factor gives an exact 0
    whatever the other factors are).  Large n with x > 0 switches to the
    Gamma_k-ratio form Gamma_k(x + n k) / Gamma_k(x).  Both raise
    OverflowError past double range.
    """
    kk = _kval(k)
    x = _poch_args(x, n)
    if n <= _POCH_DIRECT_LIMIT or x <= 0:
        p = 1.0
        for j in range(n):
            f = x + j * kk
            if f == 0.0:
                return math.copysign(0.0, p)  # the factors past a zero are positive
            p *= f
        if not math.isfinite(p):
            raise OverflowError("math range error")
        return p
    return math.exp(log_k_gamma(x + n * kk, kk) - log_k_gamma(x, kk))


def log_k_pochhammer(x: float, n: int, k: KScale | float = 1.0) -> float:
    """ln (x)_{n,k} for x > 0 (all factors positive)."""
    kk = _kval(k)
    x = _poch_args(x, n)
    if x <= 0:
        raise DomainError(f"log pochhammer requires x > 0, got {x!r}")
    if n <= _POCH_DIRECT_LIMIT:
        return math.fsum(math.log(x + j * kk) for j in range(n))
    return log_k_gamma(x + n * kk, kk) - log_k_gamma(x, kk)


def k_gamma_oracle(z: float, k: KScale | float = 1.0, tol: float = 1e-10, budget: int = 60000):
    """Quadrature of the defining integral int_0^inf exp(-t^k/k) t^(z-1) dt.

    Cross-check only; the t -> 0 singularity for z < 1 is integrable and is
    absorbed by the integrator's variable change.  Returns a QuadResult.
    """
    kk = _kval(k)
    z = _gamma_arg(z, "k-gamma oracle")

    from .quadrature import integrate_semi_infinite

    def integrand(t: float) -> float:
        lt = math.log(t)
        s = kk * lt
        if s > 700.0:
            return 0.0  # exp(-t^k/k) underflows everything else
        e = (z - 1.0) * lt - math.exp(s) / kk
        if e < -745.0:
            return 0.0
        return math.exp(e)

    return integrate_semi_infinite(integrand, tol=tol, budget=budget)
