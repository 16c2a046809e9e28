"""Generalized modified k-Bessel series and its first-kind companion.

The central object is the series

    J(z) = sum_n c^n (gamma)_{n,k} / Gamma_k(lambda1 n + nu + (b+1)/2)
                 * (z/2)^(nu+2n) / (n!)^2

together with the first-kind variant whose argument enters at the first
power, (z/2)^n, exactly as defined.  Two evaluation paths share one
truncation contract:

* when lambda1/k is a positive integer m, the k-Gamma ratio between
  consecutive terms telescopes into an exact m-factor product, and the whole
  recurrence runs in double-double arithmetic.  This is the path the
  classical-reduction checks exercise, where alternating sums lose ~4 digits
  to cancellation at z = 10 and plain doubles cannot hold 1e-12 agreement.
* otherwise terms are carried in log-magnitude/sign form with the k-Gamma
  ratio taken from consecutive log Gamma_k values, accumulated with
  Neumaier compensation.

Truncation follows the tail rule of `summation.accumulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kgamma import k_gamma, log_k_gamma
from .summation import SeriesResult, accumulate, check_series_args, dd_add, dd_div_d, dd_mul_d

__all__ = [
    "BesselParams",
    "SeriesResult",
    "bessel_term_logsig",
    "eval_gmk_bessel",
    "eval_k_bessel_first",
    "gmk_bessel_term",
]


@dataclass(frozen=True)
class BesselParams:
    """Parameter set (k, nu, gamma, lambda1, c, b) of the generalized series.

    Requires k > 0, lambda1 > 0, nu >= 0 and nu + (b+1)/2 > 0, so every
    Gamma_k argument lambda1*n + nu + (b+1)/2 along the series is positive.
    """

    k: float
    nu: float
    gamma: float
    lambda1: float
    c: float
    b: float

    def __post_init__(self) -> None:
        vals = (self.k, self.nu, self.gamma, self.lambda1, self.c, self.b)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            raise DomainError(f"parameters must be finite reals, got {vals!r}")
        if not self.k > 0:
            raise DomainError(f"k must be positive, got {self.k!r}")
        if not self.lambda1 > 0:
            raise DomainError(f"lambda1 must be positive, got {self.lambda1!r}")
        if self.nu < 0:
            raise DomainError(f"nu must be nonnegative, got {self.nu!r}")
        if not self.nu + 0.5 * (self.b + 1.0) > 0:
            raise DomainError(
                f"nu + (b+1)/2 must be positive, got nu={self.nu!r} b={self.b!r}"
            )


def _signed_log_poch(x: float, n: int, k: float) -> tuple[float, int]:
    """(log |(x)_{n,k}|, sign); sign 0 when a factor vanishes."""
    lp = 0.0
    sg = 1
    for j in range(n):
        f = x + j * k
        if f == 0.0:
            return -math.inf, 0
        if f < 0.0:
            sg = -sg
        lp += math.log(abs(f))
    return lp, sg


def bessel_term_logsig(p: BesselParams, w: float, n: int) -> tuple[float, int]:
    """(log |n-th series term|, sign) at half-argument w = z/2 > 0; sign 0
    when the term vanishes."""
    if p.c == 0.0 and n > 0:
        return -math.inf, 0
    lp, sg = _signed_log_poch(p.gamma, n, p.k)
    if sg == 0:
        return -math.inf, 0
    if p.c < 0.0 and n % 2:
        sg = -sg
    s0 = p.nu + 0.5 * (p.b + 1.0)
    lg = (n * math.log(abs(p.c)) if n else 0.0) + lp
    lg += (p.nu + 2.0 * n) * math.log(w)
    lg -= log_k_gamma(p.lambda1 * n + s0, p.k)
    lg -= 2.0 * math.lgamma(n + 1.0)
    return lg, sg


def gmk_bessel_term(p: BesselParams, z: float, n: int) -> float:
    """n-th series term assembled from scratch (reference for the recurrences)."""
    if n < 0:
        raise DomainError(f"term index must be >= 0, got {n}")
    if z == 0.0:
        if n == 0 and p.nu == 0.0:
            return 1.0 / k_gamma(p.nu + 0.5 * (p.b + 1.0), p.k)
        return 0.0
    lg, sg = bessel_term_logsig(p, 0.5 * z, n)
    return sg * math.exp(lg) if sg else 0.0


def _gmk_log_pairs(p: BesselParams, z: float, max_terms: int):
    """Incremental (term, ratio) stream in log-magnitude/sign form."""
    w = 0.5 * z
    s0 = p.nu + 0.5 * (p.b + 1.0)
    lac = math.log(abs(p.c))
    lw = math.log(w)
    lgk = log_k_gamma(s0, p.k)
    big = p.nu * lw - lgk
    sgn = 1
    for n in range(max_terms):
        t = sgn * math.exp(big)
        g = p.gamma + n * p.k
        if g == 0.0:
            yield t, 0.0
            return
        lgk_next = log_k_gamma(p.lambda1 * (n + 1) + s0, p.k)
        dlg = lac + math.log(abs(g)) + 2.0 * lw - 2.0 * math.log(n + 1.0)
        dlg -= lgk_next - lgk
        yield t, math.exp(dlg)
        big += dlg
        lgk = lgk_next
        if p.c < 0.0:
            sgn = -sgn
        if g < 0.0:
            sgn = -sgn


def _eval_gmk_dd(p: BesselParams, z: float, tol: float, max_terms: int, m: int) -> SeriesResult:
    """Double-double recurrence for integer lambda1/k = m.

    Gamma_k(s + m k) / Gamma_k(s) telescopes to prod_{j<m} (s + j k), so the
    term ratio is a short product of exact doubles and the running term never
    leaves double-double form.  The (z/2)^nu / Gamma_k(...) prefactor is a
    common factor and is applied once at the end.
    """
    w = 0.5 * z
    w2 = w * w
    s0 = p.nu + 0.5 * (p.b + 1.0)
    pref = w**p.nu / k_gamma(s0, p.k)
    t = (1.0, 0.0)
    acc = (1.0, 0.0)
    rho_prev = math.inf
    terms = 1
    tail = math.inf
    converged = False
    rho = math.inf
    n = 0
    while True:
        g = p.gamma + n * p.k
        if g == 0.0:
            tail = 0.0
            converged = True
            break
        base = p.lambda1 * n + s0
        rden = (n + 1.0) * (n + 1.0)
        rho = abs(p.c) * abs(g) * w2 / rden
        for j in range(m):
            rho /= base + j * p.k
        th = abs(t[0]) * pref
        if rho < 1.0 and rho <= rho_prev:
            bound = th * rho / (1.0 - rho)
            s = abs(acc[0] + acc[1]) * pref
            if bound <= tol * min(max(s, 1e-300), 1.0):
                tail = bound
                converged = True
                break
        rho_prev = rho
        if terms >= max_terms:
            break
        t = dd_mul_d(t, w2)
        t = dd_mul_d(t, g)
        if p.c != 1.0:
            t = dd_mul_d(t, p.c)
        t = dd_div_d(t, rden)
        for j in range(m):
            t = dd_div_d(t, base + j * p.k)
        acc = dd_add(acc, t)
        terms += 1
        n += 1
    if not converged:
        last = abs(t[0]) * pref
        tail = last * rho / (1.0 - rho) if rho < 1.0 else last
    return SeriesResult(pref * (acc[0] + acc[1]), terms, tail, converged)


def eval_gmk_bessel(
    p: BesselParams, z: float, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """Evaluate the generalized modified k-Bessel series at real z >= 0."""
    z, max_terms = check_series_args(z, tol, max_terms)
    if z < 0:
        raise DomainError(f"argument must be >= 0, got {z!r}")
    s0 = p.nu + 0.5 * (p.b + 1.0)
    if z == 0.0:
        value = 1.0 / k_gamma(s0, p.k) if p.nu == 0.0 else 0.0
        return SeriesResult(value, 1, 0.0, True)
    if p.c == 0.0:
        value = (0.5 * z) ** p.nu / k_gamma(s0, p.k)
        return SeriesResult(value, 1, 0.0, True)
    m = p.lambda1 / p.k
    mi = round(m)
    if mi >= 1 and abs(m - mi) <= 1e-12 * m:
        return _eval_gmk_dd(p, z, tol, max_terms, mi)
    return accumulate(_gmk_log_pairs(p, z, max_terms), tol, max_terms)


def _k1_log_pairs(k: float, nu: float, gamma: float, lam: float, z: float, max_terms: int):
    w = 0.5 * z
    lw = math.log(abs(w))
    lgk = log_k_gamma(nu + 1.0, k)
    big = -lgk
    sgn = 1
    for n in range(max_terms):
        t = sgn * math.exp(big)
        g = gamma + n * k
        if g == 0.0:
            yield t, 0.0
            return
        lgk_next = log_k_gamma(lam * (n + 1) + nu + 1.0, k)
        dlg = math.log(abs(g)) + lw - 2.0 * math.log(n + 1.0)
        dlg -= lgk_next - lgk
        yield t, math.exp(dlg)
        big += dlg
        lgk = lgk_next
        sgn = -sgn  # the series' own (-1)^n
        if w < 0.0:
            sgn = -sgn
        if g < 0.0:
            sgn = -sgn


def eval_k_bessel_first(
    k: float,
    nu: float,
    gamma: float,
    lam: float,
    z: float,
    tol: float = 1e-10,
    max_terms: int = 400,
) -> SeriesResult:
    """First-kind k-Bessel series sum_n (gamma)_{n,k} / Gamma_k(lam n + nu + 1)
    * (-1)^n (z/2)^n / (n!)^2.

    The argument enters at the first power, as defined for this variant.
    """
    z, max_terms = check_series_args(z, tol, max_terms)
    for name, v in (("k", k), ("nu", nu), ("gamma", gamma), ("lam", lam)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise DomainError(f"{name} must be a finite real, got {v!r}")
    if not k > 0:
        raise DomainError(f"k must be positive, got {k!r}")
    if not lam > 0:
        raise DomainError(f"lam must be positive, got {lam!r}")
    if not nu + 1.0 > 0:
        raise DomainError(f"nu + 1 must be positive, got nu={nu!r}")
    if z == 0.0:
        return SeriesResult(1.0 / k_gamma(nu + 1.0, k), 1, 0.0, True)
    return accumulate(
        _k1_log_pairs(float(k), float(nu), float(gamma), float(lam), z, max_terms),
        tol,
        max_terms,
    )
