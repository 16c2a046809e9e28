"""Generalized modified k-Bessel series and its first-kind companion.

Both are one power series,

    S(x) = sum_n (gamma)_{n,k} x^n / (Gamma_k(lambda1 n + s0) (n!)^2):

the generalized series is (z/2)^nu S(c (z/2)^2) with s0 = nu + (b+1)/2,

    J(z) = sum_n c^n (gamma)_{n,k} / Gamma_k(lambda1 n + nu + (b+1)/2)
                 * (z/2)^(nu+2n) / (n!)^2,

and the first-kind variant is S(-z/2) with s0 = nu + 1, its argument
entering at the first power.  One recurrence sums S for both:

* in general, terms are carried in log-magnitude/sign form with the k-Gamma
  ratio taken from consecutive log Gamma_k values, accumulated with
  Neumaier compensation;
* for the generalized series with lambda1/k a positive integer m, the
  k-Gamma ratio between consecutive terms telescopes into an exact m-factor
  product, and the whole recurrence runs in double-double arithmetic.  This
  is the path the classical-reduction checks exercise, where alternating
  sums lose ~4 digits to cancellation at z = 10 and plain doubles cannot
  hold 1e-12 agreement.

Both paths stop on the one truncation rule, `summation.TailRule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kgamma import k_gamma, log_k_gamma
from .summation import SeriesResult, TailRule, accumulate, check_series_args
from .summation import dd_add, dd_div_d, dd_mul_d

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
            return _lead(0.0, 0.0, p.nu + 0.5 * (p.b + 1.0), p.k)
        return 0.0
    lg, sg = bessel_term_logsig(p, 0.5 * z, n)
    return sg * math.exp(lg) if sg else 0.0


def _lead(w: float, e: float, s0: float, k: float) -> float:
    """Leading factor w**e / Gamma_k(s0), 0**0 = 1; through logs where a
    factor leaves double range (OverflowError, or Gamma_k inf or 0)."""
    try:
        lead = w**e
        if not lead:
            return 0.0  # needs no Gamma_k(s0)
        g = k_gamma(s0, k)
        if 0.0 < g < math.inf:
            return lead / g
    except OverflowError:
        pass
    return math.exp((e * math.log(w) if e else 0.0) - log_k_gamma(s0, k))


def _log_pairs(k, gamma, lam, s0, lead, lc, lu, neg, max_terms: int):
    """(term, ratio) stream of exp(lead) S(x) in log-magnitude/sign form, where

        S(x) = sum_n (gamma)_{n,k} x^n / (Gamma_k(lam n + s0) (n!)^2)

    at x = c u; lc = log|c| and lu = log|u| enter each ratio, neg = x < 0.
    """
    lgk = log_k_gamma(s0, k)
    big = lead - lgk
    sgn = 1
    for n in range(max_terms):
        t = sgn * math.exp(big)
        g = gamma + n * k
        if g == 0.0:
            yield t, 0.0
            return
        lgk_next = log_k_gamma(lam * (n + 1) + s0, k)
        dlg = lc + math.log(abs(g)) + lu - 2.0 * math.log(n + 1.0)
        dlg -= lgk_next - lgk
        yield t, math.exp(dlg)
        big += dlg
        lgk = lgk_next
        if neg:
            sgn = -sgn
        if g < 0.0:
            sgn = -sgn


def _eval_gmk_dd(p: BesselParams, z: float, tol: float, max_terms: int, m: int) -> SeriesResult:
    """Double-double recurrence for integer lambda1/k = m.

    Gamma_k(s + m k) / Gamma_k(s) telescopes to prod_{j<m} (s + j k), so the
    term ratio is a short product of exact doubles and the running term never
    leaves double-double form.  The (z/2)^nu / Gamma_k(s0) prefactor is a
    common factor and is applied once at the end.
    """
    w = 0.5 * z
    w2 = w * w
    s0 = p.nu + 0.5 * (p.b + 1.0)
    pref = _lead(w, p.nu, s0, p.k)
    t = (1.0, 0.0)
    acc = (1.0, 0.0)
    rule = TailRule(tol, max_terms)
    n = 0
    while True:
        g = p.gamma + n * p.k
        base = p.lambda1 * n + s0
        rden = (n + 1.0) * (n + 1.0)
        if g == 0.0:
            rho = 0.0  # exact termination, even where w2 overflows
        else:
            rho = abs(p.c) * abs(g) * w2 / rden
            for j in range(m):
                rho /= base + j * p.k
        if rule.stop(abs(t[0]) * pref, rho, abs(acc[0] + acc[1]) * pref):
            break
        t = dd_mul_d(t, w2)
        t = dd_mul_d(t, g)
        if p.c != 1.0:
            t = dd_mul_d(t, p.c)
        t = dd_div_d(t, rden)
        for j in range(m):
            t = dd_div_d(t, base + j * p.k)
        acc = dd_add(acc, t)
        n += 1
    return rule.result(pref * (acc[0] + acc[1]))


def eval_gmk_bessel(
    p: BesselParams, z: float, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """Evaluate the generalized modified k-Bessel series at real z >= 0."""
    z, max_terms = check_series_args(z, tol, max_terms)
    if z < 0:
        raise DomainError(f"argument must be >= 0, got {z!r}")
    s0 = p.nu + 0.5 * (p.b + 1.0)
    if z == 0.0 or p.c == 0.0:
        # only the n = 0 term
        return SeriesResult(_lead(0.5 * z, p.nu, s0, p.k), 1, 0.0, True)
    m = p.lambda1 / p.k
    mi = round(m)
    if mi >= 1 and abs(m - mi) <= 1e-12 * m:
        return _eval_gmk_dd(p, z, tol, max_terms, mi)
    lw = math.log(0.5 * z)
    lc = math.log(abs(p.c))
    pairs = _log_pairs(p.k, p.gamma, p.lambda1, s0, p.nu * lw, lc, 2.0 * lw, p.c < 0.0, max_terms)
    return accumulate(pairs, tol, max_terms)


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
        return SeriesResult(_lead(0.0, 0.0, nu + 1.0, k), 1, 0.0, True)
    lw = math.log(abs(0.5 * z))
    pairs = _log_pairs(float(k), float(gamma), float(lam), nu + 1.0, 0.0, 0.0, lw, z > 0.0, max_terms)
    return accumulate(pairs, tol, max_terms)
