"""Independent 50-digit references for every output the benchmark checks.

Each reference is summed term by term from the mathematical definition in
mpmath at 50 significant digits, sharing no code with kspecfun.  Shifts of
classical Gamma arguments by whole steps use the exact recurrence
Gamma(x + 1) = x Gamma(x); every Gamma_k(lambda1 n + s0) with a general
step is a fresh mpmath Gamma call.

A series is summed until a term falls below 1e-32 of the running sum after
the terms have started to shrink, so cancellation of up to 17 digits still
leaves 15 correct digits, far more than any check needs (the loosest
threshold is 1e-6 and the tightest 1e-12).
"""

from __future__ import annotations

import math

import mpmath

DPS = 50
_MAX_TERMS = 4000
_REL_STOP = mpmath.mpf("1e-32")


def rel_err(value: float, ref) -> float:
    """|value - ref| / |ref| as a float; inf when value is not finite."""
    if not math.isfinite(value):
        return math.inf
    with mpmath.workdps(DPS):
        ref = mpmath.mpf(ref)
        if ref == 0:
            return 0.0 if value == 0.0 else math.inf
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def _sum_terms(terms):
    """Sum a term stream of an entire-type series to full working precision."""
    total = mpmath.mpf(0)
    prev = None
    for n, t in enumerate(terms):
        total += t
        if t == 0 and n > 0:
            return total  # a Pochhammer factor vanished: the series terminates
        shrinking = prev is not None and abs(t) < abs(prev)
        if shrinking and abs(t) <= _REL_STOP * abs(total):
            return total
        prev = t
    raise ArithmeticError("reference series did not converge")


def _k_gamma(z, k, log_k):
    """Gamma_k(z) = k^(z/k - 1) Gamma(z/k) at the current precision."""
    return mpmath.exp((z / k - 1) * log_k) * mpmath.gamma(z / k)


def k_gamma(z: float, k: float):
    """Gamma_k(z) = k^(z/k - 1) Gamma(z/k)."""
    with mpmath.workdps(DPS):
        k = mpmath.mpf(k)
        return _k_gamma(mpmath.mpf(z), k, mpmath.log(k))


def _gmk_terms(k, nu, gamma, lambda1, c, b, w):
    """Terms c^n (gamma)_{n,k} / Gamma_k(lambda1 n + s0) w^(nu+2n) / (n!)^2."""
    s0 = nu + (b + 1) / 2
    log_k = mpmath.log(k)
    head = w**nu  # c^n (gamma)_{n,k} w^(nu+2n) / (n!)^2, by exact recurrence
    for n in range(_MAX_TERMS):
        yield head / _k_gamma(lambda1 * n + s0, k, log_k)
        head *= c * (gamma + n * k) * w * w / ((n + 1) * (n + 1))


def gmk_bessel(k, nu, gamma, lambda1, c, b, z):
    """Generalized modified k-Bessel series at real z > 0."""
    with mpmath.workdps(DPS):
        args = [mpmath.mpf(v) for v in (k, nu, gamma, lambda1, c, b)]
        return _sum_terms(_gmk_terms(*args, mpmath.mpf(z) / 2))


def k_bessel_first(k, nu, gamma, lam, z):
    """sum_n (gamma)_{n,k} / Gamma_k(lam n + nu + 1) (-1)^n (z/2)^n / (n!)^2."""
    with mpmath.workdps(DPS):
        k, nu, gamma, lam, w = (mpmath.mpf(v) for v in (k, nu, gamma, lam, z / 2))
        log_k = mpmath.log(k)

        def terms():
            head = mpmath.mpf(1)
            for n in range(_MAX_TERMS):
                yield head / _k_gamma(lam * n + nu + 1, k, log_k)
                head *= -(gamma + n * k) * w / ((n + 1) * (n + 1))

        return _sum_terms(terms())


def k_wright(upper, lower, k_scale, z):
    """sum_n prod Gamma_k(a + alpha n) / prod Gamma_k(b + beta n) z^n / n!."""
    with mpmath.workdps(DPS):
        k, z = mpmath.mpf(k_scale), mpmath.mpf(z)
        log_k = mpmath.log(k)
        up = [(mpmath.mpf(a), mpmath.mpf(al)) for a, al in upper]
        lo = [(mpmath.mpf(b), mpmath.mpf(be)) for b, be in lower]

        def terms():
            zn_fact = mpmath.mpf(1)  # z^n / n!
            for n in range(_MAX_TERMS):
                t = zn_fact
                for a, al in up:
                    t *= _k_gamma(a + al * n, k, log_k)
                for b, be in lo:
                    t /= _k_gamma(b + be * n, k, log_k)
                yield t
                zn_fact *= z / (n + 1)

        return _sum_terms(terms())


def pfq(upper, lower, z):
    """Generalized hypergeometric pFq through mpmath.hyper."""
    with mpmath.workdps(DPS):
        return mpmath.hyper([mpmath.mpf(a) for a in upper], [mpmath.mpf(b) for b in lower], mpmath.mpf(z))


def kernel(mu, lam, a):
    """Closed form of int_0^inf x^(mu-1) phi(x, a)^(-lam) dx, 0 < mu < lam."""
    with mpmath.workdps(DPS):
        mu, lam, a = mpmath.mpf(mu), mpmath.mpf(lam), mpmath.mpf(a)
        return (
            2 * lam * a ** (-lam) * (a / 2) ** mu
            * mpmath.gamma(2 * mu) * mpmath.gamma(lam - mu) / mpmath.gamma(1 + lam + mu)
        )


def canonical_rhs(which, k, nu, gamma, lambda1, c, b, mu, lam, a, y):
    """Right side of identity `which` (1 or 2): the kernel closed form
    applied to every term of the Bessel series.

    Term n carries the Bessel coefficient at w = y/2 times the kernel with
    exponent pair (mu, lam + nu + 2n) for the first identity and
    (mu + nu + 2n, lam + nu + 2n) for the second.  Consecutive kernel values
    differ by whole shifts of every Gamma argument, so they follow by exact
    recurrence from the n = 0 kernel.
    """
    with mpmath.workdps(DPS):
        k, nu, gamma, lambda1, c, b, mu, lam, a, y = (
            mpmath.mpf(v) for v in (k, nu, gamma, lambda1, c, b, mu, lam, a, y)
        )
        bessel = _gmk_terms(k, nu, gamma, lambda1, c, b, y / 2)
        if which == 1:
            m0, l0 = mu, lam + nu
        else:
            m0, l0 = mu + nu, lam + nu

        def terms():
            m, l = m0, l0
            ker = kernel(m, l, a)
            for t in bessel:
                yield t * ker
                if which == 1:
                    # lam -> lam + 2: a^(-2), Gamma(lam - mu) and Gamma(1 + lam + mu) shift by 2
                    ker *= (l + 2) / l / (a * a)
                    ker *= (l - m) * (l - m + 1) / ((1 + l + m) * (2 + l + m))
                else:
                    # mu, lam -> +2: a^(-2) (a/2)^2, Gamma(2 mu) shifts by 4, Gamma(1+lam+mu) by 4
                    ker *= (l + 2) / l / 4
                    ker *= (2 * m) * (2 * m + 1) * (2 * m + 2) * (2 * m + 3)
                    ker /= (1 + l + m) * (2 + l + m) * (3 + l + m) * (4 + l + m)
                m, l = (m, l + 2) if which == 1 else (m + 2, l + 2)

        return _sum_terms(terms())


def packaged_rhs(which, k, nu, gamma, lambda1, c, b, mu, lam, a, y):
    """The packaged k-Wright right side of identity `which`, rows as displayed.

    Transcribed from the displayed formulas, not from kspecfun: prefactor
    times the Gamma_k-deformed Wright function with scale k.
    """
    del gamma  # the displayed packaging carries no Pochhammer row
    with mpmath.workdps(DPS):
        k, nu, lambda1, c, b, mu, lam, a, y = (
            mpmath.mpf(v) for v in (k, nu, lambda1, c, b, mu, lam, a, y)
        )
        s0 = nu + (b + 1) / 2
        if which == 1:
            pref = (
                2 ** (1 - nu - mu) * a ** (mu - lam - nu) * y**nu
                * k ** (-2 * mu) * mpmath.gamma(2 * mu)
            )
            upper = ((lam + nu + k, 2), (k * (nu + lam - mu), 2 * k))
            lower = ((s0, lambda1), (k * (1 + lam + nu + mu), 2 * k), (lam + nu, 2))
            arg = c * y * y / (4 * a * a)
        else:
            pref = (
                2 ** (1 - 2 * nu - mu) * y**nu * a ** (mu - lam)
                * k ** (1 + lam - mu) * mpmath.gamma(lam - mu)
            )
            upper = ((k * (2 * mu + 2 * nu), 4 * k), (nu + lam + k, 2))
            lower = ((nu + 1, lambda1), (nu + lam, 2), (k * (1 + lam + mu + 2 * nu), 4 * k))
            arg = c * y * y / 4
        return pref * k_wright(upper, lower, k, arg)
