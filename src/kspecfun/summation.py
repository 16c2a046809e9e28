"""Compensated summation, double-double building blocks, and the series
truncation contract.

The alternating Bessel-type series in this package lose up to four decimal
digits to cancellation at the largest arguments we verify (condition number
~1e4 at z=10), so plain double accumulation cannot reach the 1e-12 agreement
the reduction checks demand.  Terms on the hot path are therefore carried as
unevaluated double-double pairs (hi, lo) built from error-free transforms,
and everything else goes through Neumaier accumulation.

Every series evaluator stops on one truncation rule, `certified_tail`: the
ratio rho must be below 1 and non-increasing and the geometric tail bound
|t| rho / (1 - rho) under tol, both relative to the partial sum and
absolutely.  `accumulate` applies it to a (term, |next/current| ratio)
stream, which `logsig_pairs` builds from a forward stream of terms in
log-magnitude/sign form, (L_n, sign_n) for n = 0, 1, 2, ...; the
double-double Bessel recurrence applies it to its own sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Dekker splitting constant, 2**27 + 1; no hardware fma is assumed.
_SPLIT = 134217729.0


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth two-sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


# The products and sums below write their error-free transforms out in
# place: they run once or more per series term, where call overhead would
# cost as much as the arithmetic.  The operations and their order are those
# of two_sum, the Dekker fast two-sum (s = a + b, e = b - (s - a) for
# |a| >= |b|) and the Dekker split.


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker product: p + e == a * b exactly, p = fl(a * b)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    a, b = x[0], y[0]
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    a, b = x[1], y[1]
    t = a + b
    v = t - a
    f = (a - (t - v)) + (b - v)
    e += t
    v = s + e
    e = e - (v - s)
    e += f
    s = v + e
    return s, e - (s - v)


def dd_mul_d(x: tuple[float, float], d: float) -> tuple[float, float]:
    a = x[0]
    p = a * d
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * d
    dh = c - (c - d)
    dl = d - dh
    e = ((ah * dh - p) + ah * dl + al * dh) + al * dl
    e += x[1] * d
    s = p + e
    return s, e - (s - p)


def dd_mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    """Double-double product, rounded to double-double."""
    a, b = x[0], y[0]
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += a * y[1] + x[1] * b
    s = p + e
    return s, e - (s - p)


def dd_div_d(x: tuple[float, float], d: float) -> tuple[float, float]:
    a = x[0]
    q = a / d
    p = q * d
    c = _SPLIT * q
    qh = c - (c - q)
    ql = q - qh
    c = _SPLIT * d
    dh = c - (c - d)
    dl = d - dh
    e = ((qh * dh - p) + qh * dl + ql * dh) + ql * dl
    # a - p is exact (Sterbenz: p agrees with a to within a factor of 2)
    r = ((a - p) - e + x[1]) / d
    s = q + r
    return s, r - (s - q)


class CompensatedSum:
    """Neumaier running sum; `value` folds the carried correction back in."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        s = self._s
        t = s + x
        if abs(s) >= abs(x):
            self._c += (s - t) + x
        else:
            self._c += (x - t) + s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    tail_estimate: float
    converged: bool


def check_arg(z: float) -> float:
    """Validate a series argument; return it as a float."""
    if not (isinstance(z, (int, float)) and math.isfinite(z)):
        raise DomainError(f"argument must be a finite real, got {z!r}")
    return float(z)


def check_series_args(z: float, tol: float, max_terms: int) -> tuple[float, int]:
    """Validate a series argument, tolerance and term cap; return (z, max_terms)."""
    z = check_arg(z)
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    max_terms = int(max_terms)
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms!r}")
    return z, max_terms


def logsig_pairs(terms, lz: float, max_terms: int):
    """(term, ratio) stream of sum_n sign_n exp(L_n + n lz).

    terms is an iterator of (L_n, sign_n) for n = 0, 1, 2, ..., at least
    max_terms + 1 long; sign 0 marks a vanishing term, which ends the
    series exactly.  lz is log |z| for a power series in z, or 0.0 when the
    terms already carry their argument.
    """
    cur, sg = next(terms)
    for n in range(max_terms):
        if sg == 0:
            yield 0.0, 0.0
            return
        nxt, sg_next = next(terms)
        t = sg * math.exp(cur + n * lz)
        yield t, math.exp(nxt - cur + lz) if sg_next != 0 else 0.0
        cur, sg = nxt, sg_next


def certified_tail(t_abs: float, rho: float, rho_prev: float, s_abs: float,
                   tol: float) -> float | None:
    """The certified tail of a term |t| = t_abs with ratio rho (rho_prev before
    it, inf at the first term) and partial sum |S| = s_abs, or None while the
    rule does not hold; a zero ratio ends the series exactly."""
    if rho == 0.0:
        return 0.0
    if rho < 1.0 and rho <= rho_prev:
        bound = t_abs * rho / (1.0 - rho)
        if bound <= tol * min(max(s_abs, 1e-300), 1.0):
            return bound
    return None


def open_tail(t_abs: float, rho: float) -> float:
    """Tail estimate of a series cut at its term cap, from its last term."""
    return t_abs * rho / (1.0 - rho) if rho < 1.0 else t_abs


def accumulate(pairs, tol: float, max_terms: int) -> SeriesResult:
    """Sum a (term, |next/current| ratio) stream under `certified_tail`.

    A zero ratio marks exact termination (a Pochhammer factor hit zero);
    an infinite one says no tail bound holds yet.
    """
    s = c = 0.0  # the Neumaier step of CompensatedSum.add, written out
    n = 0
    t_abs = 0.0
    rho = math.inf
    for n, (t, r) in enumerate(pairs, 1):
        u = s + t
        if abs(s) >= abs(t):
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        t_abs = abs(t)
        tail = certified_tail(t_abs, r, rho, abs(s + c), tol)
        rho = r
        if tail is not None:
            return SeriesResult(s + c, n, tail, True)
        if n >= max_terms:
            break
    return SeriesResult(s + c, max(n, 1), open_tail(t_abs, rho), False)
