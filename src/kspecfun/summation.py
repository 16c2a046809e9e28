"""Compensated summation, double-double building blocks, and the series
truncation contract.

The alternating Bessel-type series in this package lose up to four decimal
digits to cancellation at the largest arguments we verify (condition number
~1e4 at z=10), so plain double accumulation cannot reach the 1e-12 agreement
the reduction checks demand.  Terms on the hot path are therefore carried as
unevaluated double-double pairs (hi, lo) built from error-free transforms,
and everything else goes through Neumaier accumulation.

Every series evaluator stops on one truncation rule, `TailRule`: the ratio
rho must be below 1 and non-increasing and the geometric tail bound
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


def check_series_args(z: float, tol: float, max_terms: int) -> tuple[float, int]:
    """Validate a series argument, tolerance and term cap; return (z, max_terms)."""
    if not (isinstance(z, (int, float)) and math.isfinite(z)):
        raise DomainError(f"argument must be a finite real, got {z!r}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    max_terms = int(max_terms)
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms!r}")
    return float(z), max_terms


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


class TailRule:
    """The truncation rule every series evaluator stops on.

    Feed `stop` each term's magnitude |t|, the ratio rho = |next/current|
    and the magnitude |S| of the partial sum through that term.  A zero
    ratio ends the series exactly.  Otherwise the geometric tail
    |t| rho / (1 - rho) is certified once rho is below 1 and non-increasing
    and the bound is <= tol * min(max(|S|, 1e-300), 1), relative to the sum
    and never looser than absolute.  `stop` also says stop at the term cap;
    `result` then reports the open-tail estimate of the last term.
    """

    __slots__ = ("tol", "max_terms", "terms", "last", "rho", "tail")

    def __init__(self, tol: float, max_terms: int) -> None:
        self.tol = tol
        self.max_terms = max_terms
        self.terms = 0
        self.last = 0.0
        self.rho = math.inf
        self.tail = None  # the certified bound, once the rule holds

    def stop(self, t_abs: float, rho: float, s_abs: float) -> bool:
        rho_prev, self.rho = self.rho, rho
        self.terms += 1
        self.last = t_abs
        if rho == 0.0:
            self.tail = 0.0
            return True
        if rho < 1.0 and rho <= rho_prev:
            bound = t_abs * rho / (1.0 - rho)
            if bound <= self.tol * min(max(s_abs, 1e-300), 1.0):
                self.tail = bound
                return True
        return self.terms >= self.max_terms

    def result(self, value: float) -> SeriesResult:
        if self.tail is not None:
            return SeriesResult(value, self.terms, self.tail, True)
        rho = self.rho
        tail = self.last * rho / (1.0 - rho) if rho < 1.0 else self.last
        return SeriesResult(value, max(self.terms, 1), tail, False)


def accumulate(pairs, tol: float, max_terms: int) -> SeriesResult:
    """Sum a (term, |next/current| ratio) stream under `TailRule`.

    A zero ratio marks exact termination (a Pochhammer factor hit zero);
    an infinite one says no tail bound holds yet.
    """
    s = c = 0.0  # the Neumaier step of CompensatedSum.add, written out
    rule = TailRule(tol, max_terms)
    for t, rho in pairs:
        u = s + t
        if abs(s) >= abs(t):
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        if rule.stop(abs(t), rho, abs(s + c)):
            break
    return rule.result(s + c)
