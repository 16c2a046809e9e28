"""Compensated summation, double-double building blocks, and the series
truncation contract.

The alternating Bessel-type series in this package lose up to four decimal
digits to cancellation at the largest arguments we verify (condition number
~1e4 at z=10), so plain double accumulation cannot reach the 1e-12 agreement
the reduction checks demand.  Terms on the hot path are therefore carried as
unevaluated double-double pairs (hi, lo) built from error-free transforms,
and everything else goes through Neumaier accumulation.

Every series evaluator feeds a (term, |next/current| ratio) stream to
`accumulate`, which stops once the ratio rho is below 1 and non-increasing
and the geometric tail bound |t| rho / (1 - rho) drops under tol, both
relative to the partial sum and absolutely.  `logsig_pairs` builds that
stream from terms given in log-magnitude/sign form.
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


def fast_two_sum(a: float, b: float) -> tuple[float, float]:
    """Dekker two-sum, valid only for |a| >= |b| (or a == 0)."""
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a: float) -> tuple[float, float]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker product: p + e == a * b exactly, p = fl(a * b)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = two_sum(x[0], y[0])
    t, f = two_sum(x[1], y[1])
    e += t
    s, e = fast_two_sum(s, e)
    e += f
    return fast_two_sum(s, e)


def dd_mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return fast_two_sum(p, e)


def dd_mul_d(x: tuple[float, float], d: float) -> tuple[float, float]:
    p, e = two_prod(x[0], d)
    e += x[1] * d
    return fast_two_sum(p, e)


def dd_div_d(x: tuple[float, float], d: float) -> tuple[float, float]:
    q1 = x[0] / d
    p, e = two_prod(q1, d)
    # x[0] - p is exact (Sterbenz: p agrees with x[0] to within a factor of 2)
    r = (x[0] - p) - e + x[1]
    return fast_two_sum(q1, r / d)


def dd_div(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    q1 = x[0] / y[0]
    r = dd_add(x, dd_mul_d(y, -q1))
    q2 = (r[0] + r[1]) / y[0]
    return fast_two_sum(q1, q2)


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


def logsig_pairs(term_logsig, lz: float, max_terms: int):
    """(term, ratio) stream of sum_n sign_n exp(L_n + n lz).

    term_logsig(n) gives (L_n, sign_n), sign 0 for a vanishing term, which
    ends the series exactly; lz is log |z| for a power series in z, or 0.0
    when the terms already carry their argument.
    """
    cur, sg = term_logsig(0)
    for n in range(max_terms):
        if sg == 0:
            yield 0.0, 0.0
            return
        nxt, sg_next = term_logsig(n + 1)
        t = sg * math.exp(cur + n * lz)
        yield t, math.exp(nxt - cur + lz) if sg_next != 0 else 0.0
        cur, sg = nxt, sg_next


def accumulate(pairs, tol: float, max_terms: int) -> SeriesResult:
    """Drive a (term, |next/current| ratio) stream under the tail rule.

    A zero ratio marks exact termination (a Pochhammer factor hit zero);
    an infinite one says no tail bound holds yet.
    """
    acc = CompensatedSum()
    rho_prev = math.inf
    terms = 0
    tail = math.inf
    converged = False
    last = 0.0
    rho = math.inf
    for t, rho in pairs:
        acc.add(t)
        terms += 1
        last = t
        if rho == 0.0:
            tail = 0.0
            converged = True
            break
        if rho < 1.0 and rho <= rho_prev:
            bound = abs(t) * rho / (1.0 - rho)
            s = abs(acc.value)
            if bound <= tol * min(max(s, 1e-300), 1.0):
                tail = bound
                converged = True
                break
        rho_prev = rho
        if terms >= max_terms:
            break
    if not converged:
        tail = abs(last) * rho / (1.0 - rho) if rho < 1.0 else abs(last)
    return SeriesResult(acc.value, max(terms, 1), tail, converged)
