"""Compensated summation, double-double building blocks, and the series
truncation contract.

The alternating Bessel-type series in this package lose up to four decimal
digits to cancellation at the largest arguments we verify (condition number
~1e4 at z=10), so plain double accumulation cannot reach the 1e-12 agreement
the reduction checks demand.  Terms on the hot path are therefore carried as
unevaluated double-double pairs (hi, lo) built from error-free transforms,
and everything else goes through Neumaier accumulation.

Every series stops where one function, `settle`, says: once the ratio rho of
term t to the next is below 1 and non-increasing and |t| rho / (1 - rho) <=
tol min(max(|s|, 1e-300), 1), relative to the partial sum s up to |s| = 1
and absolute above, or, unconverged, at the term cap; a partial sum that is
not finite raises OverflowError.  A sum that has not cancelled, its term
sizes summing to at most 2 |s| as on every series whose terms share one sign,
also stops once that tail is <= 2^-64 |s| (ONE_SIGN_FLOOR, 2^-11 of an ulp):
above |s| = 2^64 tol its tail_estimate may exceed tol.  A cancelled sum, such
as J_0 at z = 300, never takes this floor.  `accumulate` calls `settle` per
term of an unbounded (term, |next/current| ratio) stream, for the canonical
right side and the Wright side of the reduction check (`logsig_pairs` of
(L_n, sign_n)); the Bessel tables, `eval_k_wright` and `eval_pfq` call it per
term of loops of their own.  Every caller hands it the running sum of the term
sizes and grow, a term's roundings per index, from which it decides the floor and
bounds the sum's rounding error, `SeriesResult.rounding` (the Bessel log table
adds its exponent's), at its single exit, which builds the result of every sum
it ends; the rest arise in the one-term shortcuts of the Bessel, k-Wright and
reduction-check evaluators, `_rhs_paper`'s scaled sum and `_classical_bessel_series`.

The real rule `is_real` (a finite int or float; not a bool or a string)
covers arguments and parameters, the positive rule `is_positive` (the real
rule and > 0) tolerances, scales and Gamma arguments, and the whole-number
rule `is_whole` (an int or an integral float >= a least value; not a bool)
counts and term indices.  `check_settings` raises the last two's messages."""

from __future__ import annotations

import math
import sys
from itertools import count
from typing import NamedTuple

from .errors import DomainError, NonConvergenceError

__all__ = ["CompensatedSum", "SeriesResult"]

# Dekker splitting constant, 2**27 + 1; no hardware fma is assumed.
_SPLIT = 134217729.0
_MAX = sys.float_info.max  # the largest finite double; an int past it has no float value
ONE_SIGN_FLOOR = 2.0**-64  # the relative tail at which a sum that has not cancelled stops
_UNIT = 2.0**-53  # the unit roundoff u of a double

# The error-free transforms below are written out in place: they run once or
# more per series term, where call overhead would cost as much as the
# arithmetic.  Their operations and order are those of the Knuth two-sum, the
# Dekker fast two-sum (for |a| >= |b|) and the Dekker split and product.


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


class SeriesResult(NamedTuple):
    """A series sum; rounding bounds its own rounding error where the
    evaluator reports one (see `settle`), else 0.0.  A named tuple, built
    once per series call at a third of a frozen dataclass's cost."""

    value: float
    terms_used: int
    tail_estimate: float
    converged: bool
    rounding: float = 0.0


def is_real(x) -> bool:
    """The real rule: a finite int or float (or float subclass), not a bool or a string."""
    return (isinstance(x, float) or isinstance(x, int) and not isinstance(x, bool)) and abs(x) <= _MAX


def is_positive(x) -> bool:
    """The positive rule: the real rule and > 0."""
    return is_real(x) and x > 0


def check_arg(z: float, name: str = "argument") -> float:
    """Validate value z (called name) under the real rule; return it as a float."""
    if not is_real(z):
        raise DomainError(f"{name} must be a finite real, got {z!r}")
    return z if type(z) is float else float(z)


def rel_diff(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude, floored at 1e-300."""
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def side_value(side: str, sr: SeriesResult) -> float:
    """The value of one side of a reduction check, or NonConvergenceError naming it."""
    if not sr.converged:
        raise NonConvergenceError(f"{side} side of the reduction check did not converge "
                                  f"(terms={sr.terms_used}, tail={sr.tail_estimate!r})")
    return sr.value


def is_whole(n, least: int) -> bool:
    """The whole-number rule: an int or an integral float >= least, not a bool."""
    return (type(n) is int or isinstance(n, float) and n.is_integer()) and n >= least


def check_settings(tol, name: str, n, least: int) -> None:
    """Raise DomainError if tol breaks the positive rule or count n (called name) the whole-number one."""
    if not is_positive(tol):
        raise DomainError(f"tolerance must be {'finite' if tol == math.inf else 'positive'}, got {tol!r}")
    if not is_whole(n, least):
        raise DomainError(f"{name} must be a whole number >= {least}, got {n!r}")


def check_series_args(z: float, tol: float, max_terms: int) -> tuple[float, int]:
    """Validate a series argument, tolerance and term cap; return (z, max_terms).

    It runs at every quadrature node, so a finite float z, a float tol in
    (0, max] and an int max_terms >= 1 return at once; any other input takes
    the checks that raise and convert."""
    if (type(z) is float and type(tol) is float and type(max_terms) is int
            and abs(z) <= _MAX and 0.0 < tol <= _MAX and max_terms >= 1):
        return z, max_terms
    z = check_arg(z)
    check_settings(tol, "max_terms", max_terms, 1)
    return z, max_terms if type(max_terms) is int else int(max_terms)


def logsig_pairs(terms, lz: float):
    """Unbounded (term, ratio) stream of sum_n sign_n exp(L_n + n lz).

    terms is an unbounded iterator of (L_n, sign_n) for n = 0, 1, 2, ...;
    sign 0 marks a vanishing term, a zero ratio on the term before it.  lz
    is log |z| for a power series in z, or 0.0 when the terms carry z.
    """
    cur, sg = next(terms)
    for n in count():
        nxt, sg_next = next(terms)
        t = sg * math.exp(cur + n * lz)
        yield t, math.exp(nxt - cur + lz) if sg_next != 0 else 0.0
        cur, sg = nxt, sg_next


def settle(n: int, t_abs: float, rho: float, rho_prev: float, s: float, tol: float,
           max_terms: int, tsum: float, grow: float) -> SeriesResult | None:
    """The finished sum if term n (from 1) ends the series, else None.

    t_abs is the term's size, rho its ratio to the next (rho_prev the one
    before, inf at the first term), s the partial sum through it and tsum
    the sum of the sizes of terms 1..n.  It has converged when rho < 1,
    rho <= rho_prev and the tail t_abs rho / (1 - rho) is
    <= tol min(max(|s|, 1e-300), 1), or is <= ONE_SIGN_FLOOR |s| with
    tsum <= 2 |s|: the sum's condition number tsum / |s| is at most 2, as on
    every series whose terms share one sign.  A partial sum that is not
    finite (an inf or nan term, or finite terms whose sum overflows) raises
    OverflowError.  At the cap the tail estimate is reported unconverged,
    |t| where rho >= 1.

    The result's rounding is R = u tsum (grow n + 1 + |ln tsum|), u = 2^-53,
    or 0 where tsum is 0, computed at the single exit that builds the result;
    it does not enter the stop test.  Term j carries a relative error of
    grow j u from its recurrence.
    The 1 + |ln tsum| bounds, from tsum alone, the mean |ln |t_j|| u that a
    term reached through exp of its log carries (x ln(1/x) <= 1/e); the Bessel
    log/sign table adds what its exponents gather (`_LogTable.series`).
    """
    if not (a := abs(s)) <= _MAX:  # a is finite below: min(max(a, 1e-300), 1) needs no builtin
        raise OverflowError("math range error")
    tail = t_abs
    converged = False
    if rho < 1.0:
        tail = t_abs * rho / (1.0 - rho)
        if rho <= rho_prev and (tail <= tol * (1.0 if a > 1.0 else a if a > 1e-300 else 1e-300)
                                or tail <= ONE_SIGN_FLOOR * a and tsum <= 2.0 * a):
            converged = True  # an if, not a stored bool: None stays as cheap
    if not converged and n < max_terms:
        return None
    rounding = _UNIT * tsum * (grow * n + 1.0 + abs(math.log(tsum))) if tsum else 0.0
    return tuple.__new__(SeriesResult, (s, n, tail, converged, rounding))  # SeriesResult._make's step


def accumulate(pairs, tol: float, max_terms: int, grow: float = 2.0) -> SeriesResult:
    """Sum a (term, |next/current| ratio) stream until `settle` ends it.

    A zero ratio marks exact termination (a Pochhammer factor hit zero);
    an infinite one says no tail bound holds yet.  The running sum of the
    term sizes goes to `settle`, and so does grow, the relative error per
    index of a term: 2 for terms taken as exp of their log, as
    `logsig_pairs` gives them, p + q + 2 for a pFq recurrence.
    """
    s = c = 0.0  # the Neumaier step of CompensatedSum.add, written out
    n = 0
    t_abs = 0.0
    tsum = 0.0
    rho = math.inf
    for n, (t, r) in enumerate(pairs, 1):
        u = s + t
        t_abs = abs(t)
        tsum += t_abs
        if abs(s) >= t_abs:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        res = settle(n, t_abs, r, rho, s + c, tol, max_terms, tsum, grow)
        if res is not None:
            return res
        rho = r
    # a stream that ran out is cut at its last term: rho_prev = -inf certifies nothing
    return settle(max(n, 1), t_abs, rho, -math.inf, s + c, tol, 1, tsum, grow)
