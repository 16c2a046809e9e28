"""Generalized modified k-Bessel series and its first-kind companion.

Both are one power series,

    S(x) = sum_n (gamma)_{n,k} x^n / (Gamma_k(lambda1 n + s0) (n!)^2):

the generalized series is (z/2)^nu S(c (z/2)^2) with s0 = nu + (b+1)/2,

    J(z) = sum_n c^n (gamma)_{n,k} / Gamma_k(lambda1 n + nu + (b+1)/2)
                 * (z/2)^(nu+2n) / (n!)^2,

and the first-kind variant is S(-z/2) with s0 = nu + 1, its argument
entering at the first power.  Both are summed in the half-argument z/2;
where it is 0.0, z = 5e-324 included, a series is its n = 0 term.
One recurrence sums S for both:

* in general, terms are carried in log-magnitude/sign form with the k-Gamma
  ratio taken from consecutive log Gamma_k values, written out with ln k taken
  once per table, and summed with Neumaier compensation in the same loop;
* for the generalized series with lambda1/k a whole number m from 1 to 16,
  the k-Gamma ratio between consecutive terms telescopes into an exact
  m-factor product, and the whole recurrence runs in double-double
  arithmetic (a row costs m products, so a larger m takes the log path).  It
  holds sums that can cancel (c < 0 or gamma < 0), which lose ~4 digits at
  z = 10.  A one-sign sum (c > 0, gamma >= 0) cannot cancel: it takes these
  rows only where its sum on log rows, tried first, has a rounding bound R
  past tol |value| (the log sum stops where its R must end up past it).

Both paths stop where `summation.settle` says, called once per term with
the running sum of the term sizes, from which it decides the one-sign floor
and bounds the sum's rounding error R (`SeriesResult.rounding`): term n is off
by (2 + m) n u on the double-double path; `_LogTable.series` adds its own.
Apart from the tables, the generalized series is also a forward
(log |t_n|, sign_n) stream, `bessel_terms_logsig`, carrying the Pochhammer
log and sign from term to term: the canonical right sides of the identities
sum it, and it is the independent cross-check on the tables' recurrences.

Every part of a term ratio except the power of the argument depends on the
parameters alone: the Pochhammer factor, the factorials and the k-Gamma
ratio; on the double-double path a row is their product, with its leading
double's Dekker split and size (times w^2, the truncation test's ratio),
and on the log path a row says whether the term's sign turns.  These z-free
parts live in a term table, `_table` of the `BesselParams` object, and a
one-sign sum's log rows in `_log`, built when the object is made (c != 0)
and kept in the instance dict.  No table is a field, so ==, hash, repr and
astuple ignore them, and each goes with its object; there is no module-level
cache.  Each table sums its own path in one loop that builds, reads and sums
the rows: `evaluate` on either path, and `_LogTable.series` for the first
kind as well.  Row n is built the first time any evaluation on that object
reaches term n and read by every later call, so the ~240 nodes of an
integral pay for each row once; a row does not depend on which call built
it.  The double-double path's per-term product dd_mul(dd_mul_d(t, w^2), row)
is written out in its loop, with w^2's Dekker split taken once per call and
the row's kept in the row, in the helpers' arithmetic and order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice, repeat

from .errors import DomainError
from .kgamma import k_gamma, log_k_gamma
from .summation import SeriesResult, check_arg, check_series_args, settle
from .summation import _SPLIT, _UNIT, dd_add, dd_div_d, dd_mul_d, is_positive, is_real, is_whole

__all__ = [
    "BesselParams",
    "bessel_terms_logsig",
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
        if not is_positive(self.k):
            raise DomainError(f"k must be positive, got {self.k!r}")
        vals = (self.k, self.nu, self.gamma, self.lambda1, self.c, self.b)
        if not all(map(is_real, vals)):
            raise DomainError(f"parameters must be finite reals, got {vals!r}")
        if not self.lambda1 > 0:
            raise DomainError(f"lambda1 must be positive, got {self.lambda1!r}")
        if self.nu < 0:
            raise DomainError(f"nu must be nonnegative, got {self.nu!r}")
        if not self.s0 > 0:
            raise DomainError(f"nu + (b+1)/2 must be positive, got nu={self.nu!r} b={self.b!r}")
        if self.c:  # the term tables (see the module docstring), not fields
            m = self.lambda1 / self.k
            mi = round(m) if m < 16.5 else 0
            dd = mi >= 1 and abs(m - mi) <= 1e-12 * m
            log = (_LogTable(self.k, self.gamma, self.lambda1, self.s0, math.log(abs(self.c)), self.c < 0.0)
                   if not dd or self.c > 0.0 and self.gamma >= 0.0 else None)  # one-sign: beside the dd rows
            object.__setattr__(self, "_table", _DDTable(self.k, self.gamma, self.lambda1, self.c, self.s0, mi)
                               if dd else log)
            object.__setattr__(self, "_log", log if dd else None)

    @property
    def s0(self) -> float:
        """nu + (b+1)/2, the Gamma_k argument of the n = 0 term; not a field."""
        return self.nu + 0.5 * (self.b + 1.0)


def bessel_terms_logsig(p: BesselParams, w: float):
    """(log |t_n|, sign_n) of the series terms at half-argument w = z/2 >= 0
    for n = 0, 1, 2, ....  The stream ends, yielding (-inf, 0) forever, at a
    Pochhammer zero and past n = 0 where c = 0 or w = 0; at w = 0 the n = 0
    term is w^nu / Gamma_k(s0) with 0^0 = 1, so log |t_0| is -inf at nu > 0.

    The Pochhammer log and sign are carried from term to term.
    """
    lc = math.log(abs(p.c)) if p.c else 0.0
    # at w = 0 only the n = 0 term reads lw, as nu lw = log 0^nu
    lw = math.log(w) if w else (-math.inf if p.nu else 0.0)
    lp = 0.0
    sg = 1
    for n in count():
        lg = (n * lc + lp + (p.nu + 2.0 * n) * lw
              - log_k_gamma(p.lambda1 * n + p.s0, p.k) - 2.0 * math.lgamma(n + 1.0))
        yield lg, -sg if p.c < 0.0 and n % 2 else sg
        f = p.gamma + n * p.k
        if f == 0.0 or p.c == 0.0 or not w:
            yield from repeat((-math.inf, 0))
        if f < 0.0:
            sg = -sg
        lp += math.log(abs(f))


def gmk_bessel_term(p: BesselParams, z: float, n: int) -> float:
    """n-th series term at real z >= 0, the n-th item of
    `bessel_terms_logsig` (reference for the recurrences)."""
    if not is_whole(n, 0):
        raise DomainError(f"term index must be an integer >= 0, got {n!r}")
    z = check_arg(z)
    if z < 0:
        raise DomainError(f"argument must be >= 0, got {z!r}")
    lg, sg = next(islice(bessel_terms_logsig(p, 0.5 * z), int(n), None))
    return sg * math.exp(lg) if sg else 0.0


def _lead(w: float, e: float, s0: float, k: float, g: float | None = None) -> float:
    """Leading factor w**e / Gamma_k(s0), 0**0 = 1; through logs where a
    factor leaves double range (OverflowError, or Gamma_k inf or 0).  g is
    Gamma_k(s0) where the caller has it, inf where k_gamma overflowed."""
    try:
        lead = w**e
        if not lead:
            return 0.0  # needs no Gamma_k(s0)
        if g is None:
            g = k_gamma(s0, k)
        if 0.0 < g < math.inf:
            return lead / g
    except OverflowError:
        pass
    return math.exp((e * math.log(w) if e else 0.0) - log_k_gamma(s0, k))


# Rows are stored by slice assignment: if another thread sharing the object
# added row n meanwhile, it is replaced by an equal row, never duplicated.


class _LogTable:
    """z-free rows of the log/sign recurrence, and its sum, for

        S(x) = sum_n (gamma)_{n,k} x^n / (Gamma_k(lam n + s0) (n!)^2)

    at x = c u, lc = log|c|, neg = c u < 0 (c < 0 for the generalized series, z > 0
    for the first kind).  With g = gamma + n k and L_n = log Gamma_k(lam n + s0), row n
    is (lc + log|g|, 2 log(n+1), L_{n+1} - L_n, neg != (g < 0), L_{n+1}), the fourth
    entry whether the sign turns from term n to n+1, or None where g = 0 ends the series.
    k is a float with lk = ln k beside it: L_{n+1} is `log_k_gamma`'s formula written out,
    its argument positive as lam > 0 and s0 > 0 (both callers check them).  lgk0 = L_0 is
    nan where it overflows: the first evaluation, not the constructor, raises the OverflowError.
    errs[n] sums 2 |a| + 2 b + |d| over rows (a, b, d, ...) 0 to n-1, for the rounding bound."""

    __slots__ = ("k", "lk", "gamma", "lam", "s0", "lc", "neg", "lgk0", "rows", "errs")

    def __init__(self, k, gamma, lam, s0, lc, neg) -> None:
        self.k = k = float(k)  # BesselParams may pass an int
        self.lk, self.gamma, self.lam, self.s0, self.lc, self.neg = math.log(k), gamma, lam, s0, lc, neg
        try:
            self.lgk0 = log_k_gamma(s0, self.k)
        except OverflowError:
            self.lgk0 = math.nan
        self.rows = []
        self.errs = [0.0]

    def evaluate(self, w: float, nu: float, tol: float, max_terms: int, lim: float = math.inf) -> SeriesResult | None:
        """w^nu / Gamma_k(s0) * S(c w^2) at w > 0."""
        lw = math.log(w)
        return self.series(nu * lw, 2.0 * lw, tol, max_terms, lim)

    def series(self, lead: float, lu: float, tol: float, max_terms: int, lim: float = math.inf) -> SeriesResult | None:
        """exp(lead) S(c u), lu = log|u|, summed with Neumaier compensation
        until `settle` ends it.  Builds row n here the first time any call
        reaches term n.  Term n is exp(big), big carried from term to term, so
        R (see `settle`) gains u tsum times big's error at the last term n:
        2 |lead| + 5 (|L_0| + |L|) for the lead and the ln Gamma_k ends (L the
        last row's), errs[n] for the rows' inputs and steps, and n (max |big|
        + 3 |lu|) for big's additions, max |big| <= max(-lo, ln tsum).  None where, at a
        row it would build, errs[n] + n (3 |lu| - lo) > lim already puts R past lim u tsum."""
        k, lk, gamma, lam, s0, lc, neg, rows, errs = (
            self.k, self.lk, self.gamma, self.lam, self.s0, self.lc, self.neg, self.rows, self.errs)
        exp, log, lgamma = math.exp, math.log, math.lgamma
        built = len(rows)  # rows past these are built here, in order
        lgk = self.lgk0
        big = lo = lead - lgk
        l3 = 3.0 * abs(lu)
        sgn = 1
        s = c = 0.0  # the Neumaier step of CompensatedSum.add, written out
        rho = math.inf
        tsum = 0.0
        for n in count():
            t_abs = exp(big)
            t = sgn * t_abs
            if n < built:
                row = rows[n]
            else:
                if errs[n] + n * (l3 - lo) > lim:
                    return None
                g = gamma + n * k
                row = None
                if g != 0.0:
                    w = (lam * (n + 1) + s0) / k
                    lgk_next = (w - 1.0) * lk + lgamma(w)
                    a, b, d = lc + log(abs(g)), 2.0 * log(n + 1.0), lgk_next - lgk
                    row = (a, b, d, neg != (g < 0.0), lgk_next)
                    errs[n + 1:n + 2] = (errs[n] + 2.0 * (abs(a) + b) + abs(d),)
                rows[n:n + 1] = (row,)  # after errs: a call that reads row n finds errs[n + 1]
            u = s + t
            tsum += t_abs
            if abs(s) >= t_abs:
                c += (s - u) + t
            else:
                c += (t - u) + s
            s = u
            if row is None:  # exact termination: no tail
                res = settle(n + 1, t_abs, 0.0, rho, s + c, tol, max_terms, tsum, 2.0)
                if res is None:  # settle never says so here, but a stand-in for it in the tests may
                    return res
            else:
                a, b, d, flip, lgk = row
                dlg = a + lu - b
                dlg -= d
                rho_prev = rho
                rho = exp(dlg)
                res = settle(n + 1, t_abs, rho, rho_prev, s + c, tol, max_terms, tsum, 2.0)
            if res is not None:  # R gains the exponent's error (see the docstring)
                hi = log(tsum) if tsum else 0.0
                e = (2.0 * abs(lead) + 5.0 * (abs(self.lgk0) + abs(lgk)) + errs[n]
                     + n * ((hi if hi > -lo else -lo) + 3.0 * abs(lu)))
                return tuple.__new__(SeriesResult, (*res[:4], res[4] + _UNIT * tsum * e))
            big += dlg
            if big < lo:
                lo = big
            if flip:
                sgn = -sgn


class _DDTable:
    """z-free rows of the double-double recurrence for integer lambda1/k = m.

    Gamma_k(s + m k) / Gamma_k(s) telescopes to prod_{j<m} (s + j k), so the
    term ratio is c g w^2 / ((n+1)^2 prod_j (lambda1 n + s0 + j k)) with
    g = gamma + n k and w = z/2.  Row n is the z-free ratio (hi, lo) in
    double-double, c g divided by (n+1)^2 and then by each of the m factors,
    followed by hi's Dekker split and |hi|: (hi, lo, hi_hi, hi_lo, |hi|); or
    None where g = 0 ends the series.  gk0 is Gamma_k(s0) of the prefactor
    w^nu / Gamma_k(s0), inf where it overflows.
    """

    __slots__ = ("k", "gamma", "lambda1", "c", "s0", "m", "gk0", "rows")

    def __init__(self, k, gamma, lambda1, c, s0, m) -> None:
        self.k, self.gamma, self.lambda1, self.c, self.s0, self.m = k, gamma, lambda1, c, s0, m
        try:
            self.gk0 = k_gamma(s0, k)
        except OverflowError:
            self.gk0 = math.inf
        self.rows = []

    def evaluate(self, w: float, nu: float, tol: float, max_terms: int) -> SeriesResult:
        """w^nu / Gamma_k(s0) * S(c w^2); the prefactor is a common factor,
        applied once at the end.  Builds row n here the first time any call
        reaches term n.  Raises OverflowError, through `settle`, at the first
        partial sum past double range, as the log path does."""
        k, gamma, lambda1, c, s0, m, rows = (
            self.k, self.gamma, self.lambda1, self.c, self.s0, self.m, self.rows)
        pref = _lead(w, nu, s0, k, self.gk0)
        w2 = w * w
        cs = _SPLIT * w2  # the Dekker split of w2, taken once for every term
        wh = cs - (cs - w2)
        wl = w2 - wh
        th, tl = 1.0, 0.0  # the term, a double-double
        acc = (1.0, 0.0)
        rho = math.inf
        tsum = 0.0
        grow = 2.0 + m
        built = len(rows)  # rows past these are built here, in order
        for n in count():
            if n < built:
                row = rows[n]
            else:
                g = gamma + n * k
                row = None
                if g != 0.0:
                    row = dd_div_d(dd_mul_d((g, 0.0), c), (n + 1.0) * (n + 1.0))
                    for j in range(m):
                        row = dd_div_d(row, lambda1 * n + s0 + j * k)
                    b, lo = row
                    cs = _SPLIT * b
                    bh = cs - (cs - b)
                    row = (b, lo, bh, b - bh, abs(b))
                rows[n:n + 1] = (row,)
            rho_prev = rho
            t_abs = abs(th) * pref
            tsum += t_abs
            s = pref * (acc[0] + acc[1])
            if row is None:  # exact termination with no tail, even where w2 or the scaled term overflows
                return settle(n + 1, 0.0, 0.0, rho_prev, s, tol, max_terms, tsum, grow)
            b, lo, bh, bl, size = row
            rho = size * w2
            res = settle(n + 1, t_abs, rho, rho_prev, s, tol, max_terms, tsum, grow)
            if res is not None:
                return res
            # t <- dd_mul(dd_mul_d(t, w2), row), written out
            p = th * w2
            cs = _SPLIT * th
            ah = cs - (cs - th)
            al = th - ah
            e = ((ah * wh - p) + ah * wl + al * wh) + al * wl
            e += tl * w2
            th = p + e
            tl = e - (th - p)
            p = th * b
            cs = _SPLIT * th
            ah = cs - (cs - th)
            al = th - ah
            e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
            e += th * lo + tl * b
            th = p + e
            tl = e - (th - p)
            acc = dd_add(acc, (th, tl))


def eval_gmk_bessel(
    p: BesselParams, z: float, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """Evaluate the generalized modified k-Bessel series at real z >= 0."""
    z, max_terms = check_series_args(z, tol, max_terms)
    if z < 0:
        raise DomainError(f"argument must be >= 0, got {z!r}")
    w = 0.5 * z
    if w == 0.0 or p.c == 0.0:
        # only the n = 0 term
        return SeriesResult(_lead(w, p.nu, p.s0, p.k), 1, 0.0, True)
    if p._log is not None:  # a one-sign sum: the log rows first, where their rounding meets tol
        r = p._log.evaluate(w, p.nu, tol, max_terms, tol / _UNIT)
        if r is not None and r.rounding <= tol * abs(r.value):
            return r
    return p._table.evaluate(w, p.nu, tol, max_terms)


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
    if not is_positive(k):
        raise DomainError(f"k must be positive, got {k!r}")
    for name, v in (("nu", nu), ("gamma", gamma), ("lam", lam)):
        check_arg(v, name)
    if not lam > 0:
        raise DomainError(f"lam must be positive, got {lam!r}")
    if not nu + 1.0 > 0:
        raise DomainError(f"nu + 1 must be positive, got nu={nu!r}")
    w = abs(0.5 * z)
    if w == 0.0:
        return SeriesResult(_lead(0.0, 0.0, nu + 1.0, k), 1, 0.0, True)
    table = _LogTable(float(k), float(gamma), float(lam), nu + 1.0, 0.0, z > 0.0)
    return table.series(0.0, math.log(w), tol, max_terms)
