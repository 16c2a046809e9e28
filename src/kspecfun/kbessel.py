"""Generalized modified k-Bessel series and its first-kind companion.

Both are one power series,

    S(x) = sum_n (gamma)_{n,k} x^n / (Gamma_k(lambda1 n + s0) (n!)^2):

the generalized series is (z/2)^nu S(c (z/2)^2) with s0 = nu + (b+1)/2,

    J(z) = sum_n c^n (gamma)_{n,k} / Gamma_k(lambda1 n + nu + (b+1)/2)
                 * (z/2)^(nu+2n) / (n!)^2,

and the first-kind variant is S(-z/2) with s0 = nu + 1, its argument
entering at the first power.  Both are summed in the half-argument z/2;
where it is 0.0, z = 5e-324 included, a series is its n = 0 term.
One term table, `_PlainTable`, sums every generalized series with c != 0.
Its row n is the z-free part of the ratio of term n+1 to term n (the
Pochhammer factor, the factorials and the k-Gamma ratio), in plain doubles;
the rows take the k-Gamma ratio

* at a whole lambda1/k = m from 1 to 16, as the exact m-factor product it
  telescopes into.  A sum whose R misses tol goes to the table's
  double-double rows (`_PlainTable.dd`), and so does a series that can cancel
  (c < 0 or gamma < 0, ~4 digits lost at z = 10) where its first term ratio
  is past 1;
* at any other m, as one exp(L_n - L_{n+1}) of consecutive ln Gamma_k values,
  ln k taken once per table.  No rows are more accurate there, so the plain
  sum is the answer whatever its R.

A sum with a value off the normal range goes to the rows of a `_LogTable`,
terms in log-magnitude/sign form (at a whole m, one that can cancel to the dd
rows), which the first kind always takes.  Every sum stops where
`summation.settle` says (the plain loops call it only at the term that ends
the sum), which from the running sum of the term sizes decides the one-sign
floor and bounds the sum's rounding error R (`SeriesResult.rounding`): term n
is off by (2 + m) n u on dd rows and (5 m + 6) n u on plain rows (m = 1 for an
exp row), and the exp rows and `_LogTable.series` add their ln Gamma_k errors.
The generalized series is also a forward (log |t_n|, sign_n) stream,
`bessel_terms_logsig`, which the canonical right sides sum: the independent
cross-check on the tables.

A `BesselParams` object builds its table, `_table`, when it is made (c != 0)
and keeps it in the instance dict: not a field, so ==, hash, repr and astuple
ignore it, and no module-level cache holds it.  Row n is built the first time
any call on the object reaches term n, the same whichever call builds it, and
read by every later call: the ~240 nodes of an integral pay for it once.
`eval_k_bessel_first` sums a fresh `_LogTable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice, repeat

from .errors import DomainError
from .kgamma import k_gamma, log_k_gamma
from .summation import ONE_SIGN_FLOOR, SeriesResult, check_arg, check_series_args, settle
from .summation import _MAX, _SPLIT, _UNIT, dd_add, dd_div_d, dd_mul_d, is_positive, is_real, is_whole

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
        if self.c:  # the term table (see the module docstring), not a field
            m = self.lambda1 / self.k
            mi = round(m) if m < 16.5 else 0
            table = _PlainTable(self.k, self.gamma, self.lambda1, self.c, self.s0,
                                mi if mi >= 1 and abs(m - mi) <= 1e-12 * m else 0)
            object.__setattr__(self, "_table", table)

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
    is (a, b, d, flip, L_{n+1}, err) = (lc + log|g|, 2 log(n+1), L_{n+1} - L_n, neg != (g < 0),
    L_{n+1}, err), flip whether the sign turns from term n to n+1 and err the running sum of
    2 |a| + 2 b + |d| over rows 0 to n, for the rounding bound; or None where g = 0 ends the series.
    k is a float with lk = ln k beside it: L_{n+1} is `log_k_gamma`'s formula written out, its
    argument positive as lam > 0 and s0 > 0 (both callers check them).  The constructor raises
    `log_k_gamma`'s OverflowError where L_0 = lgk0 is past double range."""

    __slots__ = ("k", "lk", "gamma", "lam", "s0", "lc", "neg", "lgk0", "rows")

    def __init__(self, k, gamma, lam, s0, lc, neg) -> None:
        self.k = k = float(k)  # BesselParams may pass an int
        self.lk, self.gamma, self.lam, self.s0, self.lc, self.neg = math.log(k), gamma, lam, s0, lc, neg
        self.lgk0, self.rows = log_k_gamma(s0, k), []

    def series(self, lead: float, lu: float, tol: float, max_terms: int) -> SeriesResult:
        """exp(lead) S(c u), lu = log|u|, summed with Neumaier compensation
        until `settle` ends it.  Builds row n here the first time any call
        reaches term n.  Term n is exp(big), big carried from term to term, so
        R (see `settle`) gains u tsum times big's error at the last term n:
        2 |lead| + 5 (|L_0| + |L|) for the lead and the ln Gamma_k ends (L the
        last row's), row n-1's err (0.0 at n = 0) for the rows' inputs and steps,
        and n (max |big| + 3 |lu|) for big's additions, max |big| <= max(-lo, ln tsum)."""
        k, lk, gamma, lam, s0, lc, neg, rows = (
            self.k, self.lk, self.gamma, self.lam, self.s0, self.lc, self.neg, self.rows)
        exp, log, lgamma = math.exp, math.log, math.lgamma
        built = len(rows)  # rows past these are built here, in order
        lgk = self.lgk0
        big = lo = lead - lgk
        sgn = 1
        s = c = 0.0  # the Neumaier step of CompensatedSum.add, written out
        rho = math.inf
        tsum = err = 0.0  # err: row n-1's
        for n in count():
            t_abs = exp(big)
            t = sgn * t_abs
            if n < built:
                row = rows[n]
            else:
                g = gamma + n * k
                row = None
                if g != 0.0:
                    w = (lam * (n + 1) + s0) / k
                    lgk_next = (w - 1.0) * lk + lgamma(w)
                    a, b, d = lc + log(abs(g)), 2.0 * log(n + 1.0), lgk_next - lgk
                    row = (a, b, d, neg != (g < 0.0), lgk_next, err + 2.0 * (abs(a) + b) + abs(d))
                rows[n:n + 1] = (row,)
            u = s + t
            tsum += t_abs
            if abs(s) >= t_abs:
                c += (s - u) + t
            else:
                c += (t - u) + s
            s = u
            if row is None:  # exact termination: no tail
                res = settle(n + 1, t_abs, 0.0, rho, s + c, tol, max_terms, tsum, 2.0)
            else:
                a, b, d, flip, lgk, err_n = row
                dlg = a + lu - b
                dlg -= d
                rho_prev = rho
                rho = exp(dlg)
                res = settle(n + 1, t_abs, rho, rho_prev, s + c, tol, max_terms, tsum, 2.0)
            if res is not None:  # R gains the exponent's error (see the docstring)
                hi = log(tsum) if tsum else 0.0
                e = (2.0 * abs(lead) + 5.0 * (abs(self.lgk0) + abs(lgk)) + err
                     + n * ((hi if hi > -lo else -lo) + 3.0 * abs(lu)))
                return tuple.__new__(SeriesResult, (*res[:4], res[4] + _UNIT * tsum * e))
            err = err_n
            big += dlg
            if big < lo:
                lo = big
            if flip:
                sgn = -sgn


class _PlainTable:
    """pref S(c w^2), pref = w^nu / Gamma_k(s0), in doubles on the rows `row` builds (see the module
    docstring), term n off by grow n u, grow = 5 m + 6, m = 1 for an exp row (README, "Settings"),
    whatever the terms' signs.  An exp row's ln Gamma_k errors telescope: R gains u tsum (5 (|L_0| +
    |L_n|) + sum_{j<n} |L_{j+1} - L_j|) at the last term n.  A sum off the normal range goes to the
    log rows in `log`.  At a whole m the dd rows in `rows` (see `dd`) take instead a sum there that
    can cancel, and a sum whose R misses tol |value|: the plain sum gives up past term (tol/u - 1) /
    grow, where R must miss it, and, where it can cancel, where rho_0 = |row 0| w^2 is past 1 or a
    tail bound shows that R will miss (see `evaluate`).  gk0 is Gamma_k(s0), inf where it overflows."""

    __slots__ = ("k", "gamma", "lambda1", "c", "s0", "m", "gk0", "rows", "prows", "log", "lrows", "lk", "n1")

    def __init__(self, k, gamma, lambda1, c, s0, m) -> None:
        self.k, self.gamma, self.lambda1, self.c, self.s0, self.m = k, gamma, lambda1, c, s0, m
        try:
            self.gk0 = k_gamma(s0, k)
        except OverflowError:
            self.gk0 = math.inf
        self.rows, self.prows, self.log, self.lrows, self.lk = [], [], None, [], math.log(k)
        # the give-up in `evaluate` starts where |row n| falls, past 1 - 2 gamma/k; short sums skip it
        self.n1 = max(8.0, 2.0 - 2.0 * gamma / k) if m else math.inf

    def row(self, n: int) -> float:
        """Row n, stored: c g / (n+1)^2 over each factor in turn, or at m = 0 times exp(L_n - L_{n+1}),
        L_n `log_k_gamma`(lambda1 n + s0, k)'s formula with ln k taken once, storing lrows[n + 1] =
        (L_{n+1}, the sum of |L_{j+1} - L_j| over j <= n), lrows[0] = (L_0, 0.0).  A step off the
        normal range makes it 0, an OverflowError unless g = 0 ends the series."""
        row = self.c * (g := self.gamma + n * self.k) / ((n + 1.0) * (n + 1.0))
        if self.m:
            for j in range(self.m):
                row = row / (self.lambda1 * n + self.s0 + j * self.k) if 2.0**-1022 <= abs(row) <= _MAX else 0.0
        else:  # L_0's argument lambda1 0 + s0 is s0
            lgk, dsum = self.lrows[n] if n else (((x := self.s0 / self.k) - 1.0) * self.lk + math.lgamma(x), 0.0)
            x = (self.lambda1 * (n + 1) + self.s0) / self.k
            nxt = (x - 1.0) * self.lk + math.lgamma(x)
            self.lrows[n:n + 2] = ((lgk, dsum), (nxt, dsum + abs(nxt - lgk)))
            row = row * math.exp(lgk - nxt) if 2.0**-1022 <= abs(row) <= _MAX else 0.0
        if not 2.0**-1022 <= abs(row) <= _MAX and g:
            raise OverflowError
        self.prows[n:n + 1] = (row,)
        return row

    def evaluate(self, w: float, nu: float, tol: float, max_terms: int) -> SeriesResult:
        """Each loop runs `settle`'s stop test (a partial sum not finite, or a converged tail) itself and
        calls `settle` once: where the test passes, at the cap, or where the plain sum gives up (None)."""
        c, gamma, m, n1, prows = self.c, self.gamma, self.m, self.n1, self.prows
        pref = _lead(w, nu, self.s0, self.k, self.gk0)
        cut = (tol / _UNIT - 1.0) / (grow := 5.0 * (m or 1) + 6.0)
        w2 = w * w
        t, s, e, tsum = 1.0, 0.0, 0.0, 0.0  # t over the prefactor; s, e: a compensated sum
        rho, res = math.inf, None  # None where the plain sum gives up
        signed = c < 0.0 or gamma < 0.0
        try:  # OverflowError: a value off the normal range, or rho_0 > 1 at a whole m
            if not 2.0**-1022 <= pref <= _MAX or m and signed and not (
                    abs(prows[0] if prows else self.row(0)) * w2 <= 1.0):
                raise OverflowError
            built = len(prows)  # rows past these are built here, in order
            stop = max_terms if cut >= max_terms or not m else int(cut) + 1
            if not signed:
                for n in range(stop):  # terms >= 0: CompensatedSum.add's Neumaier step
                    row = prows[n] if n < built else self.row(n)
                    t_abs = t * pref
                    tsum += t_abs
                    u = s + t
                    e += (s - u) + t if s >= t else (t - u) + s
                    s = u
                    rho_prev, rho = rho, row * w2
                    a = x = pref * (s + e)  # |x|, as x >= 0
                    if not a <= _MAX or rho < 1.0 and rho <= rho_prev and (
                            (tail := t_abs * rho / (1.0 - rho))
                            <= tol * (1.0 if a > 1.0 else a if a > 1e-300 else 1e-300)
                            or tail <= ONE_SIGN_FLOOR * a and tsum <= 2.0 * a):
                        break
                    t *= rho
            else:
                # from n1 on, where rho <= 1/2, the tail bounds the terms to come and so the value:
                # a lower bound on R past twice tol times that bound gives up
                for n in range(stop):  # terms of either sign: Knuth's two-sum, with the same exact error
                    r = (prows[n] if n < built else self.row(n)) * w2
                    t_abs = abs(t) * pref
                    tsum += t_abs
                    u = s + t
                    v = u - s
                    e += (s - (u - v)) + (t - v)
                    s = u
                    rho_prev, rho = rho, abs(r)
                    a = abs(x := pref * (s + e))
                    if not a <= _MAX or rho < 1.0 and rho <= rho_prev and (
                            (tail := t_abs * rho / (1.0 - rho))
                            <= tol * (1.0 if a > 1.0 else a if a > 1e-300 else 1e-300)
                            or tail <= ONE_SIGN_FLOOR * a and tsum <= 2.0 * a
                            or n >= n1 and rho <= 0.5
                            and _UNIT * tsum * (grow * n + grow + 1.0) > 2.0 * tol * (a + tail)):
                        break
                    t *= r
            res = settle(n + 1, t_abs, rho, rho_prev, x, tol, max_terms, tsum, grow)
            if not m:  # R gains the ln Gamma_k errors (see the class docstring)
                lgk, dsum = self.lrows[n]
                res = tuple.__new__(SeriesResult, (*res[:4], res[4] + _UNIT * tsum * (
                    5.0 * (abs(self.lrows[0][0]) + abs(lgk)) + dsum)))
        except OverflowError:
            if not (m and signed):
                if self.log is None:
                    self.log = _LogTable(self.k, gamma, self.lambda1, self.s0, math.log(abs(c)), c < 0.0)
                lw = math.log(w)
                res = self.log.series(nu * lw, 2.0 * lw, tol, max_terms)
        return res if not m or res and res.rounding <= tol * abs(res.value) else self.dd(w, pref, tol, max_terms)

    def dd(self, w: float, pref: float, tol: float, max_terms: int) -> SeriesResult:
        """pref S(c w^2) on the double-double rows of a whole m, which sum a series that can
        cancel.  Gamma_k(s + m k) / Gamma_k(s) telescopes to prod_{j<m} (s + j k), so row n, the
        term ratio over w^2, is c g / (n+1)^2 divided by each factor lambda1 n + s0 + j k in turn,
        g = gamma + n k, with hi's Dekker split and |hi|: (hi, lo, hi_hi, hi_lo, |hi|), or None where
        g = 0 ends the series.  Builds row n here the first time any call reaches term n.  Raises
        OverflowError, through `settle`, at the first partial sum past double range."""
        k, gamma, lambda1, c, s0, m, rows = (
            self.k, self.gamma, self.lambda1, self.c, self.s0, self.m, self.rows)
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
