"""Generalized Wright functions, their k-deformation, and pFq.

A Wright spec carries rows (a_i, alpha_i) over (b_j, beta_j) and evaluates

    sum_n  prod_i Gamma(a_i + alpha_i n) / prod_j Gamma(b_j + beta_j n) * z^n / n!

with Gamma replaced by Gamma_k(., k_scale) for the deformed variant; the
k_scale = 1 case degenerates to the classical function through the identical
code path.  Entire-function evaluation requires the margin
Delta = sum beta_j - sum alpha_i > -k_scale, checked at construction (the
weights act as alpha/k_scale); the boundary Delta = -k_scale is rejected
rather than special-cased.  All offsets must stay positive along the series,
which for n >= 0 means positive offsets and nonnegative weights.
`eval_k_wright` and `eval_pfq` each sum in one written-out loop, bit for bit
as `accumulate` sums `logsig_pairs` and `_pfq_pairs`, the streams that the
canonical right side and `wright_pfq_reduction_check` still use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from .errors import DomainError
from .kgamma import _kval, log_k_gamma
from .summation import SeriesResult, accumulate, check_series_args, is_positive, is_real, logsig_pairs
from .summation import rel_diff, settle, side_value

__all__ = [
    "WrightSpec",
    "convergence_margin",
    "eval_wright",
    "eval_k_wright",
    "eval_pfq",
    "wright_pfq_reduction_check",
    "wright_terms_logsig",
]


def _as_rows(rows, side: str) -> tuple[tuple[float, float], ...]:
    out = []
    for row in rows:
        try:
            off, wt = row
        except (TypeError, ValueError):
            raise DomainError(f"{side} rows must be (offset, weight) pairs, got {row!r}") from None
        if not (is_real(off) and is_real(wt)):
            raise DomainError(f"{side} row not finite: {row!r}")
        off, wt = float(off), float(wt)
        if not off > 0:
            raise DomainError(f"{side} offset must be positive, got {off!r}")
        if wt < 0:
            raise DomainError(f"{side} weight must be nonnegative, got {wt!r}")
        out.append((off, wt))
    return tuple(out)


@dataclass(frozen=True)
class WrightSpec:
    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]
    k_scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", _as_rows(self.upper, "upper"))
        object.__setattr__(self, "lower", _as_rows(self.lower, "lower"))
        if not is_positive(self.k_scale):
            raise DomainError(f"k_scale must be positive, got {self.k_scale!r}")
        object.__setattr__(self, "k_scale", float(self.k_scale))
        # Gamma_k(a + wn) = k^((a+wn)/k - 1) Gamma((a+wn)/k): a plain Wright series
        # with weights w/k_scale, so the entirety threshold scales with k_scale.
        margin = convergence_margin(self)
        if not margin > -self.k_scale:
            raise DomainError(
                f"convergence margin sum(beta) - sum(alpha) = {margin!r} "
                f"must exceed {-self.k_scale!r} for entire-function evaluation"
            )


def convergence_margin(s: WrightSpec) -> float:
    """Delta = sum of lower weights - sum of upper weights."""
    return math.fsum(wt for _, wt in s.lower) - math.fsum(wt for _, wt in s.upper)


def wright_terms_logsig(upper, lower, k_scale: float, z: float):
    """(log |n-th term| without its |z|^n factor, sign of the term) for
    n = 0, 1, 2, ... and the rows (a_i, alpha_i) over (b_j, beta_j).  Each row adds or
    takes ln Gamma_k(x), x = a + alpha n, by the formula of `log_k_gamma` with k and ln k
    taken once; an x that is not a float in (0, inf) goes through `log_k_gamma` itself."""
    k = _kval(k_scale)  # checked here once, not at every term
    lk, lgamma, inf = math.log(k), math.lgamma, math.inf
    rows = [(off, wt, 1.0) for off, wt in upper] + [(off, wt, -1.0) for off, wt in lower]
    for n in count():
        lg = -lgamma(n + 1.0)
        for off, wt, sg in rows:  # sg * v is exactly v or -v
            x = off + wt * n
            if type(x) is float and 0.0 < x < inf:
                w = x / k
                lg += sg * ((w - 1.0) * lk + lgamma(w))
            else:
                lg += sg * log_k_gamma(x, k)
        yield lg, -1 if z < 0 and n % 2 else 1


def eval_k_wright(s: WrightSpec, z: float, tol: float = 1e-10, max_terms: int = 400) -> SeriesResult:
    """Evaluate the Gamma_k-deformed Wright series at real z, reading
    `wright_terms_logsig` a term ahead to take each term ratio as an exp."""
    z, max_terms = check_series_args(z, tol, max_terms)
    terms = wright_terms_logsig(s.upper, s.lower, s.k_scale, z)
    cur, sg = next(terms)
    if z == 0.0:
        return SeriesResult(math.exp(cur), 1, 0.0, True)
    exp, lz, rho = math.exp, math.log(abs(z)), math.inf
    acc = c = tsum = 0.0  # the Neumaier step of CompensatedSum.add, written out
    for n, (nxt, sg_next) in enumerate(terms):  # no term has sign 0: every ratio is an exp
        t_abs = exp(cur + n * lz)
        t = sg * t_abs
        r = exp(nxt - cur + lz)
        u = acc + t
        tsum += t_abs
        if abs(acc) >= t_abs:
            c += (acc - u) + t
        else:
            c += (t - u) + acc
        acc = u
        res = settle(n + 1, t_abs, r, rho, acc + c, tol, max_terms, tsum, 2.0)
        if res is not None:
            return res
        rho = r
        cur, sg = nxt, sg_next


def eval_wright(s: WrightSpec, z: float, tol: float = 1e-10, max_terms: int = 400) -> SeriesResult:
    """Classical Wright series; requires a spec with k_scale = 1."""
    if s.k_scale != 1.0:
        raise DomainError(f"classical evaluation needs k_scale = 1, got {s.k_scale!r}")
    return eval_k_wright(s, z, tol=tol, max_terms=max_terms)


def _pfq_pairs(upper, lower, z: float):
    # rho bounds every term ratio from index n on.  Each paired factor (a+m)/(d+m), d from lower + [1],
    # moves monotonically toward 1 for m >= n once d + n > 0, so max(|current|, 1) bounds its whole
    # tail; unpaired denominators only shrink the ratio further.  No bound (inf) while some d + n <= 0.
    dens = list(lower) + [1.0]
    least, pairs, unpaired, az = min(dens), list(zip(upper, dens)), dens[len(upper):], abs(z)
    t = 1.0
    for n in count():
        r = z / (n + 1.0)
        for aj in upper:
            r *= aj + n
        for bj in lower:
            r /= bj + n
        if r == 0.0:  # a Pochhammer factor hit zero: exact termination
            rho = 0.0
        elif least + n <= 0:
            rho = math.inf
        else:
            rho = az
            for aj, dj in pairs:
                x = abs(aj + n) / (dj + n)  # finite: d + n > 0 was checked
                rho *= x if x > 1.0 else 1.0
            for d in unpaired:
                rho /= d + n
        yield t, rho
        t *= r


def _real_params(upper, lower) -> tuple[list[float], list[float]]:
    """Upper and lower parameters as float lists, under the real rule."""
    upper, lower = list(upper), list(lower)
    if not all(map(is_real, upper + lower)):
        raise DomainError(f"hypergeometric parameters must be finite reals, got {upper!r} and {lower!r}")
    return [float(v) for v in upper], [float(v) for v in lower]


def eval_pfq(upper, lower, z: float, tol: float = 1e-10, max_terms: int = 400) -> SeriesResult:
    """Generalized hypergeometric sum_n prod (a_j)_n / prod (b_j)_n * z^n / n!.

    Converges for p <= q everywhere and for p = q + 1 inside |z| < 1; other
    shapes are rejected.  Lower parameters must avoid nonpositive integers.
    The loop takes each term ratio and tail bound as `_pfq_pairs` does.
    """
    upper, lower = _real_params(upper, lower)
    z, max_terms = check_series_args(z, tol, max_terms)
    p, q = len(upper), len(lower)
    if p > q + 1:
        raise DomainError(f"series diverges for p > q + 1 (p={p}, q={q})")
    if p == q + 1 and not abs(z) < 1.0:
        raise DomainError(f"p = q + 1 requires |z| < 1, got z={z!r}")
    for bj in lower:
        if bj <= 0 and bj == math.floor(bj):
            raise DomainError(f"lower parameter {bj!r} is a nonpositive integer")
    dens = lower + [1.0]
    least, pairs, unpaired, az, grow = min(dens), list(zip(upper, dens)), dens[p:], abs(z), p + q + 2.0
    t, s, c, tsum, rho_prev = 1.0, 0.0, 0.0, 0.0, math.inf
    for n in count():
        r, rho = z / (n + 1.0), az
        for aj, dj in pairs:  # rho counts only where every d + n > 0, and no d + n is 0
            x = aj + n
            r *= x
            x = abs(x) / (dj + n)
            rho *= x if x > 1.0 else 1.0
        for bj in lower:
            r /= bj + n
        if r == 0.0:
            rho = 0.0
        elif least + n <= 0:
            rho = math.inf
        else:
            for d in unpaired:
                rho /= d + n
        u = s + t
        t_abs = abs(t)
        tsum += t_abs
        if abs(s) >= t_abs:
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        res = settle(n + 1, t_abs, rho, rho_prev, s + c, tol, max_terms, tsum, grow)
        if res is not None:
            return res
        rho_prev = rho
        t *= r


def _weight1_pairs(upper, lower, z: float):
    """Unit-weight Wright terms, each with the ratio bound `_pfq_pairs`
    yields for the same index: the weight-1 term ratios equal the pFq ones."""
    terms = wright_terms_logsig([(a, 1.0) for a in upper], [(b, 1.0) for b in lower], 1.0, z)
    pairs = zip(logsig_pairs(terms, math.log(abs(z))), _pfq_pairs(upper, lower, z))
    return ((t, rho) for (t, _), (_, rho) in pairs)


def wright_pfq_reduction_check(upper, lower, z: float, tol: float = 1e-12, max_terms: int = 400) -> float:
    """Relative gap between the all-weights-1 Wright series and the scaled pFq.

    With unit weights the Wright series equals
    (prod Gamma(a_i) / prod Gamma(b_j)) * pFq; returns the relative
    discrepancy between the two independently summed sides, or raises
    NonConvergenceError naming a side that stopped short of tol.
    """
    upper, lower = _real_params(upper, lower)
    for side, vals in (("upper", upper), ("lower", lower)):
        for v in vals:
            if not v > 0:
                raise DomainError(f"reduction check needs positive {side} parameters, got {v!r}")
    scale = math.exp(math.fsum(math.lgamma(a) for a in upper) - math.fsum(math.lgamma(b) for b in lower))
    pfq = eval_pfq(upper, lower, z, tol=tol, max_terms=max_terms)
    # one route for every shape: at p = q + 1 the weight-1 margin is exactly -1,
    # which WrightSpec refuses, yet the series converges inside |z| < 1 (enforced
    # by the pFq side)
    if z == 0.0:
        lhs = SeriesResult(scale, 1, 0.0, True)
    else:
        lhs = accumulate(_weight1_pairs(upper, lower, float(z)), tol, max_terms,
                         grow=len(upper) + len(lower) + 2.0)
    return rel_diff(scale * side_value("pFq", pfq), side_value("Wright", lhs))
