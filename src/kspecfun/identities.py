"""Closed-form right sides, corollary reductions, and the verify harness.

For each of the two half-line integral identities there are two independent
right-side evaluators:

* the canonical series: the kernel's closed form applied to every term of
  the Bessel-type series (exponent pairs (mu, lam + nu + 2n) for the first
  identity, (mu + nu + 2n, lam + nu + 2n) for the second).  Term-wise
  integration makes it equal to the left side whenever the preconditions
  hold, so it serves as ground truth.
* the packaged k-Wright form, transcribed exactly as displayed at the
  source, prefactor and rows verbatim.  It is audited against the canonical
  value, never trusted; where the packaging disagrees the verdict is
  `canonical_only` and the per-term ratio is reported in the diagnostics.

The reduced-parameter (k = 1) packaged forms are transcribed separately so
the generic packaging can be cross-checked against them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import NamedTuple, Optional

from .errors import DomainError, NonConvergenceError
from .kbessel import BesselParams, bessel_terms_logsig, eval_gmk_bessel
from .quadrature import (
    ObParams,
    check_theorem_args,
    oberhettinger_closed_form,
    oberhettinger_lhs,
    theorem1_lhs,
    theorem2_lhs,
)
from .summation import SeriesResult, accumulate, check_arg, check_series_args, check_settings
from .summation import is_positive, is_real, logsig_pairs, rel_diff, side_value
from .wright import WrightSpec, eval_k_wright, wright_terms_logsig

__all__ = [
    "IDENTITIES",
    "IDENTITY_IDS",
    "Identity",
    "VERDICTS",
    "IdentityReport",
    "theorem1_rhs_canonical",
    "theorem1_rhs_paper",
    "theorem2_rhs_canonical",
    "theorem2_rhs_paper",
    "corollary1_rhs",
    "corollary3_rhs",
    "classical_reduction_check",
    "verify",
    "to_record",
    "CSV_FIELDS",
]

VERDICTS = ("match", "canonical_only", "mismatch", "inconclusive")

# the report fields a record carries after the parameters, in order
RESULT_FIELDS = (
    "lhs",
    "rhs_canonical",
    "rhs_paper",
    "rel_diff_canonical",
    "rel_diff_paper",
    "verdict",
    "quad_evals",
    "series_terms",
)


@dataclass(frozen=True, kw_only=True)
class IdentityReport:
    """One verify result; the defaults are those of a point never evaluated."""

    identity_id: str
    params: dict
    lhs: float = math.nan
    rhs_canonical: float = math.nan
    rhs_paper: Optional[float] = None
    rel_diff_canonical: float = math.nan
    rel_diff_paper: Optional[float] = None
    verdict: str = "inconclusive"
    tolerances: dict
    diagnostics: str = ""
    quad_evals: int = 0
    series_terms: int = 0


class Identity(NamedTuple):
    """How `verify` checks one identity.

    family 0 is the bare kernel integral; 1 and 2 weight the kernel with
    the Bessel series at y/phi(x, a) and x y/phi(x, a).  keys are the
    parameter names in record order.  fixed holds (key, value) pairs that
    replace the caller's values, which is how the corollaries specialize
    the theorems.  reduced selects the k = 1 packaged rows over the generic
    ones; classical_j appends the gap to the classical J reduction.
    """

    family: int
    keys: tuple[str, ...]
    fixed: tuple[tuple[str, float], ...] = ()
    reduced: bool = False
    classical_j: bool = False


_KERNEL_PARAMS = ("mu", "lam", "a")
_WEIGHTED_PARAMS = ("k", "nu", "gamma", "lambda1", "c", "b", *_KERNEL_PARAMS, "y")
CSV_FIELDS = ("identity", *_WEIGHTED_PARAMS, *RESULT_FIELDS)
_K_ONE = (("k", 1.0),)
_CLASSICAL = (("k", 1.0), ("lambda1", 1.0), ("gamma", 1.0), ("b", 1.0), ("c", -1.0))

IDENTITIES = MappingProxyType({
    "oberhettinger": Identity(0, _KERNEL_PARAMS),
    "theorem1": Identity(1, _WEIGHTED_PARAMS),
    "theorem2": Identity(2, _WEIGHTED_PARAMS),
    "corollary1": Identity(1, _WEIGHTED_PARAMS, _K_ONE, reduced=True),
    "corollary2": Identity(1, _WEIGHTED_PARAMS, _CLASSICAL, classical_j=True),
    "corollary3": Identity(2, _WEIGHTED_PARAMS, _K_ONE, reduced=True),
    "corollary4": Identity(2, _WEIGHTED_PARAMS, _CLASSICAL, classical_j=True),
})

IDENTITY_IDS = tuple(IDENTITIES)


def _canonical_terms_logsig(
    which: int, bp: BesselParams, mu: float, lam: float, a: float, y: float
):
    """(log |term_n|, sign) of the canonical right-side series for
    n = 0, 1, 2, ...: the Bessel terms times the kernel's closed form, one
    formula in the exponent pair (m, l) and the gap l - mu or lam - mu."""
    la = math.log(a)
    lha = math.log(0.5 * a)
    for n, (lg, sg) in enumerate(bessel_terms_logsig(bp, 0.5 * y)):
        if sg:
            ln_ = lam + bp.nu + 2.0 * n
            m, gap = (mu, ln_ - mu) if which == 1 else (mu + bp.nu + 2.0 * n, lam - mu)
            lg += math.log(2.0 * ln_) - ln_ * la
            lg += m * lha
            lg += math.lgamma(2.0 * m) + math.lgamma(gap) - math.lgamma(1.0 + ln_ + m)
        yield lg, sg


def _rhs_canonical(which, bp, mu, lam, a, y, tol, max_terms) -> SeriesResult:
    mu, lam, a, y = check_theorem_args(which, bp, mu, lam, a, y)
    check_series_args(y, tol, max_terms)
    terms = _canonical_terms_logsig(which, bp, mu, lam, a, y)
    return accumulate(logsig_pairs(terms, 0.0), tol, max_terms)


def theorem1_rhs_canonical(
    bp: BesselParams, mu, lam, a, y, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """Term-wise closed-form image of the first identity's series; ground truth."""
    return _rhs_canonical(1, bp, mu, lam, a, y, tol, max_terms)


def theorem2_rhs_canonical(
    bp: BesselParams, mu, lam, a, y, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """Term-wise closed-form image of the second identity's series; ground truth."""
    return _rhs_canonical(2, bp, mu, lam, a, y, tol, max_terms)


def _packaging(
    which: int, reduced: bool, bp: BesselParams, mu: float, lam: float, a: float, y: float
):
    """(prefactor, WrightSpec, argument) of a packaged form, rows verbatim.

    reduced selects the k = 1 reduced displays.  Both are stated after a
    c -> -c substitution, so their series argument carries -c relative to
    the generic packaging.
    """
    k = bp.k
    nu = bp.nu
    if reduced and which == 1:
        pref = 2.0 ** (1.0 - nu - mu) * a ** (mu - lam - nu) * y**nu * math.gamma(2.0 * mu)
        spec = WrightSpec(
            upper=((1.0 + lam + nu, 2.0), (nu + lam - mu, 2.0)),
            lower=((bp.s0, bp.lambda1), (1.0 + lam + nu + mu, 2.0), (lam + nu, 2.0)),
            k_scale=1.0,
        )
        arg = -bp.c * y * y / (4.0 * a * a)
    elif reduced:
        pref = 2.0 ** (1.0 - 2.0 * nu - mu) * y**nu * a ** (mu - lam) * math.gamma(lam - mu)
        spec = WrightSpec(
            upper=((2.0 * (mu + nu), 4.0), (nu + lam + 1.0, 2.0)),
            lower=((bp.s0, bp.lambda1), (nu + lam, 2.0), (1.0 + lam + mu + 2.0 * nu, 4.0)),
            k_scale=1.0,
        )
        arg = -bp.c * y * y / 4.0
    elif which == 1:
        pref = (
            2.0 ** (1.0 - nu - mu)
            * a ** (mu - lam - nu)
            * y**nu
            * k ** (-2.0 * mu)
            * math.gamma(2.0 * mu)
        )
        spec = WrightSpec(
            upper=((lam + nu + k, 2.0), (k * (nu + lam - mu), 2.0 * k)),
            lower=((bp.s0, bp.lambda1), (k * (1.0 + lam + nu + mu), 2.0 * k), (lam + nu, 2.0)),
            k_scale=k,
        )
        arg = bp.c * y * y / (4.0 * a * a)
    else:
        pref = (
            2.0 ** (1.0 - 2.0 * nu - mu)
            * y**nu
            * a ** (mu - lam)
            * k ** (1.0 + lam - mu)
            * math.gamma(lam - mu)
        )
        spec = WrightSpec(
            upper=((k * (2.0 * mu + 2.0 * nu), 4.0 * k), (nu + lam + k, 2.0)),
            lower=((nu + 1.0, bp.lambda1), (nu + lam, 2.0), (k * (1.0 + lam + mu + 2.0 * nu), 4.0 * k)),
            k_scale=k,
        )
        arg = bp.c * y * y / 4.0
    return pref, spec, arg


def _rhs_paper(which, reduced, bp, mu, lam, a, y, tol, max_terms) -> SeriesResult:
    if reduced and bp.k != 1.0:
        raise DomainError(f"reduced form needs k = 1, got k={bp.k!r}")
    mu, lam, a, y = check_theorem_args(which, bp, mu, lam, a, y)
    check_series_args(y, tol, max_terms)
    if y == 0.0 and bp.nu > 0.0:
        return SeriesResult(0.0, 1, 0.0, True)
    pref, spec, arg = _packaging(which, reduced, bp, mu, lam, a, y)
    sr = eval_k_wright(spec, arg, tol=tol, max_terms=max_terms)
    # a sum below the normal range has lost the relative accuracy the product needs
    converged = sr.converged and abs(sr.value) >= sys.float_info.min
    return SeriesResult(pref * sr.value, sr.terms_used, abs(pref) * sr.tail_estimate, converged,
                        abs(pref) * sr.rounding)


def theorem1_rhs_paper(
    bp: BesselParams, mu, lam, a, y, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """The packaged k-Wright right side of the first identity, as displayed."""
    return _rhs_paper(1, False, bp, mu, lam, a, y, tol, max_terms)


def theorem2_rhs_paper(
    bp: BesselParams, mu, lam, a, y, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """The packaged k-Wright right side of the second identity, as displayed."""
    return _rhs_paper(2, False, bp, mu, lam, a, y, tol, max_terms)


def corollary1_rhs(
    bp: BesselParams, mu, lam, a, y, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """k = 1 reduced packaging of the first identity (classical 2-Psi-3 rows).

    The reduced display is stated after a c -> -c substitution, so its
    series argument is -c y^2/(4 a^2); it equals the generic packaging
    evaluated with c negated.
    """
    return _rhs_paper(1, True, bp, mu, lam, a, y, tol, max_terms)


def corollary3_rhs(
    bp: BesselParams, mu, lam, a, y, tol: float = 1e-10, max_terms: int = 400
) -> SeriesResult:
    """k = 1 reduced packaging of the second identity.

    Transcribed with the argument sign flipped to -c y^2/4: the reduced
    display prints +c yet is stated under the same c -> -c substitution as
    the first one, so the printed sign is treated as a slip.  The lower row
    keeps the (nu + (b+1)/2, lambda1) entry, which agrees with the generic
    packaging's (nu + 1, lambda1) only at b = 1.
    """
    return _rhs_paper(2, True, bp, mu, lam, a, y, tol, max_terms)


def _classical_bessel_series(sign: float, nu: float, z: float) -> SeriesResult:
    """sum_n sign^n (z/2)^(nu+2n) / (n! Gamma(n+nu+1)), summed exactly in rationals.

    Independent reference route for the classical reduction check: it shares
    no recurrence and no arithmetic with the generalized evaluator.  The
    doubles (z/2)^2 and nu enter as exact fractions, so each divisor
    (n+1)(n+1+nu) and partial sum is exact; the sum stops once a geometric
    tail bound is under 2^-64 of it, or unconverged at 400 terms, and is
    rounded to a double once before the prefactor (z/2)^nu / Gamma(nu+1).
    """
    w = 0.5 * z
    pref = w**nu / math.gamma(nu + 1.0)
    x, nu_q = Fraction(sign * (w * w)), Fraction(nu)
    t = acc = Fraction(1)
    for n in range(1, 400):
        t *= x / (n * (n + nu_q))
        acc += t
        r = abs(x) / ((n + 1) * (n + 1 + nu_q))  # once below 1, it bounds every later ratio
        if r < 1 and (tail := abs(t) * r / (1 - r)) <= abs(acc) / 2**64:
            return SeriesResult(pref * float(acc), n + 1, abs(pref) * float(tail), True)
    return SeriesResult(pref * float(acc), 400, math.inf, False)


def classical_reduction_check(kind: str, nu: float, z: float) -> float:
    """Relative gap between the unit-parameter generalized series and the
    classical Bessel J (kind="bessel_J") or modified Bessel I ("bessel_I")
    series at order nu; raises NonConvergenceError naming a side that stopped
    at its term cap, the generalized one before the exact sum is spent."""
    if kind not in ("bessel_J", "bessel_I"):
        raise DomainError(f"kind must be 'bessel_J' or 'bessel_I', got {kind!r}")
    if not (is_real(nu) and is_real(z) and nu >= 0 and z >= 0):
        raise DomainError(f"need nu >= 0 and z >= 0, got nu={nu!r} z={z!r}")
    nu, z = float(nu), float(z)
    c = -1.0 if kind == "bessel_J" else 1.0
    bp = BesselParams(k=1.0, nu=nu, gamma=1.0, lambda1=1.0, c=c, b=1.0)
    got = side_value("generalized", eval_gmk_bessel(bp, z, tol=1e-14, max_terms=400))
    return rel_diff(got, side_value("classical", _classical_bessel_series(c, nu, z)))


def _ratio_diagnostics(row: Identity, bp, mu, lam, a) -> str:
    """Per-term packaged/canonical ratio for the first few indices, taken at
    y = 1: the powers of y cancel in every ratio, so no y, however small,
    underflows them.  Each ratio is exp of the difference of the two terms'
    logs, so terms that underflow still give one."""
    pref, spec, arg = _packaging(row.family, row.reduced, bp, mu, lam, a, 1.0)
    canonical = _canonical_terms_logsig(row.family, bp, mu, lam, a, 1.0)
    packaged = wright_terms_logsig(spec.upper, spec.lower, spec.k_scale, arg)
    # arg = 0 only at c = 0, where every canonical term past n = 0 vanishes
    lz = math.log(abs(arg)) if arg else 0.0
    bits = []
    for n, (lg, sg), (plg, psg) in zip(range(3), canonical, packaged):
        if not sg:
            bits.append(f"n={n} n/a")
            continue
        bits.append(f"n={n} {pref * psg * sg * math.exp(plg + n * lz - lg):.6g}")
    return "packaged/canonical term ratios: " + ", ".join(bits)


def _joined(diag: str, extra: str) -> str:
    return f"{diag}; {extra}" if diag and extra else diag or extra


def verify(
    identity_id: str,
    params: dict,
    tol_quad: float = 1e-8,
    tol_series: float = 1e-10,
    tol_match: float = 1e-5,
    max_terms: int = 400,
    quad_budget: int = 60000,
) -> IdentityReport:
    """Run left-side quadrature against the right-side routes.

    The kernel identity has one right side, its closed form; the others
    have the canonical series and the packaged form.  Any precondition
    violation or operand failure yields verdict="inconclusive" with the
    cause in the diagnostics, prefixed "precondition:", "evaluation failed:"
    or "did not converge:".  Identical inputs produce identical reports.
    """
    identity_id = str(identity_id).lower()
    if identity_id not in IDENTITIES:
        raise DomainError(f"unknown identity {identity_id!r}; expected one of {IDENTITY_IDS}")
    tolerances = {"quad": tol_quad, "series": tol_series, "match": tol_match}
    report = partial(IdentityReport, identity_id=identity_id, tolerances=tolerances)
    row = IDENTITIES[identity_id]
    which = row.family

    eff = {key: params[key] for key in row.keys if key in params}
    eff.update(row.fixed)
    note = "; ".join(
        f"fixed {key}={value!r} (given {params[key]!r})"
        for key, value in row.fixed
        if key in params and params[key] != value
    )
    try:
        if not is_positive(tol_match):
            raise DomainError(f"precondition: tol_match must be finite and > 0, got {tol_match!r}")
        missing = [key for key in row.keys if key not in eff]
        if missing:
            raise DomainError(f"missing parameters {missing}")
        values = [check_arg(eff[key], key) for key in row.keys]
        if which == 0:
            op = ObParams(*values)
        else:
            bp = BesselParams(*values[:6])
            args = check_theorem_args(which, bp, *values[6:])
    except DomainError as exc:
        msg = str(exc)
        if not msg.startswith("precondition"):
            msg = f"precondition: {msg}"
        return report(params=eff, diagnostics=_joined(msg, note))
    eff = dict(zip(row.keys, values))

    try:
        if which == 0:
            check_settings(tol_series, "max_terms", max_terms, 1)  # no series here; checked alike
            lhs = oberhettinger_lhs(op, tol=tol_quad, budget=quad_budget)
            rhs_c = SeriesResult(oberhettinger_closed_form(op), 0, 0.0, True)
            rhs_p = None
        else:
            lhs_fn = theorem1_lhs if which == 1 else theorem2_lhs
            lhs = lhs_fn(
                bp, *args,
                tol=tol_quad, budget=quad_budget, series_tol=tol_series, max_terms=max_terms,
            )
            rhs_c = _rhs_canonical(which, bp, *args, tol_series, max_terms)
            rhs_p = _rhs_paper(which, row.reduced, bp, *args, tol_series, max_terms)
    except (DomainError, NonConvergenceError, OverflowError) as exc:
        return report(params=eff, diagnostics=_joined(f"evaluation failed: {exc}", note))

    rel_c = rel_diff(lhs.value, rhs_c.value)
    rel_p = None if rhs_p is None else rel_diff(lhs.value, rhs_p.value)
    # a route decides a verdict only converged with an error estimate within tol_match
    # |value|, which a looser tolerance or a value cancelling to about 0 can break
    routes = [
        ("quadrature", lhs, lhs.abs_err_estimate),
        ("canonical series", rhs_c, rhs_c.tail_estimate),
    ]
    if rhs_p is not None:
        routes.append(("packaged series", rhs_p, rhs_p.tail_estimate))
    parts = [name for name, r, err in routes if not (r.converged and err <= tol_match * abs(r.value))]
    diag = ""
    if parts:
        verdict = "inconclusive"
        diag = "did not converge: " + ", ".join(parts)
    elif rel_c <= tol_match and (rel_p is None or rel_p <= tol_match):
        verdict = "match"
    elif rel_c <= tol_match:
        verdict = "canonical_only"
        diag = _ratio_diagnostics(row, bp, *args[:3])
    else:
        verdict = "mismatch"

    if row.classical_j:
        z_red = eff["y"] / eff["a"] if which == 1 else 0.5 * eff["y"]
        try:
            gap = classical_reduction_check("bessel_J", bp.nu, z_red)
            red = f"gap at z={z_red:.6g}: {gap:.3e}"
        except (NonConvergenceError, OverflowError) as exc:  # a side check; it sets no verdict
            red = f"failed: {exc}"
        diag = _joined(diag, f"classical J reduction {red}")

    return report(
        params=eff,
        lhs=lhs.value,
        rhs_canonical=rhs_c.value,
        rhs_paper=None if rhs_p is None else rhs_p.value,
        rel_diff_canonical=rel_c,
        rel_diff_paper=rel_p,
        verdict=verdict,
        diagnostics=_joined(diag, note),
        quad_evals=lhs.evaluations,
        series_terms=rhs_c.terms_used,
    )


def to_record(report: IdentityReport) -> dict:
    """Flatten a report to the fixed CSV/JSON field set.

    Unpopulated numeric slots (parameters that do not apply, values never
    computed because the point was skipped) become None so both output
    formats stay cleanly parseable.
    """
    rec = {"identity": report.identity_id}
    for key in _WEIGHTED_PARAMS:
        value = report.params.get(key)
        # echo only what the real rule accepts
        rec[key] = float(value) if is_real(value) else None
    for field in RESULT_FIELDS:
        value = getattr(report, field)
        rec[field] = None if isinstance(value, float) and math.isnan(value) else value
    return rec
