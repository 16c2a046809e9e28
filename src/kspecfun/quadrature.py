"""Adaptive quadrature on (0, inf) and the integrand builders.

The integrator maps the half line through the double-exponential change of
variable x = exp((pi/2) sinh u).  Under that map an integrable power
singularity at 0 and polynomial decay at infinity both turn into
double-exponentially decaying smooth profiles, which is what the kernel
x^(mu-1) (x + a + sqrt(x^2 + 2ax))^(-lam) needs: its tail falls off only like
x^(mu-lam-1), too slowly for any upper cutoff, and mu < 1 puts a singularity
at the origin.  Panels on the mapped axis are then refined worst-first with
the embedded Gauss-Kronrod 7/15 pair.  The theorem left sides also
integrate their Bessel factor's rounding noise, and stop unconverged once
it is above the goal (see `_integrate`).

Every integral takes one route.  Each node has a record: `_u_node`'s
(x, log x, cosh u), to which a theorem integral adds the series argument z
and the kernel log (mu-1) log x - lam log phi (`_kernel_node`).  The 240
starting nodes' records come in visit order from `_start_nodes`, or for a
theorem left side from a table per kernel (which, mu, lam, a, y),
`_kernel_table`, since a sweep meets few kernels and many Bessel parameter
sets; refinement nodes get theirs where visited.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, NonConvergenceError
from .kbessel import BesselParams, eval_gmk_bessel
from .summation import check_arg, check_settings, is_real

__all__ = [
    "QuadResult",
    "ObParams",
    "integrate_semi_infinite",
    "phi",
    "oberhettinger_lhs",
    "oberhettinger_closed_form",
    "check_theorem_args",
    "theorem1_lhs",
    "theorem2_lhs",
]


class QuadResult(NamedTuple):
    value: float
    abs_err_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class ObParams:
    """Exponent pair and shift of the half-line kernel, 0 < mu < lam, a > 0."""

    mu: float
    lam: float
    a: float

    def __post_init__(self) -> None:
        mu, lam, a = vals = (self.mu, self.lam, self.a)
        if not all(map(is_real, vals)):
            raise DomainError(f"parameters must be finite reals, got {vals!r}")
        if not (0.0 < mu < lam and a > 0.0):
            raise DomainError(f"need 0 < mu < lam and a > 0, got mu={mu!r} lam={lam!r} a={a!r}")


# Gauss-Kronrod 7/15: the centre's (Kronrod, Gauss) weights; (abscissa, Kronrod, Gauss or 0.0) per node pair
_GK_CENTRE = (0.2094821410847278, 0.4179591836734694)
_GK_PAIRS = (
    (0.9914553711208126, 0.0229353220105292, 0.0),
    (0.9491079123427585, 0.0630920926299785, 0.1294849661688697),
    (0.8648644233597691, 0.1047900103222502, 0.0),
    (0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (0.2077849550078985, 0.2044329400752989, 0.0),
)


def _panel_nodes(*panels: tuple[float, float]) -> list[float]:
    """The 15 nodes u of each Gauss-Kronrod panel (a, b) in turn, in visit
    order: the centre, then the left and right node of each `_GK_PAIRS` pair."""
    nodes = []
    for a, b in panels:
        h = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes.append(mid)
        for xk, _, _ in _GK_PAIRS:
            dx = h * xk
            nodes += (mid - dx, mid + dx)
    return nodes


def _gk15(values, a: float, b: float) -> tuple[float, float, float, float]:
    """One Gauss-Kronrod 7/15 panel [a, b] from the (value, rel) pairs at
    its nodes, 15 items of the iterator values in `_panel_nodes` order, rel
    |value| the value's noise; returns (integral, error estimate, integral
    of |value|, integral of the noise), the last with the Kronrod weights."""
    h = 0.5 * (b - a)
    fc, noise = next(values)
    wc, wgc = _GK_CENTRE
    resk = wc * fc
    resg = wgc * fc
    resabs = wc * abs(fc)
    noise *= resabs
    seen = []
    for (_, wk, wg), (f1, r1), (f2, r2) in zip(_GK_PAIRS, values, values):
        seen.append((wk, f1, f2))
        resk += wk * (f1 + f2)
        a1 = abs(f1)
        a2 = abs(f2)
        resabs += wk * (a1 + a2)
        noise += wk * (a1 * r1 + a2 * r2)
        if wg:
            resg += wg * (f1 + f2)
    value = resk * h
    reskh = 0.5 * resk
    asc = wc * abs(fc - reskh)
    for wk, f1, f2 in seen:
        asc += wk * (abs(f1 - reskh) + abs(f2 - reskh))
    asc *= abs(h)
    err = abs((resk - resg) * h)
    if asc != 0.0 and err != 0.0:
        # standard damped scaling; raw |K-G| grossly overestimates on smooth panels
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    return value, err, resabs * abs(h), noise * abs(h)


_DE_C = math.pi / 2.0
# |log x| capped at 700 so x and 1/x stay inside double range
_DE_UMAX = math.asinh(700.0 / _DE_C)
# QUADPACK's rounding floor: 50 eps times the integral of |f|
_ROUNDING = 50.0 * sys.float_info.epsilon
_N0 = 16  # starting panels, equal parts of [-_DE_UMAX, _DE_UMAX]


def _start_panels() -> list[tuple[float, float]]:
    step = 2.0 * _DE_UMAX / _N0
    return [(a, a + step) for a in (-_DE_UMAX + i * step for i in range(_N0))]


def integrate_semi_infinite(f, tol: float = 1e-10, budget: int = 60000) -> QuadResult:
    """Integrate f over (0, inf) to relative tolerance tol.

    Panels are refined until the error estimate is at most
    max(tol |Q|, 50 eps A), with Q the integral and A the integral of |f|;
    the second term is the rounding floor that stops an integral cancelling
    to about 0.  f may have an integrable power singularity at 0 and must
    decay at least like a power x^(-s), s > 1, at infinity.
    converged=False with the best estimate is returned when the evaluation
    budget runs out.  tol and budget follow the rules of `summation`;
    budget >= 240, the 16 starting panels.
    """

    def values(records):  # f(x) dx/du at each `_u_node` record
        for x, _, cu in records:
            yield f(x) * x * _DE_C * cu, 0.0

    return _integrate(values, _u_node, tol, budget, _start_nodes())


def _integrate(values, node, tol: float, budget: int, start) -> QuadResult:
    """`integrate_semi_infinite` on the mapped axis x = exp((pi/2) sinh u).
    start holds the records of the 240 starting nodes and node(u) builds a
    refinement node's; values maps records in visit order to (value, rel)
    pairs, value f(x) dx/du and rel |value| >= 0 a bound on its own rounding
    error, its noise, integrated with the weights of |value| to N.  After the
    starting panels and at every refinement, N > max(tol |Q|, 50 eps A) stops
    the integral unconverged, as QUADPACK stops on roundoff (ier = 2): no
    refinement can take its error below the goal.  start is read only after
    tol and budget pass."""
    check_settings(tol, "budget", budget, 15 * _N0)
    start = values(start)

    def sums() -> tuple[float, ...]:
        return tuple(map(math.fsum, list(zip(*heap))[4:]))  # (value, err, |value|, noise)

    def goal(value: float, abs_total: float) -> float:
        return max(tol * abs(value), _ROUNDING * abs_total)

    heap: list[tuple[float, int, float, float, float, float, float, float]] = []
    tick = 0
    for a, b in _start_panels():
        v, e, r, nz = _gk15(start, a, b)
        heapq.heappush(heap, (-e, tick, a, b, v, e, r, nz))
        tick += 1

    value, err_total, abs_total, noise = sums()
    while (err_total > (lim := goal(value, abs_total)) and noise <= lim
           and 15 * tick + 30 <= budget):
        _, _, a, b, v, e, r, nz = heapq.heappop(heap)
        midp = 0.5 * (a + b)
        pair = values(map(node, _panel_nodes((a, midp), (midp, b))))
        v1, e1, r1, nz1 = _gk15(pair, a, midp)
        v2, e2, r2, nz2 = _gk15(pair, midp, b)
        heapq.heappush(heap, (-e1, tick, a, midp, v1, e1, r1, nz1))
        tick += 1
        heapq.heappush(heap, (-e2, tick, midp, b, v2, e2, r2, nz2))
        tick += 1
        value += (v1 + v2) - v
        err_total += (e1 + e2) - e
        abs_total += (r1 + r2) - r
        noise += (nz1 + nz2) - nz
        if err_total < 0.25 * goal(value, abs_total) or tick % 64 == 0:
            # running corrections drift; refresh before trusting a near-goal value
            value, err_total, abs_total, noise = sums()

    if tick > _N0:  # a refinement's running totals drift; the starting totals are sums() already
        value, err_total, abs_total, noise = sums()
    lim = goal(value, abs_total)
    return QuadResult(value, err_total, 15 * tick, err_total <= lim and noise <= lim)


def phi(x: float, a: float) -> float:
    """Kernel x + a + sqrt(x^2 + 2ax); strictly increasing, phi(0, a) = a."""
    if not (is_real(x) and is_real(a) and x >= 0 and a > 0):
        raise DomainError(f"phi needs x >= 0 and a > 0, got x={x!r} a={a!r}")
    return _phi(x, a)


def _phi(x: float, a: float) -> float:
    # unchecked: the integrands check a once per integral, and the DE map gives x > 0
    # hypot keeps x^2 from overflowing for x near the top of double range
    return x + a + math.hypot(x, math.sqrt(2.0 * a * x))


def oberhettinger_lhs(p: ObParams, tol: float = 1e-8, budget: int = 60000) -> QuadResult:
    """`integrate_semi_infinite` of x^(mu-1) phi(x,a)^(-lam), relative tolerance tol: exp of
    `_kernel_node`'s kernel log, the bits of a theorem left side whose Bessel factor is 1.0."""
    mu, lam, a, exp, log = p.mu, p.lam, p.a, math.exp, math.log
    return integrate_semi_infinite(lambda x: exp((mu - 1.0) * log(x) - lam * log(_phi(x, a))), tol, budget)


def oberhettinger_closed_form(p: ObParams) -> float:
    """2 lam a^(-lam) (a/2)^mu Gamma(2 mu) Gamma(lam - mu) / Gamma(1 + lam + mu)."""
    lg = (
        math.log(2.0 * p.lam)
        - p.lam * math.log(p.a)
        + p.mu * math.log(0.5 * p.a)
        + math.lgamma(2.0 * p.mu)
        + math.lgamma(p.lam - p.mu)
        - math.lgamma(1.0 + p.lam + p.mu)
    )
    return math.exp(lg)


def check_theorem_args(which: int, bp: BesselParams, mu, lam, a, y) -> tuple[float, ...]:
    """Preconditions of the first (which=1) or second (which=2) identity;
    returns (mu, lam, a, y) as floats.

    Applying the kernel's closed form to the n-th series term needs
    0 < mu < lam + nu + 2n for the first identity and exponent pairs
    (mu + nu + 2n, lam + nu + 2n) with mu + nu > 0, mu < lam for the
    second; n = 0 binds.
    """
    names = ("mu", "lam", "a", "y")
    mu, lam, a, y = (check_arg(v, f"precondition: {n}") for n, v in zip(names, (mu, lam, a, y)))
    if not a > 0:
        raise DomainError(f"precondition: a > 0 fails (a={a!r})")
    if y < 0:
        raise DomainError(f"precondition: y >= 0 fails (y={y!r})")
    if which == 1 and not (lam + bp.nu > mu > 0.0):
        raise DomainError(
            f"precondition: lam + nu > mu > 0 fails (mu={mu!r}, lam={lam!r}, nu={bp.nu!r})"
        )
    if which == 2 and not (mu + bp.nu > 0.0 and mu < lam):
        raise DomainError(
            f"precondition: mu + nu > 0 and mu < lam fails (mu={mu!r}, lam={lam!r}, nu={bp.nu!r})"
        )
    return mu, lam, a, y


# kernel tables kept, least recently used first out (see the module docstring)
_KERNEL_TABLES = 32


def _u_node(u: float) -> tuple[float, float, float]:
    """(x, log x, cosh u) at x = exp(c sinh u)."""
    x = math.exp(_DE_C * math.sinh(u))
    return x, math.log(x), math.cosh(u)


@functools.cache
def _start_nodes() -> tuple[tuple[float, float, float], ...]:
    """`_u_node` at each starting-panel node, in visit order, built on first
    use: a later integral or cold kernel table takes no exp, sinh or cosh."""
    return tuple(map(_u_node, _panel_nodes(*_start_panels())))


def _kernel_node(which, mu, lam, a, y, xu) -> tuple[float, float, float, float]:
    """(x, cosh u, series argument z, log of the kernel x^(mu-1) phi^(-lam))
    from a `_u_node` record xu: the node's values that do not depend on the
    Bessel parameters."""
    x, lx, cu = xu
    ph = _phi(x, a)
    # x/ph <= 1, so grouping this way cannot overflow for huge x
    z = y / ph if which == 1 else x / ph * y
    return x, cu, z, (mu - 1.0) * lx - lam * math.log(ph)


@functools.lru_cache(maxsize=_KERNEL_TABLES)
def _kernel_table(which, mu, lam, a, y) -> tuple[tuple[float, float, float, float], ...]:
    """`_kernel_node` at every starting-panel node, in visit order; y = -0.0
    and 0.0 are one key, and give the same records."""
    return tuple(map(functools.partial(_kernel_node, which, mu, lam, a, y), _start_nodes()))


def _weighted_kernel_lhs(which, bp, mu, lam, a, y, tol, budget, series_tol, max_terms):
    mu, lam, a, y = check_theorem_args(which, bp, mu, lam, a, y)
    kernel = functools.partial(_kernel_node, which, mu, lam, a, y)
    # Bessel factor and its relative rounding bound by argument, this integral only:
    # near x = 0 (first identity) or x = inf (second) z stops changing in floating point
    factors: dict[float, tuple[float, float]] = {}
    exp, log, copysign, c = math.exp, math.log, math.copysign, _DE_C

    def values(records):
        # the integrand times dx/du at each `_kernel_node` record, as in integrate_semi_infinite
        for x, cu, z, k0 in records:
            vr = factors.get(z)
            if vr is None:
                sr = eval_gmk_bessel(bp, z, series_tol, max_terms)
                if not sr.converged:
                    raise NonConvergenceError(
                        f"series factor failed to converge at argument {z!r} "
                        f"(terms={sr.terms_used}, tail={sr.tail_estimate!r})"
                    )
                v = sr.value
                # the kernel and dx/du scale value and noise alike; a factor of exactly 0 adds none
                vr = factors[z] = (v, sr.rounding / abs(v) if v else 0.0)
            v, rel = vr
            yield (copysign(exp(k0 + log(abs(v))), v) * x * c * cu, rel) if v else (0.0, 0.0)

    return _integrate(values, lambda u: kernel(_u_node(u)), tol, budget, _kernel_table(which, mu, lam, a, y))


def theorem1_lhs(
    bp: BesselParams,
    mu: float,
    lam: float,
    a: float,
    y: float,
    tol: float = 1e-8,
    budget: int = 60000,
    series_tol: float = 1e-12,
    max_terms: int = 400,
) -> QuadResult:
    """Quadrature of int_0^inf x^(mu-1) phi^(-lam) J(y / phi(x, a)) dx.

    tol is relative, with the rounding floor of `integrate_semi_infinite`;
    the integral stops unconverged once the Bessel factor's rounding noise
    exceeds its goal (see `_integrate`).  Enforces lam + nu > mu > 0 (see
    `check_theorem_args`).
    """
    return _weighted_kernel_lhs(1, bp, mu, lam, a, y, tol, budget, series_tol, max_terms)


def theorem2_lhs(
    bp: BesselParams,
    mu: float,
    lam: float,
    a: float,
    y: float,
    tol: float = 1e-8,
    budget: int = 60000,
    series_tol: float = 1e-12,
    max_terms: int = 400,
) -> QuadResult:
    """Quadrature of int_0^inf x^(mu-1) phi^(-lam) J(x y / phi(x, a)) dx.

    The series argument tends to y/2 as x grows, so all decay comes from the
    kernel.  tol, the rounding floor and the noise stop are those of
    `theorem1_lhs`.  Enforces mu + nu > 0 and mu < lam (see
    `check_theorem_args`).
    """
    return _weighted_kernel_lhs(2, bp, mu, lam, a, y, tol, budget, series_tol, max_terms)
