"""Seeded inputs for the three workloads.

Every generator takes a `random.Random` built by `stream(seed, name)`, so a
seed fixes every input and no generator touches global random state.  The
program only ever sees the generated values.
"""

from __future__ import annotations

import math
import random

THEOREM_KEYS = ("k", "nu", "gamma", "lambda1", "c", "b", "mu", "lam", "a", "y")

# The acceptance-test axes: k and lambda1 in {1, 2} give both series paths
# (lambda1/k in {1, 2} runs double-double, lambda1/k = 1/2 runs log/sign).
GRID_AXES = dict(
    k=[1.0, 2.0], lambda1=[1.0, 2.0], c=[-1.0, 1.0], nu=[0.5, 1.0], b=[1.0, 2.0], gamma=[1.0, 1.5]
)
GRID_KERNEL = dict(mu=[0.5], lam=[1.5])
# The README's 27-point kernel grid.
OBERHETTINGER_GRID = dict(
    identity="oberhettinger", mu=[0.5, 1.0, 1.5], lam_minus_mu=[0.5, 1.0, 2.0], a=[0.5, 1.0, 2.0]
)

# Quadrature node budget for `hard`: enough refinement past the first 240
# nodes that refinement dominates, small enough that a round takes seconds.
HARD_BUDGET = 600

H1 = dict(k=1.5, nu=0.5, gamma=1.5, lambda1=0.7, c=-1.0, b=1.0, mu=0.5, lam=1.5, a=0.5, y=10.0)
H2 = dict(k=1.0, nu=0.0, gamma=1.0, lambda1=1.0, c=1.0, b=1.0, mu=0.5, lam=0.6, a=0.01, y=1.0)
HARD_FIXED = (("H1", "theorem1", H1), ("H2", "theorem1", H2), ("T2", "theorem2", H1))

SERIES_KINDS = (
    "gmk_dd", "gmk_log", "gmk_dd", "gmk_log", "k_bessel_first", "k_wright", "pfq", "k_gamma"
)


def stream(seed: int, name: str) -> random.Random:
    """Independent deterministic generator for one named input stream."""
    return random.Random(f"kspecfun-bench:{seed}:{name}")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ------------------------------------------------------------------ grid


def grid_configs(rng: random.Random) -> list[dict]:
    """The three sweep configs: both theorems on the acceptance axes times two
    a and two y values, then the 27-point kernel grid.

    a and y are drawn from narrow bands near both ends of [0.5, 2] and
    [0.5, 4].  Work per point grows steeply with y/a, so wide draws would make
    the cost of a pass differ by 2x between seeds and hide a 10% change.
    """
    a = [round(rng.uniform(0.725, 0.775), 6), round(rng.uniform(1.45, 1.55), 6)]
    y = [round(rng.uniform(1.25, 1.35), 6), round(rng.uniform(2.9, 3.1), 6)]
    theorem = dict(GRID_AXES, **GRID_KERNEL, a=a, y=y)
    return [
        dict(identity="theorem1", **theorem),
        dict(identity="theorem2", **theorem),
        dict(OBERHETTINGER_GRID),
    ]


def expand(config: dict) -> list[tuple[str, dict]]:
    """The points a sweep config covers, in the CLI's order (axes in
    THEOREM_KEYS order, last axis fastest)."""
    identity = config["identity"]
    keys = ("mu", "lam", "a") if identity == "oberhettinger" else THEOREM_KEYS
    axes = []
    for key in keys:
        if key == "lam" and "lam_minus_mu" in config:
            axes.append(("lam_minus_mu", config["lam_minus_mu"]))
        else:
            axes.append((key, config[key]))
    points = [{}]
    for key, values in axes:
        points = [dict(p, **{key: v}) for p in points for v in values]
    for p in points:
        if "lam_minus_mu" in p:
            p["lam"] = p["mu"] + p.pop("lam_minus_mu")
    return [(identity, p) for p in points]


# ------------------------------------------------------------------ hard


# Neighbours move every parameter of H1 or H2 by up to 2%.  The work per
# point then stays within a few percent across seeds, so the per-point
# latency percentiles compare like with like.
NEIGHBOUR_REL = 0.02


def near(rng: random.Random, x: float) -> float:
    return x * rng.uniform(1.0 - NEIGHBOUR_REL, 1.0 + NEIGHBOUR_REL)


def cancellation_neighbour(rng: random.Random) -> dict:
    """Near H1: log path (lambda1/k = 0.467), c < 0, y/a = 20."""
    p = {key: near(rng, v) for key, v in H1.items()}
    p["lambda1"] = p["k"] * H1["lambda1"] / H1["k"]
    p["lam"] = p["mu"] + near(rng, H1["lam"] - H1["mu"])
    p["y"] = p["a"] * near(rng, H1["y"] / H1["a"])
    return p


def huge_neighbour(rng: random.Random) -> dict:
    """Near H2: dd path (lambda1 = k = 1), c > 0, a = 0.01, where the
    integral reaches ~1e40."""
    p = {key: near(rng, v) for key, v in H2.items()}
    p["k"] = p["lambda1"] = 1.0
    p["lam"] = p["mu"] + near(rng, H2["lam"] - H2["mu"])
    return p


def hard_round(rng: random.Random) -> list[tuple[str, str, dict]]:
    """H1, H2, the theorem2 row, four neighbours of H1 and two of H2, as
    (label, identity, params).

    Points near H2 cost twice those near H1; with five H1-like points out of
    nine the median latency falls inside that group, not between groups.
    """
    out = list(HARD_FIXED)
    out += [("cancellation", "theorem1", cancellation_neighbour(rng)) for _ in range(4)]
    out += [("huge", "theorem1", huge_neighbour(rng)) for _ in range(2)]
    return out


# ---------------------------------------------------------------- series


def _gmk(rng: random.Random, dd: bool) -> dict:
    k = rng.uniform(0.5, 2.0)
    if dd:
        ratio = float(rng.choice((1, 2)))
    else:
        ratio = rng.uniform(0.3, 2.5)
        while abs(ratio - round(ratio)) < 0.05:
            ratio = rng.uniform(0.3, 2.5)
    sign = rng.choice((-1.0, 1.0))
    return dict(
        k=k, nu=rng.uniform(0.0, 2.0), gamma=rng.uniform(0.5, 2.0), lambda1=ratio * k,
        c=sign * rng.uniform(0.5, 1.5), b=rng.uniform(0.5, 2.0), z=log_uniform(rng, 0.05, 25.0),
    )


def _wright_spec(rng: random.Random) -> dict:
    """Random rows with margin sum(beta) - sum(alpha) > -k_scale / 2, well
    inside the entire-function region the program accepts."""
    k_scale = rng.uniform(0.5, 2.0)
    while True:
        upper = [(rng.uniform(0.5, 5.0), rng.uniform(0.1, 1.5)) for _ in range(rng.choice((1, 2)))]
        lower = [(rng.uniform(0.5, 5.0), rng.uniform(0.5, 1.5)) for _ in range(rng.choice((1, 2, 3)))]
        margin = sum(w for _, w in lower) - sum(w for _, w in upper)
        if margin > -0.5 * k_scale:
            break
    z = rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.05, 10.0)
    return dict(upper=upper, lower=lower, k_scale=k_scale, z=z)


def _pfq(rng: random.Random) -> dict:
    p, q = rng.choice(((0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (2, 1)))
    upper = [rng.uniform(0.5, 5.0) for _ in range(p)]
    lower = [rng.uniform(0.5, 5.0) for _ in range(q)]
    if p == q + 1:
        z = rng.uniform(-0.9, 0.9)
    else:
        z = rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.05, 25.0)
    return dict(upper=upper, lower=lower, z=z)


def series_call(rng: random.Random, kind: str) -> dict:
    """A fresh parameter set for one call of `kind`."""
    if kind in ("gmk_dd", "gmk_log"):
        return _gmk(rng, kind == "gmk_dd")
    if kind == "k_bessel_first":
        return dict(
            k=rng.uniform(0.5, 2.0), nu=rng.uniform(0.0, 2.0), gamma=rng.uniform(0.5, 2.0),
            lam=rng.uniform(0.3, 2.5), z=log_uniform(rng, 0.05, 25.0),
        )
    if kind == "k_wright":
        return _wright_spec(rng)
    if kind == "pfq":
        return _pfq(rng)
    if kind == "k_gamma":
        return dict(z=rng.uniform(0.1, 30.0), k=rng.uniform(0.5, 3.0))
    raise ValueError(f"unknown series kind {kind!r}")


def series_block(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    """n calls cycling through SERIES_KINDS, each with its own parameters."""
    return [(kind, series_call(rng, kind)) for kind in (SERIES_KINDS[i % len(SERIES_KINDS)] for i in range(n))]
