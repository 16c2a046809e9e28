"""Tests of the benchmark's own parts: the seeded inputs, the mpmath oracle,
the span arithmetic, the speed scale and the metric declarations.

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


# ------------------------------------------------------------- inputs


def test_same_seed_same_inputs():
    for name, make in (
        ("grid", inputs.grid_configs),
        ("hard", inputs.hard_round),
        ("series", lambda rng: inputs.series_block(rng, 64)),
    ):
        first = make(inputs.stream(7, name))
        assert make(inputs.stream(7, name)) == first
        assert make(inputs.stream(8, name)) != first


def test_streams_are_independent_of_global_state():
    import random

    random.seed(1)
    a = inputs.series_block(inputs.stream(3, "series"), 16)
    random.seed(2)
    assert inputs.series_block(inputs.stream(3, "series"), 16) == a


def test_grid_configs_cover_the_acceptance_axes():
    configs = inputs.grid_configs(inputs.stream(1, "grid"))
    assert [c["identity"] for c in configs] == ["theorem1", "theorem2", "oberhettinger"]
    sizes = [len(inputs.expand(c)) for c in configs]
    assert sizes == [256, 256, 27]
    for cfg in configs[:2]:
        assert all(0.5 <= a <= 2.0 for a in cfg["a"])
        assert all(0.5 <= y <= 4.0 for y in cfg["y"])
        ratios = {lam / k for k in cfg["k"] for lam in cfg["lambda1"]}
        assert ratios == {0.5, 1.0, 2.0}  # both series paths


def test_expand_follows_the_cli_order(tmp_path):
    import csv

    from kspecfun import cli

    cfg = dict(inputs.OBERHETTINGER_GRID)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = inputs.expand(cfg)
    assert [(r["mu"], r["lam"], r["a"]) for r in rows] == [
        (repr(p["mu"]), repr(p["lam"]), repr(p["a"])) for _, p in expected
    ]


def test_hard_neighbours_stay_in_their_regions():
    for seed in range(20):
        round_ = inputs.hard_round(inputs.stream(seed, "hard"))
        labels = [label for label, _, _ in round_]
        assert labels[:3] == ["H1", "H2", "T2"]
        for label, identity, p in round_:
            if label == "cancellation":
                assert not run.is_dd_path(p["k"], p["lambda1"])
                assert p["c"] < 0 and p["y"] / p["a"] >= 15.0
            elif label == "huge":
                assert p["c"] > 0 and p["a"] <= 0.02
            if label in ("cancellation", "huge"):
                assert identity == "theorem1" and p["lam"] + p["nu"] > p["mu"] > 0


def test_series_inputs_are_valid_and_cover_both_paths():
    from kspecfun import WrightSpec, convergence_margin

    block = inputs.series_block(inputs.stream(4, "series"), 800)
    paths = {"gmk_dd": set(), "gmk_log": set()}
    for kind, p in block:
        if kind in paths:
            paths[kind].add(run.is_dd_path(p["k"], p["lambda1"]))
            assert 0.05 <= p["z"] <= 25.0
        if kind == "k_wright":
            spec = WrightSpec(p["upper"], p["lower"], p["k_scale"])
            assert convergence_margin(spec) > -0.5 * p["k_scale"]
        if kind == "pfq" and len(p["upper"]) == len(p["lower"]) + 1:
            assert abs(p["z"]) < 1.0
    assert paths == {"gmk_dd": {True}, "gmk_log": {False}}


# ------------------------------------------------------------- oracle


def test_oracle_bessel_reduces_to_classical_j_and_i():
    with mpmath.workdps(40):
        for nu in (0.0, 0.5, 2.0):
            for z in (0.3, 5.0, 20.0):
                j = oracle.gmk_bessel(1, nu, 1, 1, -1, 1, z)
                i = oracle.gmk_bessel(1, nu, 1, 1, 1, 1, z)
                assert abs(j - mpmath.besselj(nu, z)) <= mpmath.mpf("1e-28") * (1 + abs(j))
                assert abs(i / mpmath.besseli(nu, z) - 1) <= mpmath.mpf("1e-28")


def test_oracle_k_gamma_and_first_kind():
    assert oracle.rel_err(1.0, oracle.k_gamma(2.5, 2.5)) < 1e-40
    assert oracle.rel_err(2.0, oracle.k_gamma(4.0, 2.0)) < 1e-40
    # first-kind series at k = lam = gamma = 1: (1)_n = n!, so the terms are
    # (-z/2)^n / (n! Gamma(n + nu + 1)), the series of 0F1(; nu + 1; -z/2) / Gamma(nu + 1)
    nu, z = 0.5, 7.0
    with mpmath.workdps(50):
        ref = mpmath.hyper([], [nu + 1], -z / 2) / mpmath.gamma(nu + 1)
        assert abs(oracle.k_bessel_first(1, nu, 1, 1, z) / ref - 1) < mpmath.mpf("1e-30")


def test_oracle_wright_reduces_to_pfq():
    upper, lower, z = [1.5, 2.25], [3.0, 0.75, 2.5], -6.0
    wright = oracle.k_wright([(a, 1) for a in upper], [(b, 1) for b in lower], 1, z)
    with mpmath.workdps(50):
        scale = mpmath.fprod(mpmath.gamma(a) for a in upper) / mpmath.fprod(
            mpmath.gamma(b) for b in lower)
        assert abs(wright / (scale * oracle.pfq(upper, lower, z)) - 1) < mpmath.mpf("1e-30")


def test_oracle_kernel_and_canonical_match_direct_integrals():
    mpmath.mp.dps = 20
    try:
        mu, lam, a, y = 0.75, 2.0, 1.3, 2.0

        def phi(x):
            return x + a + mpmath.sqrt(x * x + 2 * a * x)

        kernel = mpmath.quad(lambda x: x ** (mu - 1) * phi(x) ** (-lam), [0, 1, mpmath.inf])
        assert abs(kernel / oracle.kernel(mu, lam, a) - 1) < 1e-12
        bessel = (1.0, 0.5, 1.0, 1.0, -1.0, 1.0)  # k, nu, gamma, lambda1, c, b: J_0.5
        for which in (1, 2):
            def integrand(x):
                arg = y / phi(x) if which == 1 else x * y / phi(x)
                return x ** (mu - 1) * phi(x) ** (-lam) * mpmath.besselj(0.5, arg)

            direct = mpmath.quad(integrand, [0, 1, mpmath.inf])
            canon = oracle.canonical_rhs(which, *bessel, mu, lam, a, y)
            assert abs(direct / canon - 1) < 1e-10
    finally:
        mpmath.mp.dps = 15


def test_oracle_packaging_matches_canonical_at_reduced_parameters():
    # the first packaged form reproduces the canonical series at k = gamma = 1
    args = (1.0, 0.5, 1.0, 1.0, -1.0, 1.0, 0.5, 1.5, 2.0, 0.5)
    canon = oracle.canonical_rhs(1, *args)
    assert oracle.rel_err(float(oracle.packaged_rhs(1, *args)), canon) < 1e-14


def test_rel_err_edge_cases():
    assert oracle.rel_err(math.inf, 1) == math.inf
    assert oracle.rel_err(0.0, 0) == 0.0
    assert oracle.rel_err(1e-300, 0) == math.inf
    assert oracle.rel_err(1.5, mpmath.mpf(1)) == pytest.approx(0.5)


def test_judge_point_checks_only_converged_values():
    refs = (mpmath.mpf(1), mpmath.mpf(2))
    good = dict(lhs=1.0, rhs_canonical=1.0, rhs_paper=2.0)
    assert run.judge_point("match", good, set(), refs) == (True, False)
    off = dict(good, rhs_canonical=1.1)
    assert run.judge_point("canonical_only", off, set(), refs) == (True, True)
    assert run.judge_point("inconclusive", off, {"canonical series"}, refs) == (False, False)
    assert run.judge_point("inconclusive", off, {"quadrature"}, refs) == (False, True)
    assert run.judge_point("inconclusive", off, None, refs) == (False, False)
    assert run.unconverged_parts("did not converge: quadrature, packaged series") == {
        "quadrature", "packaged series"}


# ---------------------------------------------------- span arithmetic


def test_union_length():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 10), (20, 25)]) == 15
    assert spans.union_length([(0, 10), (5, 12), (12, 15)]) == 15
    assert spans.union_length([(3, 3), (5, 4)]) == 0


def test_self_times_subtract_covered_child_time():
    tree = [
        ("root", 0, 100, -1, 0, None),
        ("a", 10, 30, 0, 0, None),
        ("a.child", 12, 20, 1, 0, None),
        ("b", 25, 40, 0, 0, None),  # overlaps a: the union counts once
        ("c", 90, 120, 0, 0, None),  # runs past root: clipped to root
    ]
    assert spans.self_times(tree) == [100 - (30 + 10), 20 - 8, 8, 15, 30]


def test_tracer_records_parents_points_and_restores(tmp_path):
    import types

    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "layer.inner", attrs=lambda args, out: (out,))
    tracer.wrap(mod, "outer", "layer.outer", new_point=True)
    assert mod.outer(1) == 4 and mod.outer(2) == 6
    tracer.restore()
    assert mod.inner(1) == 2
    recorded = tracer.take()
    names = [s[0] for s in recorded]
    assert names == ["layer.outer", "layer.inner", "layer.outer", "layer.inner"]
    assert [s[3] for s in recorded] == [-1, 0, -1, 2]
    assert [s[4] for s in recorded] == [0, 0, 1, 1]
    assert recorded[1][5] == (2,)
    path = tmp_path / "spans.jsonl.gz"
    spans.write_spans(path, recorded, 0)
    import gzip

    with gzip.open(path, "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert [r["parent"] for r in rows] == [-1, 0, -1, 2]


def test_counters_count_and_observe():
    import types

    mod = types.SimpleNamespace(f=lambda x: x * 3)
    counters = spans.Counters()
    seen = []
    counters.wrap(mod, "f", "calls")
    counters.wrap(mod, "f", observe=lambda args, out: seen.append((args, out)))
    assert mod.f(2) == 6
    counters.restore()
    assert counters.counts == {"calls": 1} and seen == [((2,), 6)]
    assert mod.f(1) == 3


def test_speed_factor_is_nominal_over_the_mean_sample():
    assert speed.factor(speed.NOMINAL_NS, speed.NOMINAL_NS) == 1.0
    assert speed.factor(speed.NOMINAL_NS, 3 * speed.NOMINAL_NS) == 0.5
    assert speed.sample() > 0


# ------------------------------------------------------ declarations


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
