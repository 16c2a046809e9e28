"""End-to-end acceptance checks with pinned tolerances.

Each test freezes one behavioral contract of the package: the k-Gamma core,
the classical Bessel reductions, the kernel integral, the two integral
identities against their term-wise closed-form images, the packaged-form
audit trail, the Wright-to-hypergeometric reduction, and the sweep CLI.
"""

import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from kspecfun.errors import DomainError
from kspecfun.identities import (
    classical_reduction_check,
    corollary1_rhs,
    theorem1_rhs_paper,
    verify,
)
from kspecfun.kbessel import BesselParams
from kspecfun.kgamma import k_gamma, k_gamma_oracle
from kspecfun.quadrature import ObParams, oberhettinger_closed_form, oberhettinger_lhs
from kspecfun.wright import (
    WrightSpec,
    eval_k_wright,
    eval_wright,
    wright_pfq_reduction_check,
)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


# ---------------------------------------------------------------- k-Gamma


def test_kgamma_recurrence_and_normalization_grid():
    zs = [0.1 + 0.998 * j for j in range(51)]  # 51 points in [0.1, 50]
    for k in (0.5, 1.0, 2.0, 3.0):
        assert abs(k_gamma(k, k) - 1.0) <= 1e-13
        for z in zs:
            assert rel(k_gamma(z + k, k), z * k_gamma(z, k)) <= 1e-12


def test_kgamma_integral_oracle_grid():
    for z in (0.5, 1.0, 2.0, 5.0):
        for k in (1.0, 2.0, 3.0):
            q = k_gamma_oracle(z, k, tol=1e-10)
            assert q.converged
            assert rel(q.value, k_gamma(z, k)) <= 1e-8


# ------------------------------------------------- classical reductions


def test_classical_bessel_reduction_grid():
    for kind in ("bessel_J", "bessel_I"):
        for nu in (0.0, 0.5, 1.0, 2.0, 0.3, 1.7):
            for z in (0.1, 1.0, 2.0, 5.0, 10.0):
                assert classical_reduction_check(kind, nu, z) <= 1e-12


# --------------------------------------------------- kernel integral


def test_kernel_integral_grid():
    assert rel(oberhettinger_closed_form(ObParams(1.0, 2.0, 1.0)), 1.0 / 3.0) <= 1e-12
    for mu in (0.5, 1.0, 1.5):
        for dl in (0.5, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                p = ObParams(mu, mu + dl, a)
                q = oberhettinger_lhs(p, tol=1e-10)
                assert q.converged
                assert rel(q.value, oberhettinger_closed_form(p)) <= 1e-7


# ------------------------------------------- the two integral identities

AXES = dict(k=(1.0, 2.0), lambda1=(1.0, 2.0), c=(-1.0, 1.0),
            nu=(0.5, 1.0), b=(1.0, 2.0), gamma=(1.0, 1.5))
KERNELS = ((1.0, 2.0, 1.0, 1.0), (0.5, 1.5, 2.0, 0.5))  # (mu, lam, a, y)


def grid_points():
    for i, combo in enumerate(itertools.product(*AXES.values())):
        point = dict(zip(AXES.keys(), combo))
        point["mu"], point["lam"], point["a"], point["y"] = KERNELS[i % 2]
        yield point


@pytest.fixture(scope="module")
def theorem_reports():
    return {
        which: [verify(which, pt) for pt in grid_points()]
        for which in ("theorem1", "theorem2")
    }


def test_first_identity_matches_canonical_series(theorem_reports):
    reports = theorem_reports["theorem1"]
    assert len(reports) == 64
    for r in reports:
        assert r.verdict in ("match", "canonical_only")
        assert r.rel_diff_canonical <= 1e-5


def test_second_identity_matches_canonical_series(theorem_reports):
    reports = theorem_reports["theorem2"]
    assert len(reports) == 64
    for r in reports:
        assert r.verdict in ("match", "canonical_only")
        assert r.rel_diff_canonical <= 1e-5
        assert r.params["y"] <= 2.0 and r.params["mu"] < r.params["lam"]


def test_packaged_form_audit(theorem_reports):
    # the displayed Wright packaging is evaluated and reported at every
    # grid point; no ground truth is asserted for it beyond the reduced
    # k = 1 consistency below
    for reports in theorem_reports.values():
        for r in reports:
            assert r.rhs_paper is not None and math.isfinite(r.rhs_paper)
            assert r.rel_diff_paper is not None
            if r.verdict == "canonical_only":
                assert "ratio" in r.diagnostics
    for pt in grid_points():
        if pt["k"] == 1.0 and pt["lambda1"] == 1.0:
            bp = BesselParams(k=1, nu=pt["nu"], gamma=pt["gamma"], lambda1=1,
                              c=pt["c"], b=pt["b"])
            bn = BesselParams(k=1, nu=pt["nu"], gamma=pt["gamma"], lambda1=1,
                              c=-pt["c"], b=pt["b"])
            args = (pt["mu"], pt["lam"], pt["a"], pt["y"])
            assert rel(
                corollary1_rhs(bp, *args).value,
                theorem1_rhs_paper(bn, *args).value,
            ) <= 1e-12


# ------------------------------------------------- Wright reduction


def test_wright_reduction_suite():
    rng = random.Random(20260816)
    for _ in range(20):
        p = rng.choice((0, 1, 2))
        q = rng.choice(tuple(range(max(0, p - 1), 4)))
        upper = [rng.uniform(0.5, 5.0) for _ in range(p)]
        lower = [rng.uniform(0.5, 5.0) for _ in range(q)]
        # p = q+1 series only converge inside |z| < 1
        z = rng.uniform(-0.9, 0.9) if p == q + 1 else rng.uniform(-1.0, 1.0)
        assert wright_pfq_reduction_check(upper, lower, z) <= 1e-10


def test_wright_margin_rejection():
    with pytest.raises(DomainError):
        WrightSpec(upper=((1.0, 1.0), (2.0, 1.0)), lower=((3.0, 1.0),))
    with pytest.raises(DomainError):
        WrightSpec(upper=((1.0, 2.0), (2.0, 1.0)), lower=((3.0, 1.0),))


def test_wright_k_one_degeneracy():
    rng = random.Random(816)
    done = 0
    while done < 10:
        upper = tuple((rng.uniform(0.5, 5.0), rng.uniform(0.1, 1.5)) for _ in range(rng.choice((1, 2))))
        lower = tuple((rng.uniform(0.5, 5.0), rng.uniform(0.5, 1.5)) for _ in range(rng.choice((2, 3))))
        if sum(w for _, w in lower) - sum(w for _, w in upper) <= -0.9:
            continue
        s = WrightSpec(upper=upper, lower=lower, k_scale=1.0)
        z = rng.uniform(-1.0, 1.0)
        a = eval_k_wright(s, z, tol=1e-12)
        b = eval_wright(s, z, tol=1e-12)
        assert rel(a.value, b.value) <= 1e-13
        done += 1


# ------------------------------------------------------- sweep CLI


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_sweep(cfg_path, out_path):
    # the child imports kspecfun from this checkout, installed or not
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "kspecfun", "sweep", "--config", str(cfg_path),
         "--out", str(out_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_sweep_contract(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "identity": "oberhettinger",
        "mu": [0.5, 1.0, 1.5],
        "lam_minus_mu": [0.5, 1.0, 2.0],
        "a": [0.5, 1.0, 2.0],
    }))
    out1 = tmp_path / "rows1.csv"
    out2 = tmp_path / "rows2.csv"
    r1 = run_sweep(cfg, out1)
    assert r1.returncode == 0
    assert "match=27 canonical_only=0 mismatch=0 skipped=0" in r1.stdout
    with open(out1, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 27
    assert all(row["verdict"] == "match" for row in rows)
    # deterministic ordering and content: a second run is byte-identical
    r2 = run_sweep(cfg, out2)
    assert r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_skips_invalid_points(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "identity": "oberhettinger",
        "mu": [0.5, 1.0, 1.5],
        "lam": [1.25],
        "a": [1.0],
    }))
    out = tmp_path / "rows.csv"
    r = run_sweep(cfg, out)
    assert r.returncode == 0
    assert "match=2 canonical_only=0 mismatch=0 skipped=1" in r.stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [row["verdict"] for row in rows] == ["match", "match", "skipped"]
