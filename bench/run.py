#!/usr/bin/env python3
"""kspecfun benchmark: one workload per process, outputs checked against a
50-digit mpmath oracle.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* grid: three `sweep` configs run in-process through `kspecfun.cli.main`.
* hard: `verify` on H1, H2, the theorem2 log-path row and seeded neighbours
  of the two hard regions, with a reduced quadrature budget.
* series: direct series calls, each with a fresh parameter set.

One caller runs in a closed loop with no threads.  `--trace 0` prints every
end-to-end metric.  `--trace 1` alternates untraced units of work with units
that record spans around the calls between kspecfun's modules, then runs one
unit with call counters, and prints the per-layer metrics.  Times are in
reference seconds (see speed.py).  The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from `src/` next to this directory; the
run exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import re
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import inputs  # bench/ is sys.path[0] when this file runs as a script
import oracle
import spans
import speed
from inputs import THEOREM_KEYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench-out"

WORKLOADS = ("grid", "hard", "series")

# Oracle thresholds: a converged value further than this (relative) from
# the 50-digit reference counts as wrong.  Verify values are held 10x
# tighter than the 1e-5 tol_match the tests pin; series values get 100x the
# default series tolerance 1e-10; k_gamma is a closed form.
WRONG_REL_VERIFY = 1e-6
WRONG_REL_SERIES = 1e-8
WRONG_REL_KGAMMA = 1e-12

SETUP_REPEATS = 25
MIN_UNITS = 3  # passes or rounds per run, so per-point medians exist
SERIES_BLOCK = 512

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "evals_per_s": "1/s",
    "eval_us_p50": "us",
    "eval_us_p99": "us",
    "ok_frac": "fraction",
    "right_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_ms_per_point": "ms",
    "identities.verify_ms_p50": "ms",
    "identities.verify_ms_p90": "ms",
    "identities.self_ms_per_point": "ms",
    "identities.series_terms_per_point": "count",
    "quadrature.nodes_per_integral": "count",
    "quadrature.self_us_per_node": "us",
    "quadrature.unconverged_frac": "fraction",
    "kbessel.calls": "count",
    "kbessel.us_per_call.dd": "us",
    "kbessel.us_per_call.log": "us",
    "kbessel.terms_per_call.dd": "count",
    "kbessel.terms_per_call.log": "count",
    "kbessel.share_of_verify": "fraction",
    "kbessel.dd_share": "fraction",
    "kbessel.arg_gt10_share": "fraction",
    "wright.k_wright.us_per_call": "us",
    "wright.pfq.us_per_call": "us",
    "wright.terms_per_call": "count",
    "kgamma.log_k_gamma.calls_per_bessel_call": "count",
    "summation.dd_ops_per_term": "count",
    "trace.overhead_frac": "fraction",
}

# The pinned 19-column record header and sweep summary line.
CSV_HEADER = [
    "identity", "k", "nu", "gamma", "lambda1", "c", "b", "mu", "lam", "a", "y", "lhs",
    "rhs_canonical", "rhs_paper", "rel_diff_canonical", "rel_diff_paper", "verdict",
    "quad_evals", "series_terms",
]
SUMMARY_RE = re.compile(r"match=(\d+) canonical_only=(\d+) mismatch=(\d+) skipped=(\d+)")

README_EXAMPLE = dict(k=1, nu=1, gamma=1, lambda1=1, c=-1, b=1, mu=1, lam=2, a=1, y=1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile q in (0, 100] of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def is_dd_path(k: float, lambda1: float) -> bool:
    """The double-double path runs when lambda1/k is a positive integer."""
    ratio = lambda1 / k
    return round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-12 * ratio


# ------------------------------------------------------------- set-up


def import_program() -> SimpleNamespace:
    """Import kspecfun afresh from src/ and return its modules."""
    for name in [n for n in sys.modules if n == "kspecfun" or n.startswith("kspecfun.")]:
        del sys.modules[name]
    pkg = importlib.import_module("kspecfun")
    mods = {m: importlib.import_module(f"kspecfun.{m}")
            for m in ("cli", "identities", "quadrature", "kbessel", "wright")}
    return SimpleNamespace(pkg=pkg, **mods)


def warm_up(K, workload: str) -> None:
    if workload == "series":
        K.pkg.eval_gmk_bessel(K.pkg.BesselParams(k=1, nu=0, gamma=1, lambda1=1, c=-1, b=1), 2.0)
    else:
        K.pkg.verify("theorem1", README_EXAMPLE)


def measure_setup(workload: str):
    """Median over SETUP_REPEATS of import plus one warm-up call, in
    reference seconds."""
    times = []
    K = None
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        start = time.perf_counter_ns()
        K = import_program()
        warm_up(K, workload)
        ns = time.perf_counter_ns() - start
        times.append(ns * speed.factor(before, speed.sample()) / 1e9)
    return statistics.median(times), K


# ------------------------------------------------------------ judging


class Tally:
    """Outcomes of the operations a run attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0  # raised instead of answering
        self.unusable = 0  # answered without a usable result
        self.wrong = 0  # a converged value the oracle contradicts
        self.failing = 0  # any of the three above
        self.gates: list[str] = []  # reasons the run is not correct

    def record(self, error=False, usable=True, wrong=False) -> None:
        self.attempted += 1
        self.errors += error
        self.unusable += not usable and not error
        self.wrong += wrong
        self.failing += error or not usable or wrong

    def gate(self, ok: bool, reason: str) -> None:
        if not ok and reason not in self.gates:
            self.gates.append(reason)


def verify_refs(identity: str, params: dict):
    """(reference left/canonical value, reference packaged value or None)."""
    if identity == "oberhettinger":
        return oracle.kernel(params["mu"], params["lam"], params["a"]), None
    which = 1 if identity == "theorem1" else 2
    args = [params[key] for key in THEOREM_KEYS]
    return oracle.canonical_rhs(which, *args), oracle.packaged_rhs(which, *args)


def unconverged_parts(diagnostics: str) -> set[str]:
    if diagnostics.startswith("did not converge: "):
        return set(diagnostics[len("did not converge: "):].split(", "))
    if diagnostics.startswith("quadrature did not converge"):
        return {"quadrature"}
    return set()


def judge_point(verdict: str, values: dict, unconverged, refs) -> tuple[bool, bool]:
    """(usable, wrong) for one verify point.

    Usable means verdict match or canonical_only.  Wrong means a value the
    program reports as converged differs from its reference by more than
    WRONG_REL_VERIFY.  `unconverged` is None when no value was computed
    (precondition or evaluation failure).
    """
    usable = verdict in ("match", "canonical_only")
    if unconverged is None:
        return usable, False
    canon, paper = refs
    wrong = False
    for key, ref, part in (
        ("lhs", canon, "quadrature"),
        ("rhs_canonical", canon, "canonical series"),
        ("rhs_paper", paper, "packaged series"),
    ):
        value = values.get(key)
        if ref is None or value is None or part in unconverged:
            continue
        wrong |= oracle.rel_err(value, ref) > WRONG_REL_VERIFY
    return usable, wrong


def judge_report(report, refs) -> tuple[bool, bool]:
    diag = report.diagnostics
    computed = not (diag.startswith("precondition") or diag.startswith("evaluation failed"))
    values = dict(lhs=report.lhs, rhs_canonical=report.rhs_canonical, rhs_paper=report.rhs_paper)
    unconverged = unconverged_parts(diag) if computed else None
    return judge_point(report.verdict, values, unconverged, refs)


# -------------------------------------------------------- trace hooks


def report_attrs(args, report):
    return (report.verdict, report.series_terms)


def quad_attrs(args, q):
    return (q.evaluations, q.converged)


def terms_attrs(args, r):
    return (r.terms_used,)


def gmk_attrs(args, r):
    p, z = args[0], args[1]
    return ("dd" if is_dd_path(p.k, p.lambda1) else "log", float(z), r.terms_used)


def trace_identity_layers(tracer, K) -> None:
    """Spans at the boundaries verify crosses: quadrature, wright, kbessel."""
    for fn in ("theorem1_lhs", "theorem2_lhs", "oberhettinger_lhs"):
        tracer.wrap(K.identities, fn, f"quadrature.{fn}", quad_attrs)
    tracer.wrap(K.identities, "eval_k_wright", "wright.k_wright", terms_attrs)
    tracer.wrap(K.quadrature, "eval_gmk_bessel", "kbessel.gmk", gmk_attrs)


def count_helpers(counters, K) -> None:
    """Counters on the hot kgamma/summation helpers kbessel calls."""
    counters.wrap(K.kbessel, "log_k_gamma", "log_k_gamma")
    for fn in ("dd_add", "dd_mul_d", "dd_div_d"):
        counters.wrap(K.kbessel, fn, "dd_ops")


def count_bessel(counters, p, result) -> None:
    counters.add("bessel_calls")
    if is_dd_path(p.k, p.lambda1):
        counters.add("dd_terms", result.terms_used)


def count_quadrature_bessel(counters, K) -> None:
    counters.wrap(K.quadrature, "eval_gmk_bessel",
                  observe=lambda args, result: count_bessel(counters, args[0], result))


class LayerStats:
    """Per-layer aggregates over the spans of every traced unit, in
    reference nanoseconds."""

    def __init__(self) -> None:
        self.verify_ms: list[float] = []
        self.verify_terms = 0
        self.verify_self_ns = 0.0
        self.verify_ns = 0.0
        self.cli_self_ns = 0.0
        self.quad = [0, 0, 0, 0.0]  # integrals, nodes, unconverged, self ns
        self.bessel = {"dd": [0, 0.0, 0], "log": [0, 0.0, 0]}  # calls, ns, terms
        self.bessel_gt10 = 0
        self.bessel_in_verify_ns = 0.0
        self.wright = {"wright.k_wright": [0, 0.0], "wright.pfq": [0, 0.0]}  # calls, ns
        self.wright_terms = 0

    def add(self, spans, self_times, scale: float) -> None:
        """Fold in one unit's spans; scale converts wall to reference ns."""
        for span, own in zip(spans, self_times):
            name, start, end, parent, point, info = span
            dur = (end - start) * scale
            own *= scale
            layer = name.split(".", 1)[0]
            if name == "identities.verify":
                self.verify_ms.append(dur / 1e6)
                self.verify_ns += dur
                self.verify_self_ns += own
                if info:
                    self.verify_terms += info[1]
            elif layer == "cli":
                self.cli_self_ns += own
            elif layer == "quadrature":
                self.quad[0] += 1
                self.quad[3] += own
                if info:
                    self.quad[1] += info[0]
                    self.quad[2] += not info[1]
            elif layer == "kbessel" and info:
                path, z, terms = info
                row = self.bessel[path]
                row[0] += 1
                row[1] += dur
                row[2] += terms
                self.bessel_gt10 += z > 10.0
                if point >= 0:
                    self.bessel_in_verify_ns += dur
            elif name in self.wright:
                self.wright[name][0] += 1
                self.wright[name][1] += dur
                if info:
                    self.wright_terms += info[0]

    def metrics(self, counts: dict, overhead: float) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        points = len(self.verify_ms)
        dd, log = self.bessel["dd"], self.bessel["log"]
        calls = dd[0] + log[0]
        kw, pfq = self.wright["wright.k_wright"], self.wright["wright.pfq"]
        return {
            "cli.self_ms_per_point": ratio(self.cli_self_ns / 1e6, points),
            "identities.verify_ms_p50": percentile(self.verify_ms, 50) if points else 0.0,
            "identities.verify_ms_p90": percentile(self.verify_ms, 90) if points else 0.0,
            "identities.self_ms_per_point": ratio(self.verify_self_ns / 1e6, points),
            "identities.series_terms_per_point": ratio(self.verify_terms, points),
            "quadrature.nodes_per_integral": ratio(self.quad[1], self.quad[0]),
            "quadrature.self_us_per_node": ratio(self.quad[3] / 1e3, self.quad[1]),
            "quadrature.unconverged_frac": ratio(self.quad[2], self.quad[0]),
            "kbessel.calls": counts.get("bessel_calls", 0),
            "kbessel.us_per_call.dd": ratio(dd[1] / 1e3, dd[0]),
            "kbessel.us_per_call.log": ratio(log[1] / 1e3, log[0]),
            "kbessel.terms_per_call.dd": ratio(dd[2], dd[0]),
            "kbessel.terms_per_call.log": ratio(log[2], log[0]),
            "kbessel.share_of_verify": ratio(self.bessel_in_verify_ns, self.verify_ns),
            "kbessel.dd_share": ratio(dd[0], calls),
            "kbessel.arg_gt10_share": ratio(self.bessel_gt10, calls),
            "wright.k_wright.us_per_call": ratio(kw[1] / 1e3, kw[0]),
            "wright.pfq.us_per_call": ratio(pfq[1] / 1e3, pfq[0]),
            "wright.terms_per_call": ratio(self.wright_terms, kw[0] + pfq[0]),
            "kgamma.log_k_gamma.calls_per_bessel_call": ratio(
                counts.get("log_k_gamma", 0), counts.get("bessel_calls", 0)),
            "summation.dd_ops_per_term": ratio(counts.get("dd_ops", 0), counts.get("dd_terms", 0)),
            "trace.overhead_frac": overhead,
        }


# ----------------------------------------------------------- workloads


class Workload:
    """One workload.  `unit(mode)` runs one unit of work in mode "plain"
    (timed for the end-to-end metrics), "baseline" (untraced, for the
    tracing overhead), "traced" or "counted"; it judges every output into
    `self.tally` and returns (reference ns spent inside kspecfun, the
    unit's wall-to-reference scale)."""

    name = ""

    def __init__(self, K, seed: int, work: Path) -> None:
        self.K = K
        self.seed = seed
        self.work = work
        self.tally = Tally()
        self.tracer = spans.Tracer()
        self.counters = spans.Counters()
        self.notes: list[str] = []

    def traced_unit(self):
        """Run one traced unit; return (reference ns, scale, spans)."""
        try:
            self.install_trace()
            ref_ns, scale = self.unit("traced")
        finally:
            self.tracer.restore()
        return ref_ns, scale, self.tracer.take()

    def counted_unit(self) -> dict:
        try:
            count_helpers(self.counters, self.K)
            self.install_counters()
            self.unit("counted")
        finally:
            self.counters.restore()
        return self.counters.counts


def scales(cals: list[int]) -> list[float]:
    """Scale for each operation timed between consecutive calibration samples."""
    return [speed.factor(a, b) for a, b in zip(cals, cals[1:])]


class Grid(Workload):
    name = "grid"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.configs = inputs.grid_configs(inputs.stream(self.seed, "grid"))
        self.paths = []
        for i, cfg in enumerate(self.configs):
            path = self.work / f"grid{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths.append(path)
        self.points = [inputs.expand(cfg) for cfg in self.configs]
        self.refs = [[verify_refs(i, p) for i, p in pts] for pts in self.points]
        self.latency = [[[] for _ in pts] for pts in self.points]  # per point, per pass
        self.cli_ns = [[] for _ in self.points]  # sweep time outside verify, per pass
        self.csv_bytes = [None for _ in self.points]
        self.quad_evals = [0 for _ in self.points]

    def sweep(self, i: int, mode: str) -> tuple[int, bytes, str]:
        out = self.work / f"grid{i}.csv"
        argv = ["sweep", "--config", str(self.paths[i]), "--out", str(out)]
        text = io.StringIO()
        cli = self.K.cli
        with contextlib.redirect_stdout(text):
            start = time.perf_counter_ns()
            if mode == "traced":
                rc = self.tracer.call("cli.main", cli.main, (argv,))
            else:
                rc = cli.main(argv)
            ns = time.perf_counter_ns() - start
        self.tally.gate(rc == 0, f"sweep {self.configs[i]['identity']} exited {rc}")
        return ns, out.read_bytes(), text.getvalue()

    def timed_sweep(self, i: int) -> float:
        """Sweep with a timer and a calibration sample around each point;
        returns reference ns."""
        cli = self.K.cli
        verify = cli.verify
        lat: list[int] = []
        cals: list[int] = []
        calibrating = 0

        def timed(*args, **kwargs):
            nonlocal calibrating
            start = time.perf_counter_ns()
            cals.append(speed.sample())
            mid = time.perf_counter_ns()
            calibrating += mid - start
            try:
                return verify(*args, **kwargs)
            finally:
                lat.append(time.perf_counter_ns() - mid)

        cli.verify = timed
        try:
            ns, data, text = self.sweep(i, "plain")
        finally:
            cli.verify = verify
        cals.append(speed.sample())
        self.check_sweep(i, data, text)
        point_ns = [dt * s for dt, s in zip(lat, scales(cals))]
        typical = statistics.median(cals)
        outside = (ns - calibrating - sum(lat)) * speed.factor(typical, typical)
        if len(lat) == len(self.points[i]):
            for j, dt in enumerate(point_ns):
                self.latency[i][j].append(dt)
            self.cli_ns[i].append(outside)
        return sum(point_ns) + outside

    def unit(self, mode: str):
        total = 0.0
        unit_scales = []
        for i in range(len(self.configs)):
            if mode == "plain":
                total += self.timed_sweep(i)
                continue
            before = speed.sample()
            ns, data, text = self.sweep(i, mode)
            scale = speed.factor(before, speed.sample())
            unit_scales.append(scale)
            total += ns * scale
            self.check_sweep(i, data, text)
        return total, statistics.median(unit_scales) if unit_scales else 1.0

    def check_sweep(self, i: int, data: bytes, text: str) -> None:
        """Determinism, pinned formats, row parameters, and the oracle."""
        ident = self.configs[i]["identity"]
        if self.csv_bytes[i] is None:
            self.csv_bytes[i] = data
        self.tally.gate(data == self.csv_bytes[i], f"sweep {ident}: CSV differs between passes")
        lines = text.strip().splitlines()
        summary = SUMMARY_RE.fullmatch(lines[-1]) if lines else None
        self.tally.gate(summary is not None, f"sweep {ident}: summary line format changed")
        rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
        self.tally.gate(bool(rows) and rows[0] == CSV_HEADER, f"sweep {ident}: CSV header changed")
        rows = rows[1:]
        self.tally.gate(len(rows) == len(self.points[i]), f"sweep {ident}: wrong row count")
        counts = dict(match=0, canonical_only=0, mismatch=0, skipped=0)
        quad_evals = 0
        for (identity, params), refs, row in zip(self.points[i], self.refs[i], rows):
            rec = dict(zip(CSV_HEADER, row))
            same = rec["identity"] == identity and all(
                rec[key] != "" and float(rec[key]) == float(v) for key, v in params.items()
            )
            self.tally.gate(same, f"sweep {ident}: row parameters differ from the config")
            verdict = rec["verdict"]
            counts[verdict] = counts.get(verdict, 0) + 1
            values = {key: float(rec[key]) if rec[key] else None
                      for key in ("lhs", "rhs_canonical", "rhs_paper")}
            # skipped rows carry no convergence detail, so only answered rows are judged
            unconverged = set() if verdict != "skipped" else None
            usable, wrong = judge_point(verdict, values, unconverged, refs)
            self.tally.record(usable=usable, wrong=wrong)
            self.tally.gate(usable and not wrong, f"sweep {ident}: unusable or wrong point")
            quad_evals += int(rec["quad_evals"] or 0)
        self.quad_evals[i] = quad_evals
        if summary is not None:
            got = dict(zip(("match", "canonical_only", "mismatch", "skipped"),
                           map(int, summary.groups())))
            self.tally.gate(got == counts, f"sweep {ident}: summary counts disagree with CSV")

    def install_trace(self) -> None:
        self.tracer.wrap(self.K.cli, "verify", "identities.verify", report_attrs, new_point=True)
        trace_identity_layers(self.tracer, self.K)

    def install_counters(self) -> None:
        count_quadrature_bessel(self.counters, self.K)

    def end_to_end(self) -> dict:
        med = [statistics.median(lat) for pts in self.latency for lat in pts]
        pass_s = (sum(med) + sum(statistics.median(ns) for ns in self.cli_ns)) / 1e9
        digest = hashlib.sha256(b"".join(self.csv_bytes)).hexdigest()
        self.notes.append(
            f"grid: {len(med)} points per pass, {len(self.cli_ns[0])} timed passes, "
            f"csv sha256 {digest[:16]}")
        return dict(
            points_per_s=len(med) / pass_s,
            evals_per_s=sum(self.quad_evals) / pass_s,
            eval_us_p50=percentile(med, 50) / 1e3,
            eval_us_p99=percentile(med, 99) / 1e3,
        )


class Hard(Workload):
    name = "hard"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.round = inputs.hard_round(inputs.stream(self.seed, "hard"))
        self.refs = [verify_refs(ident, p) for _, ident, p in self.round]
        self.latency = [[] for _ in self.round]
        self.first = [None for _ in self.round]
        self.nodes = [0 for _ in self.round]

    def unit(self, mode: str):
        verify = self.K.pkg.verify
        lat = []
        cals = [speed.sample()]
        for j, (label, ident, params) in enumerate(self.round):
            kwargs = dict(quad_budget=inputs.HARD_BUDGET)
            start = time.perf_counter_ns()
            try:
                if mode == "traced":
                    report = self.tracer.call(
                        "identities.verify", verify, (ident, params), kwargs, report_attrs,
                        new_point=True)
                else:
                    report = verify(ident, params, **kwargs)
            except Exception as exc:  # a raised error is an outcome to count, not a crash
                report = exc
            lat.append(time.perf_counter_ns() - start)
            cals.append(speed.sample())
            if isinstance(report, Exception):
                self.tally.record(error=True)
                self.notes.append(f"hard {label}: {type(report).__name__}: {report}")
                continue
            usable, wrong = judge_report(report, self.refs[j])
            self.tally.record(usable=usable, wrong=wrong)
            key = (report.verdict, repr(report.lhs), repr(report.rhs_canonical),
                   repr(report.rhs_paper), report.quad_evals, report.series_terms)
            if self.first[j] is None:
                self.first[j] = key
                self.nodes[j] = report.quad_evals
            self.tally.gate(key == self.first[j], f"hard {label}: report differs between rounds")
            if label == "T2":
                self.tally.gate(usable and not wrong, "hard T2: the theorem2 row no longer succeeds")
        point_scales = scales(cals)
        ref = [dt * s for dt, s in zip(lat, point_scales)]
        if mode == "plain":
            for j, dt in enumerate(ref):
                self.latency[j].append(dt)
        return sum(ref), statistics.median(point_scales)

    def install_trace(self) -> None:
        trace_identity_layers(self.tracer, self.K)

    def install_counters(self) -> None:
        count_quadrature_bessel(self.counters, self.K)

    def end_to_end(self) -> dict:
        med = [statistics.median(lat) for lat in self.latency]
        round_s = sum(med) / 1e9
        verdicts = ", ".join(f"{label}={key[0] if key else 'error'}"
                             for (label, _, _), key in zip(self.round, self.first))
        self.notes.append(f"hard: {len(self.latency[0])} timed rounds; {verdicts}")
        return dict(
            points_per_s=len(med) / round_s,
            evals_per_s=sum(self.nodes) / round_s,
            eval_us_p50=percentile(med, 50) / 1e3,
            eval_us_p99=percentile(med, 99) / 1e3,
        )


SERIES_SPANS = {
    "gmk_dd": "kbessel.gmk", "gmk_log": "kbessel.gmk", "k_bessel_first": "kbessel.first",
    "k_wright": "wright.k_wright", "pfq": "wright.pfq", "k_gamma": "kgamma.k_gamma",
}
SERIES_CALIBRATE_EVERY = 32  # calls between calibration samples


class Series(Workload):
    name = "series"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rng = inputs.stream(self.seed, "series")
        self.block = None
        self.latency: list[float] = []
        self.block_rates: list[float] = []
        self.dd_calls = 0
        self.gt10_calls = 0
        self.bessel_calls = 0

    def op(self, kind: str, p: dict):
        """(call, span attrs) of one public-API call on fresh parameters."""
        ks = self.K.pkg
        if kind in ("gmk_dd", "gmk_log"):
            def call():
                bp = ks.BesselParams(p["k"], p["nu"], p["gamma"], p["lambda1"], p["c"], p["b"])
                return ks.eval_gmk_bessel(bp, p["z"])
            path = "dd" if is_dd_path(p["k"], p["lambda1"]) else "log"
            return call, lambda a, r: (path, p["z"], r.terms_used)
        if kind == "k_bessel_first":
            return (lambda: ks.eval_k_bessel_first(p["k"], p["nu"], p["gamma"], p["lam"], p["z"]),
                    lambda a, r: ("log", p["z"], r.terms_used))
        if kind == "k_wright":
            return (lambda: ks.eval_k_wright(ks.WrightSpec(p["upper"], p["lower"], p["k_scale"]),
                                             p["z"]), terms_attrs)
        if kind == "pfq":
            return lambda: ks.eval_pfq(p["upper"], p["lower"], p["z"]), terms_attrs
        return lambda: ks.k_gamma(p["z"], p["k"]), None

    @staticmethod
    def reference(kind: str, p: dict):
        if kind in ("gmk_dd", "gmk_log"):
            return oracle.gmk_bessel(
                p["k"], p["nu"], p["gamma"], p["lambda1"], p["c"], p["b"], p["z"])
        if kind == "k_bessel_first":
            return oracle.k_bessel_first(p["k"], p["nu"], p["gamma"], p["lam"], p["z"])
        if kind == "k_wright":
            return oracle.k_wright(p["upper"], p["lower"], p["k_scale"], p["z"])
        if kind == "pfq":
            return oracle.pfq(p["upper"], p["lower"], p["z"])
        return oracle.k_gamma(p["z"], p["k"])

    def unit(self, mode: str):
        # a traced unit reruns the block of the baseline unit before it, so
        # the tracing overhead compares identical calls
        if mode == "traced" and self.block is not None:
            block, self.block = self.block, None
        else:
            block = inputs.series_block(self.rng, SERIES_BLOCK)
            self.block = block if mode == "baseline" else None
        ops = [self.op(kind, p) for kind, p in block]
        results = []
        lat = []
        cals = [speed.sample()]
        for n, ((kind, _), (call, attrs)) in enumerate(zip(block, ops), 1):
            start = time.perf_counter_ns()
            try:
                if mode == "traced":
                    out = self.tracer.call(SERIES_SPANS[kind], call, attrs=attrs)
                else:
                    out = call()
            except Exception as exc:  # a raised error is an outcome to count, not a crash
                out = exc
            lat.append(time.perf_counter_ns() - start)
            results.append(out)
            if n % SERIES_CALIBRATE_EVERY == 0 or n == len(block):
                cals.append(speed.sample())
        call_scales = scales(cals)
        ref = [dt * call_scales[n // SERIES_CALIBRATE_EVERY] for n, dt in enumerate(lat)]
        if mode == "plain":
            self.latency.extend(ref)
            self.block_rates.append(len(ref) / (sum(ref) / 1e9))
        for (kind, p), out in zip(block, results):
            self.judge(kind, p, out, mode)
        return sum(ref), statistics.median(call_scales)

    def judge(self, kind: str, p: dict, out, mode: str) -> None:
        if kind in ("gmk_dd", "gmk_log", "k_bessel_first"):
            self.bessel_calls += 1
            self.gt10_calls += p["z"] > 10.0
            dd = kind != "k_bessel_first" and is_dd_path(p["k"], p["lambda1"])
            self.dd_calls += dd
            if mode == "counted" and not isinstance(out, Exception):
                self.counters.add("bessel_calls")
                if dd:
                    self.counters.add("dd_terms", out.terms_used)
        if isinstance(out, Exception):
            self.tally.record(error=True)
            self.notes.append(f"series {kind} {p}: {type(out).__name__}: {out}")
            return
        if kind == "k_gamma":
            value, converged, threshold = out, True, WRONG_REL_KGAMMA
        else:
            value, converged, threshold = out.value, out.converged, WRONG_REL_SERIES
        wrong = converged and oracle.rel_err(value, self.reference(kind, p)) > threshold
        self.tally.record(usable=converged, wrong=wrong)
        if kind == "k_gamma":
            self.tally.gate(not wrong, "series: k_gamma differs from its closed form")

    def install_trace(self) -> None:
        pass  # the benchmark's own calls carry the spans

    def install_counters(self) -> None:
        pass  # judge() counts the calls and terms

    def end_to_end(self) -> dict:
        rate = statistics.median(self.block_rates)
        self.notes.append(
            f"series: {len(self.latency)} timed calls in {len(self.block_rates)} blocks; "
            f"kbessel dd share {self.dd_calls / self.bessel_calls:.3f}, "
            f"arg > 10 share {self.gt10_calls / self.bessel_calls:.3f}")
        return dict(
            points_per_s=rate,
            evals_per_s=rate,
            eval_us_p50=percentile(self.latency, 50) / 1e3,
            eval_us_p99=percentile(self.latency, 99) / 1e3,
        )


# ---------------------------------------------------------------- runs


def run_plain(w: Workload, seconds: float) -> dict:
    start = time.perf_counter()
    units = 0
    while units < MIN_UNITS or time.perf_counter() - start < seconds:
        w.unit("plain")
        units += 1
    return w.end_to_end()


def run_traced(w: Workload, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced units for `seconds`, then count once."""
    stats = LayerStats()
    baseline_ns = traced_ns = 0.0
    start = time.perf_counter()
    units = 0
    while units == 0 or time.perf_counter() - start < seconds:
        baseline_ns += w.unit("baseline")[0]
        ref_ns, scale, unit_spans = w.traced_unit()
        traced_ns += ref_ns
        stats.add(unit_spans, spans.self_times(unit_spans), scale)
        spans.write_spans(trace_path, unit_spans, units)
        units += 1
    counts = w.counted_unit()
    w.notes.append(f"{w.name}: {units} traced units; spans in {trace_path.relative_to(ROOT)}")
    return stats.metrics(counts, traced_ns / baseline_ns - 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kspecfun" / "__init__.py").is_file():
        print(f"run.py: kspecfun sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, K = measure_setup(args.workload)
    if not Path(K.pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: imported kspecfun from {K.pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        kind = {"grid": Grid, "hard": Hard, "series": Series}[args.workload]
        w = kind(K, args.seed, Path(tmp))
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"spans-{args.workload}.jsonl.gz"
            trace_path.unlink(missing_ok=True)
            values = run_traced(w, args.seconds, trace_path)
            units = PER_LAYER
        else:
            values = run_plain(w, args.seconds)
            values["setup_s"] = setup_s
            units = END_TO_END

    t = w.tally
    fail_frac = t.failing / t.attempted
    wrong_frac = t.wrong / t.attempted
    if not args.trace:
        values["ok_frac"] = 1.0 - fail_frac
        values["right_frac"] = 1.0 - wrong_frac
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for note in w.notes:
        print(note)
    print(f"{args.workload}: attempted={t.attempted} errors={t.errors} unusable={t.unusable} "
          f"wrong={t.wrong} fail_frac={fail_frac:.6g} wrong_frac={wrong_frac:.6g}")
    for reason in t.gates:
        print(f"check failed: {reason}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not t.gates,
        "attempted": t.attempted,
        "failed": t.errors,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
