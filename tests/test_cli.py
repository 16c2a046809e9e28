import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kspecfun import cli, identities
from kspecfun.wright import eval_pfq


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, timeout=120, **kw):
    # the child imports kspecfun from this checkout, installed or not
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "kspecfun", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
        **kw,
    )


def first_value(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("value="):
            return float(line.partition("=")[2])
    raise AssertionError(f"no value line in {stdout!r}")


def test_eval_gmkbessel_defaults_give_classical_j():
    r = run_cli("eval", "gmkbessel", "z=2")
    assert r.returncode == 0
    assert first_value(r.stdout) == pytest.approx(0.22389077914123566805, rel=1e-9)
    assert "converged=true" in r.stdout


def test_eval_accepts_unicode_minus(capsys):
    # U+2212, which some shells and editors produce for "-"
    assert cli.main(["eval", "gmkbessel", "z=2", "c=\u22121"]) == 0
    unicode = capsys.readouterr().out
    assert cli.main(["eval", "gmkbessel", "z=2", "c=-1"]) == 0
    assert unicode == capsys.readouterr().out and len(unicode.splitlines()) == 4


def test_eval_tol_series_sets_the_series_tolerance(capsys):
    # --tol-series reaches the evaluator as tol; 22 terms at the default 1e-10
    for flags, terms in (([], 22), (["--tol-series", "1e-14"], 25)):
        assert cli.main(["eval", "gmkbessel", "z=10", *flags]) == 0
        assert f"terms_used={terms}\n" in capsys.readouterr().out


def test_eval_wright_margin_rejected():
    r = run_cli("eval", "wright", "upper=1:1,2:1", "lower=", "z=0.5")
    assert r.returncode == 2
    assert "margin" in r.stderr


def test_eval_unknown_key():
    r = run_cli("eval", "kgamma", "z=2", "bogus=1")
    assert r.returncode == 2
    assert "bogus" in r.stderr


def test_eval_pfq():
    r = run_cli("eval", "pfq", "upper=1,1", "lower=2", "z=0.5")
    assert r.returncode == 0
    assert first_value(r.stdout) == pytest.approx(2.0 * math.log(2.0), rel=1e-9)


def test_verify_oberhettinger_defaults():
    r = run_cli("verify", "oberhettinger")
    assert r.returncode == 0
    assert "verdict=match" in r.stdout
    lhs = [l for l in r.stdout.splitlines() if l.startswith("lhs=")][0]
    assert float(lhs.partition("=")[2]) == pytest.approx(1.0 / 3.0, rel=1e-7)


def test_verify_precondition_skip():
    r = run_cli("verify", "theorem1", "mu=5", "lam=1")
    assert r.returncode == 1
    assert r.stdout.startswith("skipped: precondition")


def test_verify_theorem2_canonical_only():
    r = run_cli("verify", "theorem2", "mu=0.5")
    assert r.returncode == 0
    assert "verdict=canonical_only" in r.stdout
    assert "ratio" in r.stdout


def test_verify_out_csv(tmp_path):
    out = tmp_path / "row.csv"
    r = run_cli("verify", "oberhettinger", "--out", str(out))
    assert r.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["verdict"] == "match"
    assert rows[0]["identity"] == "oberhettinger"
    assert rows[0]["k"] == ""


def test_sweep_json_lines_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "identity": "oberhettinger",
                "mu": [0.5, 1.0],
                "lam_minus_mu": [1.0],
                "a": [1.0, 2.0],
                "format": "json-lines",
            }
        )
    )
    out = tmp_path / "rows.jsonl"
    r = run_cli("sweep", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0
    assert "match=4" in r.stdout
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == 4
    assert [rec["mu"] for rec in recs] == [0.5, 0.5, 1.0, 1.0]
    for rec in recs:
        assert rec["verdict"] == "match"
        assert rec["lam"] == rec["mu"] + 1.0
        assert rec["rhs_paper"] is None
        assert abs(rec["lhs"] - rec["rhs_canonical"]) <= 1e-5 * abs(rec["lhs"])


def test_sweep_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"identity": "oberhettinger", "mu": [1], "bogus": 3}))
    r = run_cli("sweep", "--config", str(cfg))
    assert r.returncode == 2
    assert "bogus" in r.stderr


def test_sweep_lam_conflict(tmp_path):
    cfg = tmp_path / "conflict.json"
    cfg.write_text(
        json.dumps(
            {
                "identity": "oberhettinger",
                "mu": [1.0],
                "lam": [2.0],
                "lam_minus_mu": [1.0],
                "a": [1.0],
            }
        )
    )
    r = run_cli("sweep", "--config", str(cfg))
    assert r.returncode == 2
    assert "lam" in r.stderr


def test_sweep_stdout_records(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"identity": "oberhettinger", "mu": [1.0], "lam": [2.0], "a": [1.0]})
    )
    r = run_cli("sweep", "--config", str(cfg))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("identity,")
    assert "match=1 canonical_only=0 mismatch=0 skipped=0" in r.stderr


def test_sweep_records_a_point_whose_classical_check_overflows(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "corollary2", "nu": [1.0, 171.0]}))
    assert cli.main(["sweep", "--config", str(cfg), "--out", "-"]) == 0
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(out.splitlines()))
    assert [(row["nu"], row["verdict"]) for row in rows] == [("1.0", "match"), ("171.0", "skipped")]
    assert "classical J reduction failed: math range error" in err


def test_sweep_out_dash_keeps_text_off_records(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "oberhettinger", "mu": [1.0, 0.5]}))
    assert cli.main(["sweep", "--config", str(cfg), "--out", "-"]) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()
    assert rows[0] == ",".join(identities.CSV_FIELDS)
    assert len(rows) == 3 and all(row.startswith("oberhettinger,") for row in rows[1:])
    assert err == "match=2 canonical_only=0 mismatch=0 skipped=0\n"


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("params, verdict, report", [
    (["mu=1", "lam=2", "a=1"], "match", "identity=oberhettinger\n"),
    (["mu=1", "lam=0.5", "a=1"], "skipped", "skipped: precondition"),
], ids=["match", "skipped"])
def test_verify_out_dash_keeps_report_off_records(capsys, fmt, params, verdict, report):
    # the report used to share stdout with the record
    code = cli.main(["verify", "oberhettinger", *params, "--out", "-", "--format", fmt])
    assert code == (0 if verdict == "match" else 1)
    out, err = capsys.readouterr()
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == ",".join(identities.CSV_FIELDS)
        records = list(csv.DictReader(lines))
    else:
        records = [json.loads(line) for line in lines]
    assert len(records) == 1 and records[0]["verdict"] == verdict
    assert err.startswith(report)


def test_eval_dd_overflow_exit_code(capsys):
    # the dd path (lambda1 = k) overflows like a non-whole lambda1/k (0.5);
    # k_gamma past double range used to print value=inf and exit 0
    # a Gamma_k argument z whose z/k rounds to 0.0 used to raise a ValueError
    # from Gamma's pole and print a traceback
    for args in (["gmkbessel", "z=1e5", "c=1", "lambda1=1"],
                 ["gmkbessel", "z=1e5", "c=1", "lambda1=0.5"],
                 ["kgamma", "z=340", "k=2"],
                 ["kgamma", "z=5e-324", "k=1e10"],
                 ["kbessel", "z=1", "k=1e308", "nu=-0.9999999999999998"],
                 ["kwright", "upper=5e-324:1", "z=0.5", "k_scale=1e10"]):
        assert cli.main(["eval", *args]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "kspecfun: math range error\n")


def test_usage_error_exit_code():
    r = run_cli("eval", "kgamma", "z")
    assert r.returncode == 2


# In-process checks of the exact bytes the CLI prints; the strings are the
# README commands' output and must not change with refactors of cli.py.

README_STDOUT = {
    "eval kgamma z=2 k=2": "value=1.0\nterms_used=1\ntail_estimate=0.0\nconverged=true\n",
    "eval gmkbessel z=2 k=1 nu=0 gamma=1 lambda1=1 c=-1 b=1": (
        "value=0.2238907791487544\nterms_used=9\n"
        "tail_estimate=7.688984158478205e-12\nconverged=true\n"
    ),
    "eval wright upper=1.5:0.5,2:1 lower=3:1 z=0.25": (
        "value=0.5379715890264383\nterms_used=10\n"
        "tail_estimate=6.671652027984662e-12\nconverged=true\n"
    ),
    "eval pfq upper=1,1 lower=2 z=0.5": (
        "value=1.386294361061578\nterms_used=30\n"
        "tail_estimate=6.208817164103191e-11\nconverged=true\n"
    ),
    "verify theorem1 k=2 nu=0.5 gamma=1.5 lambda1=2 c=1 b=2 mu=0.5 lam=1.5 a=2 y=0.5": (
        "identity=theorem1\nk=2.0\nnu=0.5\ngamma=1.5\nlambda1=2.0\nc=1.0\nb=2.0\n"
        "mu=0.5\nlam=1.5\na=2.0\ny=0.5\nlhs=0.134079063552583\n"
        "rhs_canonical=0.13407906355308144\nrhs_paper=0.01672875071547764\n"
        "rel_diff_canonical=3.717467990132072e-12\nrel_diff_paper=0.87523219306408\n"
        "verdict=canonical_only\nquad_evals=240\nseries_terms=4\n"
        "diagnostics=packaged/canonical term ratios: n=0 0.125, n=1 0.0833333, n=2 0.047619\n"
    ),
    "verify oberhettinger mu=1 lam=2 a=1 --out row.csv": (
        "identity=oberhettinger\nmu=1.0\nlam=2.0\na=1.0\nlhs=0.3333333333333333\n"
        "rhs_canonical=0.3333333333333332\nrel_diff_canonical=3.3306690738754696e-16\n"
        "verdict=match\nquad_evals=240\nseries_terms=0\n"
    ),
}


@pytest.mark.parametrize("command", README_STDOUT)
def test_readme_command_stdout(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    out, err = capsys.readouterr()
    assert out == README_STDOUT[command]
    assert err == ""
    if "--out" in command:
        assert (tmp_path / "row.csv").read_text() == (
            "identity,k,nu,gamma,lambda1,c,b,mu,lam,a,y,lhs,rhs_canonical,rhs_paper,"
            "rel_diff_canonical,rel_diff_paper,verdict,quad_evals,series_terms\n"
            "oberhettinger,,,,,,,1.0,2.0,1.0,,0.3333333333333333,0.3333333333333332,,"
            "3.3306690738754696e-16,,match,240,0\n"
        )


# The console pins: command -> (exit status, what is pinned, the pinned text,
# timeout). What is pinned is the whole "stdout", the whole "stderr", a "line"
# that stdout holds, stdout's "last line", or None for the exit status alone.
# A row with a timeout in seconds runs in a child process that the timeout
# stops, so a runaway fails the row; every other row runs in-process.

CONSOLE_PINS = {
    # I_0(264) on the double-double path (at tol 1e-14 the plain rows' rounding
    # bound is too wide): every term is positive, so the series stops once its
    # tail is at most 2^-64 of the sum, and terms_used and tail_estimate pin
    # where it stops
    "eval gmkbessel z=264 k=1 nu=0 gamma=1 lambda1=1 c=1 b=1 --tol-series 1e-14": (0, "stdout", (
        "value=1.1067699210422132e+113\nterms_used=213\n"
        "tail_estimate=3.696483035600299e+93\nconverged=true\n"
    ), None),
    # I_0(300) converges by the same 2^-64 floor, on the plain rows at tol 1e-10,
    # 5.9e-16 from I_0(300) (the log rows' 4.475847367934796e+128 was 5.7e-14 off)
    "eval gmkbessel z=300 k=1 nu=0 gamma=1 lambda1=1 c=1 b=1": (0, "stdout", (
        "value=4.4758473679350495e+128\nterms_used=236\n"
        "tail_estimate=1.3833880010501736e+109\nconverged=true\n"
    ), None),
    # a 1F1 sum of positive terms takes the same floor, which settle reads
    # from the sum itself: it stops at 74 terms with its tail above tol
    "eval pfq upper=4.821699858927725 lower=1.9809673261504277 z=18.792827077542444": (0, "stdout", (
        "value=53968532004.14548\nterms_used=74\n"
        "tail_estimate=9.495868637869901e-10\nconverged=true\n"
    ), None),
    # J_0(300) alternates and cancels, so it gets no floor: its sum stays
    # unconverged at the 400-term cap
    "eval gmkbessel z=300 k=1 nu=0 gamma=1 lambda1=1 c=-1 b=1": (1, "line", "converged=false", None),
    # a k-Wright sum at k_scale 1.7 and a 3F2 sum of 29 terms each: their
    # term loops hoist ln k and the ratio-bound pairs, and keep these bits
    "eval kwright upper=1.5:0.5,0.75:1.25 lower=2:1,0.5:0.7,1.25:0.4 z=6.5 k_scale=1.7": (0, "stdout", (
        "value=354.63859336787147\nterms_used=29\n"
        "tail_estimate=5.2641796342643854e-11\nconverged=true\n"
    ), None),
    "eval pfq upper=0.5,2.25 lower=1.75,0.6 z=5": (0, "stdout", (
        "value=216.9367650489907\nterms_used=29\n"
        "tail_estimate=7.227730496020677e-11\nconverged=true\n"
    ), None),
    # each loop's long and alternating stops: a 2F1 of 217 terms near its
    # radius, and the k-Wright spec above at z = -6.5
    "eval pfq upper=0.75,1.25 lower=1.5 z=-0.9": (0, "stdout", (
        "value=0.6652659629189834\nterms_used=217\n"
        "tail_estimate=6.452632012700365e-11\nconverged=true\n"
    ), None),
    "eval kwright upper=1.5:0.5,0.75:1.25 lower=2:1,0.5:0.7,1.25:0.4 z=-6.5 k_scale=1.7": (0, "stdout", (
        "value=0.02671617003464859\nterms_used=31\n"
        "tail_estimate=1.0810332175556658e-12\nconverged=true\n"
    ), None),
    # the log/sign path: the first kind always takes it, and the generalized
    # series where a value leaves the normal range: here lambda1/k is not a
    # whole number, and the plain inner sum of this one-sign series passes
    # 1e308 at term 265 while the value 1/Gamma(50) times it does not
    "eval kbessel z=7.5 k=1.3 nu=0.4 gamma=1.2 lam=0.9": (0, "stdout", (
        "value=-0.09390149360006375\nterms_used=16\n"
        "tail_estimate=3.6072949218328758e-12\nconverged=true\n"
    ), None),
    "eval gmkbessel z=1000 k=1 nu=0 gamma=1 lambda1=1.01 c=1 b=99 --max-terms 800": (0, "stdout", (
        "value=8.771093154284255e+286\nterms_used=607\n"
        "tail_estimate=2.8040294064360544e+267\nconverged=true\n"
    ), None),
    # a kernel integral refined past its starting panels (420 nodes), bit for bit
    "verify oberhettinger mu=1.5 lam=3.5 a=2 --tol-quad 1e-13": (0, "stdout", (
        "identity=oberhettinger\nmu=1.5\nlam=3.5\na=2.0\nlhs=0.01031197389230382\n"
        "rhs_canonical=0.01031197389230381\nrel_diff_canonical=1.0093451520109981e-15\n"
        "verdict=match\nquad_evals=420\nseries_terms=0\n"
    ), None),
    # a series at a non-whole lambda1/k whose finite terms sum past double
    # range, on the plain rows and then on the log rows, exits 2
    "eval gmkbessel z=50000.1 k=0.7533495573085514 nu=1.7040731115061964 gamma=1"
    " lambda1=1.8770842544690318 c=1.2053806720858349 b=1.8124746143650992": (
        2, "stderr", "kspecfun: math range error\n", None),
    # a classical reference past double range is a failed side check, not
    # an aborted verify: the point reads inconclusive
    "verify corollary2 nu=171": (1, None, None, None),
    # the classical J reduction gap of the default corollary2 point, against
    # the exact rational reference
    "verify corollary2": (0, "last line", "diagnostics=classical J reduction gap at z=1: 1.135e-15", None),
    # z/2 is 0.0 at z = 5e-324: the series is its n = 0 term
    "eval kbessel z=5e-324": (0, "stdout", "value=1.0\nterms_used=1\ntail_estimate=0.0\nconverged=true\n", None),
    # one quadrature node of this integral lands on z = 5e-324
    "verify theorem1 y=1e-20 lambda1=0.5": (0, "line", "verdict=match", None),
    # H2: an integral of 2.4e40 must match under the relative quadrature
    # tolerance; the exit status (0 = match) and the refined theorem
    # integral's node count are pinned, not the digits
    "verify theorem1 k=1 nu=0 gamma=1 lambda1=1 c=1 b=1 mu=0.5 lam=0.6 a=0.01 y=1": (
        0, "line", "quad_evals=360", 60),
    # H1: its Bessel factor cancels, so the integrand's own rounding noise
    # is far above the quadrature goal and the integral stops after its
    # 240 starting nodes; it reads inconclusive, not a timeout
    "verify theorem1 k=1.5 nu=0.5 gamma=1.5 lambda1=0.7 c=-1 b=1 mu=0.5 lam=1.5 a=0.5 y=10": (
        1, "line", "quad_evals=240", 10),
    # lambda1/k = 5e9 is a whole number, but an exact-ratio row would cost
    # 5e9 divisions: past 16 a row takes one k-Gamma ratio, and the point
    # fails at once
    "verify theorem1 k=1e-10 nu=1e300 lambda1=0.5 c=-1": (
        1, "line", "diagnostics=evaluation failed: math range error", 10),
    # s0/k rounds to 0.0, Gamma's pole: a range error that the point reports,
    # where a ValueError used to abort verify
    "verify theorem1 k=1e308 lambda1=1e308 b=-0.9999999999999998 nu=0": (
        1, "line", "diagnostics=evaluation failed: math range error", None),
}


@pytest.mark.parametrize("command", CONSOLE_PINS)
def test_console_pin(command, capsys):
    status, pinned, text, timeout = CONSOLE_PINS[command]
    if timeout is None:
        assert cli.main(command.split()) == status
        out, err = capsys.readouterr()
    else:
        r = run_cli(*command.split(), timeout=timeout)
        assert r.returncode == status
        out, err = r.stdout, r.stderr
    if pinned == "stdout":
        assert out == text
    elif pinned == "stderr":
        assert err == text
    elif pinned == "line":
        assert text in out.splitlines()
    elif pinned == "last line":
        assert out.splitlines()[-1] == text
    else:
        assert pinned is None


def test_readme_sweep_summary(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {
                "identity": "oberhettinger",
                "mu": [0.5, 1.0, 1.5],
                "lam_minus_mu": [0.5, 1.0, 2.0],
                "a": [0.5, 1.0, 2.0],
            }
        )
    )
    rows = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(rows)]) == 0
    out, err = capsys.readouterr()
    assert out == "match=27 canonical_only=0 mismatch=0 skipped=0\n"
    assert err == ""
    assert len(rows.read_text().splitlines()) == 28


@pytest.mark.parametrize(
    "function, allowed",
    [
        ("kgamma", "z, k"),
        ("kbessel", "z, k, nu, gamma, lam"),
        ("gmkbessel", "z, k, nu, gamma, lambda1, c, b"),
        ("wright", "upper, lower, z"),
        ("kwright", "upper, lower, z, k_scale"),
        ("pfq", "upper, lower, z"),
    ],
)
def test_eval_unknown_key_message(function, allowed, capsys):
    assert cli.main(["eval", function, "z=0.5", "bogus=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"kspecfun: unknown parameter key 'bogus'; allowed: {allowed}\n"


def test_sweep_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "theorem1", "max_terms": 1}))
    assert cli.main(["sweep", "--config", str(cfg), "--max-terms", "400"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split(",")[-3] == "match"
    assert err == "match=1 canonical_only=0 mismatch=0 skipped=0\n"


@pytest.mark.parametrize("out", [2, ["x"], "", None])
def test_sweep_rejects_bad_config_out(out, capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "verify", lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "oberhettinger", "out": out}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kspecfun: config key 'out' must be a nonempty string, got {out!r}\n"
    assert calls == []


def test_sweep_rejects_non_finite_axis_value(capsys, tmp_path, monkeypatch):
    # a JSON NaN used to pass as a number and be skipped per point, with exit 0
    calls = []
    monkeypatch.setattr(cli, "verify", lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"identity": "oberhettinger", "mu": [NaN, 1], "lam": [2], "a": [1]}')
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kspecfun: config key 'mu' must contain finite numbers, got nan\n"
    assert calls == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_terms", math.nan),
        ("max_terms", math.inf),
        ("max_terms", 2.5),
        ("tol_quad", math.nan),
        ("tol_quad", [1e-8]),
        ("max_terms", "400"),
        ("tol_series", 0),
        ("tol_match", -1),
    ],
)
def test_sweep_rejects_bad_config_setting(key, value, capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "verify", lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "oberhettinger", key: value}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    rule = "a whole number >= 1" if key == "max_terms" else "finite and > 0"
    assert captured.err == f"kspecfun: config key {key!r} must be {rule}, got {value!r}\n"
    assert calls == []


@pytest.mark.parametrize("command", ["verify oberhettinger", "verify theorem1", "sweep"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol-quad", "nan", "must be finite and > 0, got nan"),
        ("--tol-quad", "-1", "must be finite and > 0, got -1.0"),
        ("--max-terms", "0", "must be a whole number >= 1, got 0"),
        ("--tol-series", "inf", "must be finite and > 0, got inf"),
        ("--tol-match", "0", "must be finite and > 0, got 0.0"),
    ],
)
def test_rejects_bad_setting_flag(command, flag, value, message, capsys, tmp_path, monkeypatch):
    # the rule a sweep config setting follows; these used to reach verify
    calls = []
    monkeypatch.setattr(cli, "verify", lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "oberhettinger"}))
    argv = command.split() + (["--config", str(cfg)] if command == "sweep" else [])
    assert cli.main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kspecfun: flag {flag} {message}\n"
    assert calls == []


def test_eval_rejects_bad_setting_flag(capsys):
    assert cli.main(["eval", "kgamma", "z=2", "--tol-series", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kspecfun: flag --tol-series must be finite and > 0, got inf\n"


def test_sweep_mismatch_exits_one(capsys, tmp_path, monkeypatch):
    # a closed form 1% off makes the kernel point a genuine mismatch
    closed_form = identities.oberhettinger_closed_form
    monkeypatch.setattr(identities, "oberhettinger_closed_form", lambda p: 1.01 * closed_form(p))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "oberhettinger"}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split(",")[-3] == "mismatch"
    assert err == "match=0 canonical_only=0 mismatch=1 skipped=0\n"


@pytest.mark.parametrize("command, message", [
    ("eval kgamma z=abc", "z: expected a number, got 'abc'"),
    ("eval kgamma z=1 z=2", "duplicate key 'z'"),
    ("eval kwright upper=1 z=0.5", "upper: expected offset:weight, got '1'"),
    ("eval kgamma k=2", "kgamma needs z=<value>"),
    ("eval kgamma z=2 k", "expected key=value, got 'k'"),
])
def test_eval_usage_error_message(command, message, capsys):
    assert cli.main(command.split()) == 2
    assert capsys.readouterr() == ("", f"kspecfun: {message}\n")


def test_eval_pfq_with_no_upper_parameters(capsys):
    # empty text is an empty parameter list: 0F1(; 1; 0.5)
    assert cli.main(["eval", "pfq", "upper=", "lower=1", "z=0.5"]) == 0
    r = eval_pfq((), (1.0,), 0.5)
    assert capsys.readouterr().out == (
        f"value={r.value!r}\nterms_used={r.terms_used}\ntail_estimate={r.tail_estimate!r}\n"
        "converged=true\n")


def test_eval_kwright_with_no_rows(capsys):
    # both row lists default to empty: the series is sum z^n / n! = exp(z)
    assert cli.main(["eval", "kwright", "z=0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[0], out[1]) == ("value=1.6487212706873657", "terms_used=11")


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


@pytest.mark.parametrize("text, message", [
    ('{"identity": "theorem1", "mu": []}',
     "config key 'mu' must be a finite number or nonempty list of them"),
    ("{", "malformed config: " + _json_error("{")),
    ("[1]", "malformed config: expected a flat JSON object"),
    ('{"identity": "theorem9"}', f"config needs identity set to one of {', '.join(identities.IDENTITY_IDS)}"),
    ('{"identity": "oberhettinger", "format": "xml"}', "unknown format 'xml'; expected csv or json-lines"),
    ('{"identity": "oberhettinger", "mu": [1], "bogus": 3}', "unknown config key 'bogus'"),
    ('{"identity": "oberhettinger", "lam": [2.0], "lam_minus_mu": [1.0]}',
     "config keys 'lam' and 'lam_minus_mu' are mutually exclusive"),
])
def test_sweep_config_error_message(text, message, capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "verify", lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"kspecfun: {message}\n")
    assert calls == []


def test_sweep_config_that_cannot_be_read(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(OSError) as err:
        open(missing, encoding="utf-8")
    assert cli.main(["sweep", "--config", str(missing)]) == 2
    assert capsys.readouterr() == ("", f"kspecfun: cannot read config: {err.value}\n")


def test_sweep_config_takes_a_scalar_as_a_one_value_axis(capsys, tmp_path):
    outputs = []
    for mu in (0.5, [0.5]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"identity": "oberhettinger", "mu": mu}))
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.splitlines()[1].startswith("oberhettinger,,,,,,,0.5,2.0,1.0,")
