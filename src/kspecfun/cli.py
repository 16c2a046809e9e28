"""Command-line front end: eval, verify, sweep.

eval prints a single function value with convergence metadata and exits 0
only when the series converged.  verify runs one identity check and exits 0
only on verdict match or canonical_only.  sweep expands a flat JSON
key-to-list config into a Cartesian grid, writes one record per point in
deterministic order, prints a summary count line, and exits 0 only when no
point produced a mismatch.

Records carry a fixed field set in both formats; the verdict vocabulary in
records is {match, canonical_only, mismatch, skipped}, with skipped covering
every point that produced no usable comparison (failed preconditions and
non-convergence alike).  Skip reasons are printed to the text stream, never
dropped.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

from .errors import DomainError, NonConvergenceError
from .identities import CSV_FIELDS, IDENTITIES, IDENTITY_IDS, to_record, verify
from .kbessel import BesselParams, eval_gmk_bessel, eval_k_bessel_first
from .kgamma import k_gamma
from .wright import WrightSpec, eval_k_wright, eval_pfq, eval_wright

__all__ = ["main"]

_EVAL_FUNCTIONS = ("kgamma", "kbessel", "gmkbessel", "wright", "kwright", "pfq")

# defaults for every parameter key; each identity uses those in its IDENTITIES[id].keys
_VERIFY_DEFAULTS = {
    "k": 1.0,
    "nu": 1.0,
    "gamma": 1.0,
    "lambda1": 1.0,
    "c": -1.0,
    "b": 1.0,
    "mu": 1.0,
    "lam": 2.0,
    "a": 1.0,
    "y": 1.0,
}

_CONFIG_SCALAR_KEYS = ("tol_quad", "tol_series", "tol_match", "max_terms")


class UsageError(Exception):
    pass


def _to_float(text: str, key: str) -> float:
    try:
        # accept the unicode minus (U+2212) some shells and editors produce
        return float(text.replace(chr(8722), "-"))
    except ValueError:
        raise UsageError(f"{key}: expected a number, got {text!r}") from None


def _parse_kv(tokens) -> dict:
    out = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep or not key:
            raise UsageError(f"expected key=value, got {tok!r}")
        if key in out:
            raise UsageError(f"duplicate key {key!r}")
        out[key] = val
    return out


def _check_keys(kv: dict, allowed, what: str) -> None:
    for key in kv:
        if key not in allowed:
            raise UsageError(f"unknown {what} key {key!r}; allowed: {', '.join(allowed)}")


def _parse_pairs(text: str, key: str):
    """offset:weight pairs, comma-separated; empty text means no rows."""
    if text == "":
        return ()
    rows = []
    for part in text.split(","):
        off, sep, wt = part.partition(":")
        if not sep:
            raise UsageError(f"{key}: expected offset:weight, got {part!r}")
        rows.append((_to_float(off, key), _to_float(wt, key)))
    return tuple(rows)


def _parse_floats(text: str, key: str):
    if text == "":
        return ()
    return tuple(_to_float(part, key) for part in text.split(","))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _print_eval(value: float, terms: int, tail: float, converged: bool) -> None:
    print(f"value={_fmt(float(value))}")
    print(f"terms_used={terms}")
    print(f"tail_estimate={_fmt(float(tail))}")
    print(f"converged={_fmt(converged)}")


def _cmd_eval(args) -> int:
    kv = _parse_kv(args.params)
    fn = args.function
    tol = args.tol_series
    max_terms = args.max_terms

    if fn == "kgamma":
        _check_keys(kv, ("z", "k"), "parameter")
        if "z" not in kv:
            raise UsageError("kgamma needs z=<value>")
        value = k_gamma(_to_float(kv["z"], "z"), _to_float(kv.get("k", "1"), "k"))
        _print_eval(value, 1, 0.0, True)
        return 0

    if fn == "kbessel":
        _check_keys(kv, ("z", "k", "nu", "gamma", "lam"), "parameter")
        if "z" not in kv:
            raise UsageError("kbessel needs z=<value>")
        res = eval_k_bessel_first(
            _to_float(kv.get("k", "1"), "k"),
            _to_float(kv.get("nu", "0"), "nu"),
            _to_float(kv.get("gamma", "1"), "gamma"),
            _to_float(kv.get("lam", "1"), "lam"),
            _to_float(kv["z"], "z"),
            tol=tol,
            max_terms=max_terms,
        )
        _print_eval(res.value, res.terms_used, res.tail_estimate, res.converged)
        return 0 if res.converged else 1

    if fn == "gmkbessel":
        _check_keys(kv, ("z", "k", "nu", "gamma", "lambda1", "c", "b"), "parameter")
        if "z" not in kv:
            raise UsageError("gmkbessel needs z=<value>")
        bp = BesselParams(
            k=_to_float(kv.get("k", "1"), "k"),
            nu=_to_float(kv.get("nu", "0"), "nu"),
            gamma=_to_float(kv.get("gamma", "1"), "gamma"),
            lambda1=_to_float(kv.get("lambda1", "1"), "lambda1"),
            c=_to_float(kv.get("c", "-1"), "c"),
            b=_to_float(kv.get("b", "1"), "b"),
        )
        res = eval_gmk_bessel(bp, _to_float(kv["z"], "z"), tol=tol, max_terms=max_terms)
        _print_eval(res.value, res.terms_used, res.tail_estimate, res.converged)
        return 0 if res.converged else 1

    if fn in ("wright", "kwright"):
        allowed = ("upper", "lower", "z") + (("k_scale",) if fn == "kwright" else ())
        _check_keys(kv, allowed, "parameter")
        if "z" not in kv:
            raise UsageError(f"{fn} needs z=<value>")
        spec = WrightSpec(
            upper=_parse_pairs(kv.get("upper", ""), "upper"),
            lower=_parse_pairs(kv.get("lower", ""), "lower"),
            k_scale=_to_float(kv.get("k_scale", "1"), "k_scale") if fn == "kwright" else 1.0,
        )
        z = _to_float(kv["z"], "z")
        if fn == "kwright":
            res = eval_k_wright(spec, z, tol=tol, max_terms=max_terms)
        else:
            res = eval_wright(spec, z, tol=tol, max_terms=max_terms)
        _print_eval(res.value, res.terms_used, res.tail_estimate, res.converged)
        return 0 if res.converged else 1

    # pfq
    _check_keys(kv, ("upper", "lower", "z"), "parameter")
    if "z" not in kv:
        raise UsageError("pfq needs z=<value>")
    res = eval_pfq(
        _parse_floats(kv.get("upper", ""), "upper"),
        _parse_floats(kv.get("lower", ""), "lower"),
        _to_float(kv["z"], "z"),
        tol=tol,
        max_terms=max_terms,
    )
    _print_eval(res.value, res.terms_used, res.tail_estimate, res.converged)
    return 0 if res.converged else 1


def _record_verdict(report) -> str:
    return "skipped" if report.verdict == "inconclusive" else report.verdict


def _write_records(records, path, fmt) -> None:
    if path == "-":
        _emit_records(records, sys.stdout, fmt)
        return
    with open(path, "w", encoding="ascii", newline="") as fh:
        _emit_records(records, fh, fmt)


def _emit_records(records, fh, fmt) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(["" if rec[f] is None else _fmt(rec[f]) for f in CSV_FIELDS])
    else:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _cmd_verify(args) -> int:
    identity = args.identity
    kv = _parse_kv(args.params)
    keys = IDENTITIES[identity].keys
    _check_keys(kv, keys, "parameter")
    params = {key: _VERIFY_DEFAULTS[key] for key in keys}
    for key, val in kv.items():
        params[key] = _to_float(val, key)

    report = verify(
        identity,
        params,
        tol_quad=args.tol_quad,
        tol_series=args.tol_series,
        tol_match=args.tol_match,
        max_terms=args.max_terms,
    )

    if report.verdict == "inconclusive" and report.diagnostics.startswith("precondition"):
        print(f"skipped: {report.diagnostics}")
    else:
        print(f"identity={report.identity_id}")
        for key in keys:
            if key in report.params:
                print(f"{key}={_fmt(float(report.params[key]))}")
        print(f"lhs={_fmt(report.lhs)}")
        print(f"rhs_canonical={_fmt(report.rhs_canonical)}")
        if report.rhs_paper is not None:
            print(f"rhs_paper={_fmt(report.rhs_paper)}")
        print(f"rel_diff_canonical={_fmt(report.rel_diff_canonical)}")
        if report.rel_diff_paper is not None:
            print(f"rel_diff_paper={_fmt(report.rel_diff_paper)}")
        print(f"verdict={report.verdict}")
        print(f"quad_evals={report.quad_evals}")
        print(f"series_terms={report.series_terms}")
        if report.diagnostics:
            print(f"diagnostics={report.diagnostics}")

    if args.out:
        rec = to_record(report)
        rec["verdict"] = _record_verdict(report)
        _write_records([rec], args.out, args.format)

    return 0 if report.verdict in ("match", "canonical_only") else 1


def _config_value_list(key, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise UsageError(f"config key {key!r} must be a number or nonempty list of numbers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise UsageError(f"config key {key!r} must contain numbers, got {item!r}")
        out.append(float(item))
    return out


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("malformed config: expected a flat JSON object")

    identity = cfg.get("identity")
    if not isinstance(identity, str) or identity not in IDENTITY_IDS:
        raise UsageError(f"config needs identity set to one of {', '.join(IDENTITY_IDS)}")
    grid_keys = IDENTITIES[identity].keys

    known = {"identity", "lam_minus_mu", "out", "format", *grid_keys, *_CONFIG_SCALAR_KEYS}
    for key in cfg:
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
    if "lam" in cfg and "lam_minus_mu" in cfg:
        raise UsageError("config keys 'lam' and 'lam_minus_mu' are mutually exclusive")

    scalars = {
        "tol_quad": args.tol_quad,
        "tol_series": args.tol_series,
        "tol_match": args.tol_match,
        "max_terms": args.max_terms,
    }
    for key in _CONFIG_SCALAR_KEYS:
        if key in cfg:
            value = cfg[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"config key {key!r} must be a single number")
            scalars[key] = value
    scalars["max_terms"] = int(scalars["max_terms"])

    offset_lam = "lam_minus_mu" in cfg
    lists = []
    for key in grid_keys:
        if key == "lam" and offset_lam:
            lists.append(("lam_minus_mu", _config_value_list("lam_minus_mu", cfg["lam_minus_mu"])))
        elif key in cfg:
            lists.append((key, _config_value_list(key, cfg[key])))
        else:
            lists.append((key, [_VERIFY_DEFAULTS[key]]))

    out_path = args.out or cfg.get("out")
    fmt = args.format or cfg.get("format") or "csv"
    if fmt not in ("csv", "json-lines"):
        raise UsageError(f"unknown format {fmt!r}; expected csv or json-lines")

    # skip reasons and the summary share the text stream; records get the file
    text = sys.stdout if out_path else sys.stderr

    records = []
    counts = {"match": 0, "canonical_only": 0, "mismatch": 0, "skipped": 0}
    for combo in itertools.product(*(values for _, values in lists)):
        params = {}
        for (key, _), value in zip(lists, combo):
            params[key] = value
        if offset_lam:
            params["lam"] = params["mu"] + params.pop("lam_minus_mu")
        report = verify(identity, params, **scalars)
        rec = to_record(report)
        rec["verdict"] = _record_verdict(report)
        counts[rec["verdict"]] += 1
        if rec["verdict"] == "skipped":
            point = " ".join(f"{key}={_fmt(params[key])}" for key in sorted(params))
            print(f"skipped: {point}: {report.diagnostics}", file=text)
        records.append(rec)

    _write_records(records, out_path or "-", fmt)
    print(
        "match={match} canonical_only={canonical_only} mismatch={mismatch} "
        "skipped={skipped}".format(**counts),
        file=text,
    )
    return 0 if counts["mismatch"] == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kspecfun",
        description="Evaluate k-deformed special functions and verify the integral identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series_flags(p):
        p.add_argument("--tol-series", type=float, default=1e-10, dest="tol_series")
        p.add_argument("--max-terms", type=int, default=400, dest="max_terms")

    def add_verify_flags(p):
        p.add_argument("--tol-quad", type=float, default=1e-8, dest="tol_quad")
        p.add_argument("--tol-match", type=float, default=1e-5, dest="tol_match")

    p_eval = sub.add_parser("eval", help="evaluate one function at key=value parameters")
    p_eval.add_argument("function", choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("params", nargs="*", metavar="key=value")
    add_series_flags(p_eval)

    p_verify = sub.add_parser("verify", help="check one identity at key=value parameters")
    p_verify.add_argument("identity", choices=IDENTITY_IDS)
    p_verify.add_argument("params", nargs="*", metavar="key=value")
    add_series_flags(p_verify)
    add_verify_flags(p_verify)
    p_verify.add_argument("--out", help="write the machine-readable record here")
    p_verify.add_argument("--format", choices=("csv", "json-lines"), default="csv")

    p_sweep = sub.add_parser("sweep", help="verify an identity over a parameter grid")
    p_sweep.add_argument("--config", required=True, help="flat JSON key-to-list grid config")
    add_series_flags(p_sweep)
    add_verify_flags(p_sweep)
    p_sweep.add_argument("--out", help="write records here (default: config 'out' or stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json-lines"), default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (UsageError, DomainError, NonConvergenceError, OverflowError) as exc:
        print(f"kspecfun: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"kspecfun: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
