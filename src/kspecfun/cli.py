"""Command-line front end: eval, verify, sweep.

eval prints a single function value with convergence metadata and exits 0
only when the series converged.  One `_EVAL` table drives it: each row holds
a function's parameter keys with their text defaults and its one evaluator
call.  verify runs one identity check and exits 0 only on verdict match or
canonical_only.  sweep expands a flat JSON key-to-list config into a
Cartesian grid, writes one record per point in deterministic order, prints a
summary count line, and exits 0 only when no point produced a mismatch.

The tolerance and budget flags have no defaults here: only the ones set are
passed on, so the library's defaults hold; sweep takes the library default,
then the config value, then the flag.  Flags and config values follow one
rule, `_setting`, checked before any point runs.

Records carry a fixed field set in both formats; the verdict vocabulary in
records is {match, canonical_only, mismatch, skipped}, with skipped covering
every point that produced no usable comparison (failed preconditions and
non-convergence alike).  Skip reasons are printed to the text stream, never
dropped; it is stderr when the records go to stdout.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from contextlib import nullcontext

from .errors import DomainError, NonConvergenceError
from .identities import CSV_FIELDS, IDENTITIES, IDENTITY_IDS, RESULT_FIELDS, to_record, verify
from .kbessel import BesselParams, eval_gmk_bessel, eval_k_bessel_first
from .kgamma import k_gamma
from .summation import SeriesResult, is_positive, is_real, is_whole
from .wright import WrightSpec, eval_k_wright, eval_pfq, eval_wright

__all__ = ["main"]

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

# tolerance and budget settings by flag dest and config key, with their types
_SETTINGS = {"tol_series": float, "max_terms": int, "tol_quad": float, "tol_match": float}
_HELP = {
    "tol_quad": "relative tolerance of the left-side quadrature, with a rounding floor "
    "of 50 eps times the integral of |f|",
}

# Keys are in the order the unknown-key message lists them; None marks the
# required z.  The calls look the evaluators up at call time, so a rebound one
# is seen.
_EVAL = {
    "kgamma": (
        {"z": None, "k": "1"},
        lambda flags, z, k: SeriesResult(k_gamma(z, k), 1, 0.0, True),
    ),
    "kbessel": (
        {"z": None, "k": "1", "nu": "0", "gamma": "1", "lam": "1"},
        lambda flags, z, k, nu, gamma, lam: eval_k_bessel_first(k, nu, gamma, lam, z, **flags),
    ),
    "gmkbessel": (
        {"z": None, "k": "1", "nu": "0", "gamma": "1", "lambda1": "1", "c": "-1", "b": "1"},
        lambda flags, z, **p: eval_gmk_bessel(BesselParams(**p), z, **flags),
    ),
    "wright": (
        {"upper": "", "lower": "", "z": None},
        lambda flags, z, **rows: eval_wright(WrightSpec(**rows), z, **flags),
    ),
    "kwright": (
        {"upper": "", "lower": "", "z": None, "k_scale": "1"},
        lambda flags, z, **spec: eval_k_wright(WrightSpec(**spec), z, **flags),
    ),
    "pfq": (
        {"upper": "", "lower": "", "z": None},
        lambda flags, z, upper, lower: eval_pfq(upper, lower, z, **flags),
    ),
}

# IdentityReport fields that verify prints after the parameters, in order
_REPORT_LINES = (*RESULT_FIELDS, "diagnostics")


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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flags(args) -> dict:
    """The tolerance and budget flags set on the command line, checked by the
    rule the config settings follow."""
    return {
        key: _setting(key, getattr(args, key), f"flag {_flag(key)}")
        for key in _SETTINGS
        if hasattr(args, key)
    }


def _cmd_eval(args) -> int:
    fn = args.function
    keys, evaluate = _EVAL[fn]
    kv = _parse_kv(args.params)
    _check_keys(kv, keys, "parameter")
    if "z" not in kv:
        raise UsageError(f"{fn} needs z=<value>")
    rows = _parse_floats if fn == "pfq" else _parse_pairs
    values = {}
    for key, default in keys.items():
        parse = rows if key in ("upper", "lower") else _to_float
        values[key] = parse(kv.get(key, default), key)
    flags = _flags(args)
    if "tol_series" in flags:
        flags["tol"] = flags.pop("tol_series")
    res = evaluate(flags, **values)
    for name in ("value", "terms_used", "tail_estimate", "converged"):
        print(f"{name}={_fmt(getattr(res, name))}")
    return 0 if res.converged else 1


def _record(report) -> dict:
    """The report as a record; an inconclusive verdict is recorded as skipped."""
    rec = to_record(report)
    if rec["verdict"] == "inconclusive":
        rec["verdict"] = "skipped"
    return rec


def _write_records(records, path, fmt) -> None:
    """Write the records to file path, or to stdout where path is "-"."""
    out = nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="ascii", newline="")
    with out as fh:
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

    report = verify(identity, params, **_flags(args))

    # the report goes to stderr when the record goes to stdout, as in sweep
    text = sys.stderr if args.out == "-" else sys.stdout
    if report.verdict == "inconclusive" and report.diagnostics.startswith("precondition"):
        print(f"skipped: {report.diagnostics}", file=text)
    else:
        lines = [("identity", report.identity_id)]
        lines += report.params.items()
        lines += [(name, getattr(report, name)) for name in _REPORT_LINES]
        for name, value in lines:
            if value is not None and value != "":
                print(f"{name}={_fmt(value)}", file=text)

    if args.out:
        _write_records([_record(report)], args.out, args.format)

    return 0 if report.verdict in ("match", "canonical_only") else 1


def _config_value_list(key, value):
    if is_real(value):
        value = [value]
    if not isinstance(value, list) or not value:
        raise UsageError(f"config key {key!r} must be a finite number or nonempty list of them")
    for item in value:
        if not is_real(item):
            raise UsageError(f"config key {key!r} must contain finite numbers, got {item!r}")
    return [float(item) for item in value]


def _setting(key, value, name):
    """A tolerance or max_terms, checked by its rule; name is the key or flag that gave it."""
    if key == "max_terms":
        if not is_whole(value, 1):
            raise UsageError(f"{name} must be a whole number >= 1, got {value!r}")
        return int(value)
    if not is_positive(value):
        raise UsageError(f"{name} must be finite and > 0, got {value!r}")
    return value


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

    known = {"identity", "lam_minus_mu", "out", "format", *grid_keys, *_SETTINGS}
    for key in cfg:
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
    if "lam" in cfg and "lam_minus_mu" in cfg:
        raise UsageError("config keys 'lam' and 'lam_minus_mu' are mutually exclusive")

    # library default, then config value, then flag
    settings = {
        key: _setting(key, cfg[key], f"config key {key!r}") for key in _SETTINGS if key in cfg
    }
    settings.update(_flags(args))

    offset_lam = "lam_minus_mu" in cfg
    lists = []
    for key in grid_keys:
        if key == "lam" and offset_lam:
            lists.append(("lam_minus_mu", _config_value_list("lam_minus_mu", cfg["lam_minus_mu"])))
        elif key in cfg:
            lists.append((key, _config_value_list(key, cfg[key])))
        else:
            lists.append((key, [_VERIFY_DEFAULTS[key]]))

    if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
        raise UsageError(f"config key 'out' must be a nonempty string, got {cfg['out']!r}")
    out_path = args.out or cfg.get("out")
    fmt = args.format or cfg.get("format") or "csv"
    if fmt not in ("csv", "json-lines"):
        raise UsageError(f"unknown format {fmt!r}; expected csv or json-lines")

    # skip reasons and the summary go to stderr when the records go to stdout (no file or "-")
    text = sys.stderr if out_path in (None, "-") else sys.stdout

    records = []
    counts = {"match": 0, "canonical_only": 0, "mismatch": 0, "skipped": 0}
    for combo in itertools.product(*(values for _, values in lists)):
        params = {}
        for (key, _), value in zip(lists, combo):
            params[key] = value
        if offset_lam:
            params["lam"] = params["mu"] + params.pop("lam_minus_mu")
        report = verify(identity, params, **settings)
        rec = _record(report)
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

    def add_flags(p, keys):
        for key in keys:
            p.add_argument(
                _flag(key), type=_SETTINGS[key], default=argparse.SUPPRESS, dest=key,
                help=_HELP.get(key),
            )

    p_eval = sub.add_parser("eval", help="evaluate one function at key=value parameters")
    p_eval.add_argument("function", choices=tuple(_EVAL))
    p_eval.add_argument("params", nargs="*", metavar="key=value")
    add_flags(p_eval, ("tol_series", "max_terms"))

    p_verify = sub.add_parser("verify", help="check one identity at key=value parameters")
    p_verify.add_argument("identity", choices=IDENTITY_IDS)
    p_verify.add_argument("params", nargs="*", metavar="key=value")
    add_flags(p_verify, _SETTINGS)
    p_verify.add_argument("--out", help="write the machine-readable record here")
    p_verify.add_argument("--format", choices=("csv", "json-lines"), default="csv")

    p_sweep = sub.add_parser("sweep", help="verify an identity over a parameter grid")
    p_sweep.add_argument("--config", required=True, help="flat JSON key-to-list grid config")
    add_flags(p_sweep, _SETTINGS)
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
    except (UsageError, DomainError, NonConvergenceError, OverflowError, OSError) as exc:
        print(f"kspecfun: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
