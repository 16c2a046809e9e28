"""Module attributes that a profiler may rebind to time one layer.

The benchmark's traced run (`bench/run.py --trace 1`) wraps exactly these
names to get its per-layer metrics.  Each must be looked up at call time
by the module that holds it, so a wrapper put in its place sees every
call.  A table or default argument that captured the function object at
import time would bypass the wrapper; these tests fail then.
"""

import contextlib
import io

import pytest

from kspecfun import cli, identities, kbessel, quadrature

UNIT = dict(k=1, nu=1, gamma=1, lambda1=1, c=-1, b=1, mu=1, lam=2, a=1, y=1)


def _verify_theorem1():
    identities.verify("theorem1", UNIT)


def _verify_theorem1_dd_rows():
    # near x = 0 the Bessel argument is about y = 8, where the first term ratio
    # of this cancelling sum is past 1, so the double-double rows sum it
    identities.verify("theorem1", dict(UNIT, y=8))


def _verify_theorem1_log_path():
    identities.verify("theorem1", dict(UNIT, lambda1=0.5))


def _verify_theorem2():
    identities.verify("theorem2", dict(UNIT, mu=0.5))


def _verify_oberhettinger():
    identities.verify("oberhettinger", {"mu": 1, "lam": 2, "a": 1})


def _cli_verify():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "oberhettinger"]) == 0


SEAMS = [
    (quadrature, "eval_gmk_bessel", _verify_theorem1),
    (identities, "theorem1_lhs", _verify_theorem1),
    (identities, "theorem2_lhs", _verify_theorem2),
    (identities, "oberhettinger_lhs", _verify_oberhettinger),
    (identities, "eval_k_wright", _verify_theorem1),
    (cli, "verify", _cli_verify),
    (kbessel, "log_k_gamma", _verify_theorem1_log_path),
    (kbessel, "settle", _verify_theorem1_log_path),
    (kbessel, "dd_add", _verify_theorem1_dd_rows),
    (kbessel, "dd_mul_d", _verify_theorem1_dd_rows),
    (kbessel, "dd_div_d", _verify_theorem1_dd_rows),
]


@pytest.mark.parametrize(
    "module, attr, run", SEAMS, ids=[f"{m.__name__}.{a}" for m, a, _ in SEAMS]
)
def test_rebound_attribute_sees_calls(monkeypatch, module, attr, run):
    fn = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    run()
    assert len(calls) > 0
