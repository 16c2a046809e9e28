import math
import random
import sys
import threading
from collections import Counter
from dataclasses import astuple, fields, replace
from itertools import chain, count, islice
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kspecfun import kbessel
from kspecfun.errors import DomainError
from kspecfun.identities import verify
from kspecfun.kbessel import (
    BesselParams,
    bessel_terms_logsig,
    eval_gmk_bessel,
    eval_k_bessel_first,
    gmk_bessel_term,
)
from kspecfun.kgamma import k_gamma, k_pochhammer, log_k_gamma
from kspecfun.summation import CompensatedSum, SeriesResult, dd_add, dd_div_d, dd_mul, dd_mul_d, settle

UNIT_J = BesselParams(k=1, nu=0, gamma=1, lambda1=1, c=-1, b=1)


def _settle_calls(monkeypatch, evaluate, *args, max_terms):
    """(|t|, ratio, partial sum) of each term of a log-row sum, as `settle`
    sees them.  Every term before the cap is answered None but the one whose
    row ends the series, so the sum runs to the cap or to its exact end."""
    seen, tables = [], []
    real, table = kbessel.settle, kbessel._PlainTable

    def hook(n, t_abs, rho, rho_prev, s, tol, cap, *rest):
        seen.append((t_abs, rho, s))
        if n >= cap or tables[-1].log[n - 1] is None:
            return real(n, t_abs, rho, rho_prev, s, tol, cap, *rest)
        return None

    monkeypatch.setattr(kbessel, "_PlainTable", lambda *a: tables.append(table(*a)) or tables[-1])
    monkeypatch.setattr(kbessel, "settle", hook)
    evaluate(*args, max_terms=max_terms)
    assert seen
    return seen


def _moved_signs(calls):
    """The sign each term moved the partial sum by: +1, -1, or 0 where the
    sum did not change.  A Neumaier step never moves it against the term."""
    sums = [0.0] + [s for _, _, s in calls]
    return [(b > a) - (b < a) for a, b in zip(sums, sums[1:])]


def _sign(x):
    return (x > 0) - (x < 0)


def test_classical_j0():
    r = eval_gmk_bessel(UNIT_J, 2.0, tol=1e-14)
    assert r.converged
    assert r.value == pytest.approx(0.22389077914123566805, rel=1e-13)


def test_classical_i1():
    p = BesselParams(k=1, nu=1, gamma=1, lambda1=1, c=1, b=1)
    r = eval_gmk_bessel(p, 1.0, tol=1e-14)
    assert r.value == pytest.approx(0.56515910399248502721, rel=1e-13)


def test_classical_j0_cancellation():
    # z = 10 loses ~4 digits to alternation; extended-precision path must hold
    r = eval_gmk_bessel(UNIT_J, 10.0, tol=1e-15)
    assert r.value == pytest.approx(-0.2459357644513483352, rel=1e-12)


def test_general_parameters_value():
    # 60-digit brute-force reference
    p = BesselParams(k=2, nu=0.5, gamma=1.5, lambda1=2, c=-1, b=2)
    r = eval_gmk_bessel(p, 3.0, tol=1e-14)
    assert r.value == pytest.approx(-0.029639810584798740155, rel=1e-12)


def test_z_zero():
    p = BesselParams(k=1, nu=1, gamma=1, lambda1=1, c=-1, b=1)
    r = eval_gmk_bessel(p, 0.0)
    assert r.value == 0.0
    assert r.converged and r.terms_used == 1
    # nu = 0: only the n = 0 term survives, (z/2)^0 = 1
    r0 = eval_gmk_bessel(UNIT_J, 0.0)
    assert r0.value == pytest.approx(1.0 / k_gamma(1.0, 1.0), rel=1e-14)


def test_c_zero_collapses_to_first_term():
    p = BesselParams(k=2, nu=0.5, gamma=1.5, lambda1=2, c=0, b=2)
    r = eval_gmk_bessel(p, 3.0)
    s0 = p.nu + 0.5 * (p.b + 1.0)
    expected = (3.0 / 2.0) ** p.nu / k_gamma(s0, p.k)
    assert r.value == pytest.approx(expected, rel=1e-14)
    assert r.terms_used == 1


def _table_terms(p, z, count):
    """The first count terms of a table's recurrence: the prefactor times the
    products of the z-free rows times w^2, each row built in turn by `row`."""
    tab, w = p._table, 0.5 * z
    t = kbessel._lead(w, p.nu, tab.s0, tab.k, tab.gk0)
    terms = []
    for n in range(count):
        terms.append(t)
        t *= tab.row(n) * (w * w)
    return terms


def test_incremental_matches_direct_terms():
    # non-integer lambda1/k: rows with one k-Gamma ratio exp(L_n - L_{n+1}) each
    p = BesselParams(k=1, nu=0.5, gamma=2.0, lambda1=1.5, c=-1, b=2)
    z = 4.0
    for n, t in enumerate(_table_terms(p, z, 101)):
        direct = gmk_bessel_term(p, z, n)
        assert t == pytest.approx(direct, rel=1e-12)  # size and sign
        if abs(direct) > 1e-290:  # signs compared where doubles hold the terms
            assert _sign(t) == _sign(direct) == (-1) ** n


def test_term_recurrence_formula():
    # ratio compared in log form so deep-tail indices stay representable
    p = BesselParams(k=2, nu=1.0, gamma=1.5, lambda1=3.0, c=-0.7, b=2)
    z = 2.5
    s0 = p.nu + 0.5 * (p.b + 1.0)
    rhos = [abs(p._table.row(n)) * (z / 2.0) ** 2 for n in range(101)]
    for n in range(101):
        log_r = log_k_gamma(p.lambda1 * (n + 1) + s0, p.k) - log_k_gamma(
            p.lambda1 * n + s0, p.k
        )
        expected = math.exp(
            math.log(abs(p.c))
            + math.log(p.gamma + n * p.k)
            + 2.0 * math.log(z / 2.0)
            - 2.0 * math.log(n + 1.0)
            - log_r
        )
        assert rhos[n] == pytest.approx(expected, rel=1e-12)
    # sign alternation from c < 0, checked where terms are representable
    for n in range(0, 12):
        t_n = gmk_bessel_term(p, z, n)
        t_next = gmk_bessel_term(p, z, n + 1)
        assert t_n != 0.0
        assert (t_next < 0.0) == (t_n > 0.0)


def _first_kind_term(k, nu, gamma, lam, z, n):
    """n-th first-kind term from its definition, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k, nu, gamma, lam, z = map(mpmath.mpf, (k, nu, gamma, lam, z))
        s = lam * n + nu + 1
        poch = k**n * mpmath.rf(gamma / k, n)
        gk = k ** (s / k - 1) * mpmath.gamma(s / k)
        return poch / gk * (-z / 2) ** n / mpmath.factorial(n) ** 2


@pytest.mark.parametrize(
    "k, nu, gamma, lam, z",
    [
        (1.0, 0.0, 1.0, 1.0, 3.0),
        (1.0, -0.4, -1.3, 0.8, -3.0),  # z < 0, nu in (-1, 0), gamma < 0
        (1.5, -0.7, 2.0, 2.5, -1.2),
        (2.0, 0.5, -4.0, 1.0, 2.0),  # gamma = -2k: the series stops after n = 2
    ],
)
def test_first_kind_incremental_matches_direct_terms(monkeypatch, k, nu, gamma, lam, z):
    calls = _settle_calls(monkeypatch, eval_k_bessel_first, k, nu, gamma, lam, z, max_terms=101)
    signs = _moved_signs(calls)
    for n, (t_abs, rho, _) in enumerate(calls):
        direct = _first_kind_term(k, nu, gamma, lam, z, n)
        following = _first_kind_term(k, nu, gamma, lam, z, n + 1)
        if abs(direct) > 1e-290:  # terms compared where doubles hold them
            assert t_abs == pytest.approx(abs(float(direct)), rel=1e-12, abs=0.0)
            assert signs[n] in (0, _sign(direct))
        if rho == 0.0:
            assert following == 0
            break
        assert rho == pytest.approx(float(abs(following / direct)), rel=1e-12)
    assert len(calls) == (3 if gamma == -2 * k else 101)
    assert all(signs[:3])


@pytest.mark.parametrize(
    "k, nu, gamma, lam, z",
    [
        (1.0, 0.0, 1.0, 1.0, 2.0),
        (1.0, 0.5, 1.5, 2.0, -3.0),  # lam/k integer: the double-double path
        (2.0, -0.5, 1.5, 3.0, 4.0),  # lam/k = 1.5: exp rows for the generalized series
        (1.5, 1.0, -0.7, 0.7, -1.5),
        (0.5, -0.3, 2.0, 0.9, 0.25),
    ],
)
def test_first_kind_is_generalized_series_at_square_root(k, nu, gamma, lam, z):
    # S(-z/2) with s0 = nu + 1 is the generalized series at nu' = 0,
    # b = 2 nu + 1, c = -sign(z) and (z'/2)^2 = |z|/2
    first = eval_k_bessel_first(k, nu, gamma, lam, z, tol=1e-15)
    p = BesselParams(k=k, nu=0.0, gamma=gamma, lambda1=lam, c=-math.copysign(1.0, z), b=2 * nu + 1)
    gen = eval_gmk_bessel(p, 2.0 * math.sqrt(abs(z) / 2.0), tol=1e-15)
    assert first.converged and gen.converged
    assert first.value == pytest.approx(gen.value, rel=1e-13)


@pytest.mark.parametrize("z, tol", [(30.0, 1e-12), (2.0, 1e-300)])
def test_dd_path_cap_reports_open_tail(z, tol):
    r = eval_gmk_bessel(UNIT_J, z, tol=tol, max_terms=4)
    assert not r.converged
    assert r.terms_used == 4
    last = abs(gmk_bessel_term(UNIT_J, z, 3))
    rho = abs(gmk_bessel_term(UNIT_J, z, 4)) / last
    expected = last * rho / (1.0 - rho) if rho < 1.0 else last
    assert r.tail_estimate == pytest.approx(expected, rel=1e-12)


def test_series_result_contract():
    r = eval_gmk_bessel(UNIT_J, 5.0, tol=1e-12, max_terms=400)
    assert r.converged
    assert r.terms_used >= 1
    assert r.tail_estimate <= 1e-12
    capped = eval_gmk_bessel(UNIT_J, 30.0, tol=1e-12, max_terms=4)
    assert not capped.converged


def test_first_kind_reduction():
    # weights reduce to 1/(n!)^2 at unit parameters and z/2 enters first power
    r = eval_k_bessel_first(1.0, 0.0, 1.0, 1.0, 2.0, tol=1e-14)
    assert r.value == pytest.approx(0.22389077914123566805, rel=1e-13)


def test_first_kind_general_value():
    # 200-term extended-precision reference
    r = eval_k_bessel_first(2.0, 1.0, 2.0, 1.0, 1.0, tol=1e-14)
    assert r.value == pytest.approx(0.41258107308286099768, rel=1e-13)


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("z", [264.0, 300.0, 400.0, 500.0])
def test_one_sign_i_nu_converges_at_large_argument(nu, z):
    # every term of I_nu is positive, so the sum stops at a 2^-64 relative tail;
    # the absolute tail of |s| > 1 ran I_0(300) into the 400-term cap
    mpmath = pytest.importorskip("mpmath")
    r = eval_gmk_bessel(BesselParams(1, nu, 1, 1, 1, 1), z, tol=1e-14)
    assert r.converged and r.terms_used < 400
    assert r.tail_estimate <= 2.0**-64 * r.value
    with mpmath.workdps(40):
        assert abs(r.value / mpmath.besseli(nu, z) - 1) <= 1e-15


def _gmk_sum(p, z):
    """The generalized series at z from its definition, in 60-digit arithmetic,
    summed until a Pochhammer factor ends it or, past n = 20, a term falls below
    1e-45 of the largest (the sums drawn below lose at most 2 digits to cancellation)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        k, nu, gamma, lam, c, b, w = map(mpmath.mpf, (p.k, p.nu, p.gamma, p.lambda1, p.c, p.b, z / 2))
        s0 = nu + (b + 1) / 2
        lgk = lambda x: (x / k - 1) * mpmath.log(k) + mpmath.loggamma(x / k)  # noqa: E731
        total, poch, big = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        for n in count():
            t = c**n * poch * mpmath.exp((nu + 2 * n) * mpmath.log(w) - lgk(lam * n + s0)
                                         - 2 * mpmath.loggamma(n + 1))
            total += t
            big = max(big, abs(t))
            poch *= gamma + n * k
            if not poch or n > 20 and abs(t) < big * mpmath.mpf(10) ** -45:
                return total


def _one_sign_draws(count_each, seed):
    """Seeded one-sign parameter sets (c > 0, gamma > 0), whole m = lambda1/k
    from 1 to 4 and non-integer m alike, with z log-uniform on [0.05, 500]."""
    rng = random.Random(seed)
    for whole in (True, False) * count_each:
        k = rng.uniform(0.5, 2.0)
        m = rng.randint(1, 4) if whole else rng.uniform(0.3, 3.0)
        p = BesselParams(k, rng.uniform(0.0, 3.0), rng.uniform(0.05, 3.0), m * k, rng.uniform(0.2, 2.0),
                         rng.uniform(-0.5, 3.0))
        yield p, math.exp(rng.uniform(math.log(0.05), math.log(500.0))), rng.choice((1e-10, 1e-14))


def _cancelling_draws(count_each, seed):
    """Seeded parameter sets whose sums can cancel, whole m = lambda1/k from 1 to 4
    and non-integer m alike: c < 0 with gamma of either sign, or c > 0 with
    gamma < 0, and every third set a Pochhammer zero gamma = -j k, j from 0 to 4,
    exact with k in eighths; z log-uniform on [0.01, 30]."""
    rng = random.Random(seed)
    for i, whole in enumerate((True, False) * count_each):
        zero = i % 3 == 2
        k = rng.randint(4, 16) / 8 if zero else rng.uniform(0.5, 2.0)
        m = rng.randint(1, 4) if whole else rng.uniform(0.3, 3.0)
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
        gamma = -rng.randint(0, 4) * k if zero else rng.uniform(-3.0, 3.0 if c < 0.0 else -0.05)
        p = BesselParams(k, rng.uniform(0.0, 3.0), gamma, m * k, c, rng.uniform(-0.5, 3.0))
        yield p, math.exp(rng.uniform(math.log(0.01), math.log(30.0))), rng.choice((1e-10, 1e-12, 1e-14))


def _small_gamma_draws(count, seed):
    """Seeded non-whole m = lambda1/k with gamma near 0 and c, each of either sign:
    row 0 is small and the rows after it are not, so a sum that can cancel may grow
    from its second term; z log-uniform on [0.01, 30]."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.uniform(0.5, 2.0)
        gamma = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, -1.0)
        p = BesselParams(k, rng.uniform(0.0, 3.0), gamma, rng.uniform(0.3, 3.0) * k,
                         rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0), rng.uniform(-0.5, 3.0))
        yield p, math.exp(rng.uniform(math.log(0.01), math.log(30.0))), rng.choice((1e-10, 1e-12, 1e-14))


def _dd_sum(p, w, tol, max_terms=400):
    """The sum of p's table on its double-double rows alone, also where it would
    sum plain rows first."""
    tab = p._table
    return tab.dd(w, kbessel._lead(w, p.nu, tab.s0, tab.k, tab.gk0), tol, max_terms)


def _plain_sum(p, z, tol, max_terms=400):
    """The plain-double sum of a table in full (no give-up and no rho_0 test),
    its rows built anew as `_PlainTable` builds them: at a non-whole m (stored
    as 0) the k-Gamma ratio from one `log_k_gamma` call per row, and R with
    the ln Gamma_k errors added."""
    tab, w = p._table, 0.5 * z
    pref = kbessel._lead(w, p.nu, tab.s0, tab.k, tab.gk0)
    acc, t, tsum, rho = CompensatedSum(), 1.0, 0.0, math.inf
    lgk0 = lgk = log_k_gamma(tab.s0, tab.k)
    dsum = 0.0
    for n in range(max_terms):
        row = tab.c * (tab.gamma + n * tab.k) / ((n + 1.0) * (n + 1.0))
        for j in range(tab.m):
            row /= tab.lambda1 * n + tab.s0 + j * tab.k
        if not tab.m:
            nxt = log_k_gamma(tab.lambda1 * (n + 1) + tab.s0, tab.k)
            row *= math.exp(lgk - nxt)
        acc.add(t)
        tsum += abs(t) * pref
        rho_prev, rho = rho, abs(row) * (w * w)
        res = settle(n + 1, abs(t) * pref, rho, rho_prev, pref * acc.value, tol, max_terms, tsum,
                     5.0 * (tab.m or 1) + 6.0)
        if res is not None:
            if not tab.m:
                res = res._replace(rounding=res.rounding + kbessel._UNIT * tsum * (
                    5.0 * (abs(lgk0) + abs(lgk)) + dsum))
            return res
        t *= row * (w * w)
        if not tab.m:
            lgk, dsum = nxt, dsum + abs(nxt - lgk)


def _row0_ratio(p, z):
    """rho_0 = |row 0| (z/2)^2 of a whole-m table, row 0 built as `_PlainTable` builds it."""
    tab, w = p._table, 0.5 * z
    row = tab.c * tab.gamma
    for j in range(tab.m):
        row /= tab.s0 + j * tab.k
    return abs(row) * (w * w)


def test_one_sign_census_is_bounded_by_rounding_and_tail():
    # rounding + tail_estimate bounds the error of every converged one-sign sum, and of
    # every converged sum that can cancel: on the plain rows alone, and as
    # eval_gmk_bessel returns it, at a whole m from the plain rows where their bound
    # meets tol (and, where the sum can cancel, rho_0 <= 1) and from the dd rows
    # elsewhere.  At a non-whole m the plain rows' sum is the answer, its rounding
    # counting the ln Gamma_k errors; gamma near 0 makes many of those sums cancel
    mpmath = pytest.importorskip("mpmath")
    checked = Counter()
    for p, z, tol in chain(_one_sign_draws(30, 34), _cancelling_draws(45, 37), _small_gamma_draws(60, 38)):
        exact = _gmk_sum(p, z)
        for evaluate in (lambda: _plain_sum(p, z, tol), lambda: eval_gmk_bessel(p, z, tol=tol)):
            try:
                r = evaluate()
            except OverflowError:
                continue
            if r.converged:
                checked[p.c < 0.0 or p.gamma < 0.0, 0.0 < abs(p.gamma) < 0.1 and not p._table.m] += 1
                assert abs(mpmath.mpf(r.value) - exact) <= r.rounding + r.tail_estimate, (p, z, tol, r)
    assert checked[False, False] >= 100 and checked[True, False] >= 150, checked
    assert checked[False, True] >= 20 and checked[True, True] >= 80, checked


def test_plain_sum_gives_up_only_where_its_bound_misses_tol():
    # the plain sum gives up once a lower bound on its rounding is past tol |value|:
    # on fresh rows, at tols on both sides of where the full plain sums' bounds
    # cross it, eval_gmk_bessel returns the full plain sum where its bound meets
    # tol, and elsewhere the dd rows' bits, often from a plain sum cut short.  A sum
    # that can cancel takes the plain rows only at rho_0 <= 1, and the dd rows'
    # bits, with row 0 alone built in plain doubles, past it.  At a non-whole m
    # there are no dd rows: the full plain sum is the answer whatever its bound
    cut, kept, gated, missed = Counter(), Counter(), 0, 0
    for p, z, _ in chain(_one_sign_draws(30, 34), _cancelling_draws(45, 37)):
        signed = p.c < 0.0 or p.gamma < 0.0
        for tol in (10.0 ** (-10 - j / 2) for j in range(11)):
            try:
                full = _plain_sum(p, z, tol)
            except OverflowError:
                continue
            q = replace(p)
            r = eval_gmk_bessel(q, z, tol=tol)
            if not p._table.m:
                assert r == full and q._table.rows == [], (p, z, tol, full)
                missed += full.rounding > tol * abs(full.value)
            elif signed and _row0_ratio(p, z) > 1.0:
                gated += 1
                assert len(q._table.prows) == 1, (p, z, tol)
                assert r == _dd_sum(replace(p), 0.5 * z, tol), (p, z, tol)
            elif full.rounding <= tol * abs(full.value):
                kept[signed] += 1
                assert r == full, (p, z, tol, full)
            else:
                assert r == _dd_sum(replace(p), 0.5 * z, tol), (p, z, tol)
                cut[signed] += len(q._table.prows) < full.terms_used
    assert min(cut[False], kept[False], cut[True], kept[True], gated, missed) >= 50, (cut, kept, gated, missed)


def test_settle_runs_once_per_sum_the_plain_rows_answer(monkeypatch):
    # both plain loops call settle only where it ends the sum, so a sum they answer,
    # at the cap or not, calls it once, at its last term, and keeps the bits of a
    # sum that calls it at every term
    seen = []
    real = kbessel.settle
    monkeypatch.setattr(kbessel, "settle", lambda n, *args: seen.append(n) or real(n, *args))
    answered = Counter()
    draws = chain(_one_sign_draws(40, 39), _cancelling_draws(60, 39), _small_gamma_draws(60, 39))
    for i, (p, z, tol) in enumerate(draws):
        max_terms = 5 if i % 3 == 2 else 400
        seen.clear()
        try:
            r = eval_gmk_bessel(p, z, tol=tol, max_terms=max_terms)
        except OverflowError:
            continue
        if p._table.rows or p._table.log:  # the dd or log rows summed it
            continue
        answered[p.c < 0.0 or p.gamma < 0.0, r.converged] += 1
        assert seen == [r.terms_used] and r == _plain_sum(p, z, tol, max_terms), (p, z, tol, max_terms)
    assert min(answered.values()) >= 15 and len(answered) == 4, answered


@pytest.mark.parametrize("args, z", [
    ((1.982, 0.353, 0.005, 1.982, -0.926, 1.59), 14.983),
    ((1.621, 0.232, -0.013, 3.242, 1.278, 0.777), 24.761),
])
def test_cancelling_plain_sum_takes_each_addition_error_exactly(args, z):
    # gamma near 0 makes row 0 small and the next rows large, so a partial sum can
    # fall below the term added to it; the compensated step must still take each
    # addition's exact error, as CompensatedSum.add does (a fast two-sum that
    # assumes |sum| >= |term| moves both values)
    p = BesselParams(*args)
    assert eval_gmk_bessel(p, z) == _plain_sum(p, z, 1e-10) and p._table.rows == []


@pytest.mark.parametrize("nu, expected", [
    (0, "SeriesResult(value=1.1067699210422132e+113, terms_used=213, tail_estimate=3.696483035600299e+93, "
        "converged=True, rounding=1.1062460211821844e+100)"),
    (1, "SeriesResult(value=1.1046717733295364e+113, terms_used=212, tail_estimate=5.982374127233026e+93, "
        "converged=True, rounding=1.1004672433325522e+100)"),
])
def test_one_sign_sum_past_its_plain_bound_is_the_dd_sum(nu, expected):
    # at tol 1e-14 the plain rows' rounding bound on I_nu(264) exceeds tol |value|,
    # so the dd rows sum it, to their own bits; the plain sum gives up after 9
    # terms, past (tol/u - 1) / grow = 8.1 with grow = 11 at m = 1
    p = BesselParams(1, nu, 1, 1, 1, 1)
    assert repr(eval_gmk_bessel(p, 264.0, tol=1e-14)) == expected
    assert len(p._table.prows) == 9 and len(p._table.rows) == 212 + (nu == 0)


def test_h2_node_sums_on_plain_rows_alone():
    # a node of H2's left side: I_0 at tol 1e-10, where the plain rows' bound holds,
    # so no double-double row is built
    mpmath = pytest.importorskip("mpmath")
    p = BesselParams(1, 0, 1, 1, 1, 1)
    r = eval_gmk_bessel(p, 98.6)
    assert r.converged and 0.0 < r.rounding <= 1e-10 * r.value
    assert len(p._table.prows) == r.terms_used and p._table.rows == []
    with mpmath.workdps(40):
        assert abs(r.value / mpmath.besseli(0, 98.6) - 1) <= 1e-14


@pytest.mark.parametrize("args, z_one", [
    ((1, 0, 1, 1, -1, 1), 2.0),  # J_0: row 0 is -1, so rho_0 = (z/2)^2
    ((1, 0, -0.5, 2, 1, 1), 4.0),  # gamma < 0 at m = 2: row 0 is -0.5 / 2, so rho_0 = (z/4)^2
])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_cancelling_sum_takes_the_plain_rows_only_where_its_terms_shrink_from_the_first(args, z_one, step):
    # rho_0 = |row 0| (z/2)^2 is 1 at z_one: at and just below it the plain rows sum
    # the series and no dd row is built; just above it the dd rows do, to their own
    # bits, after the plain row 0 that decided it
    z = z_one if step == 0 else math.nextafter(z_one, z_one + step)
    w = 0.5 * z
    p = BesselParams(*args)
    r = eval_gmk_bessel(p, z)
    tab = p._table
    assert (abs(tab.prows[0]) * (w * w) <= 1.0) == (step <= 0)
    if step <= 0:
        assert len(tab.prows) == r.terms_used and tab.rows == []
    else:
        assert len(tab.prows) == 1 and len(tab.rows) == r.terms_used
        assert r == _dd_sum(BesselParams(*args), w, 1e-10)


@pytest.mark.parametrize("args, z, max_terms, expected", [
    ((1, 0, 1, 1, 1, 99), 1000.0, 800, "SeriesResult(value=4.2110377315294e+299, terms_used=627, tail_estimate="
     "1.7318772216386171e+280, converged=True, rounding=2.340384593358351e+289)"),
    ((1, 0, 1, 1, 1, 343), 400.0, 400, "SeriesResult(value=7.566451743511345e-238, terms_used=197, tail_estimate="
     "7.248062540960113e-248, converged=True, rounding=1.3896152807152405e-248)"),
    ((1, 0, 1, 1, 1, 399), 400.0, 400, "SeriesResult(value=1.0092909203304051e-307, terms_used=155, tail_estimate="
     "8.4229241136083e-311, converged=True, rounding=1.53731e-318)"),
    ((1e20, 0, 1, 1.6e21, 1e300, 1), 6.3e6, 400, "SeriesResult(value=8.587898215891498, terms_used=3, "
     "tail_estimate=2.0985690662666533e-22, converged=True, rounding=1.534841484771091e-11)"),
    ((1e-25, 1e-25, 1, 1.6e-24, 1, -1), 1e-200, 400, "SeriesResult(value=1.0, terms_used=1, tail_estimate="
     "1.1948693330968742e-14, converged=True, rounding=4.945833615385907e-13)"),
    ((1e-25, 1e-25, 1e-20, 1e-25, 1e-300, -1), 2 * math.sqrt(1e295), 400, "SeriesResult(value=2.1297039422639537, "
     "terms_used=7, tail_estimate=7.835517424163354e-12, converged=True, rounding=5.5659295475343475e-12)"),
], ids=["inner sum overflows", "prefactor subnormal", "prefactor zero", "c g overflows", "row overflows",
        "c g subnormal"])
def test_plain_sum_out_of_double_range_takes_the_log_rows(args, z, max_terms, expected):
    # the plain inner sum passes 1e308 while the value 1/Gamma(50) times it does
    # not; or the prefactor 1/Gamma(s0) is not a normal double; or a step of a
    # row leaves the normal range: at m = 16, c g = 1e300 (1 + 1e20) at n = 1,
    # where the row is 4e-23, and 1 / (16! 1e-400) at n = 0; at m = 1, c g =
    # 1e-320, a subnormal with 11 significant bits, on the way to the row 1e-295.
    # Each call returns the parent's value, a log-row sum, whose bound meets tol
    p = BesselParams(*args)
    for _ in range(2):  # the second call reads the log rows the first one built
        r = eval_gmk_bessel(p, z, max_terms=max_terms)
        assert repr(r) == expected
    lw = math.log(0.5 * z)
    assert r == kbessel._PlainTable(p.k, p.gamma, p.lambda1, p.c, p.s0, p._table.m).logsum(
        p.nu * lw, 2.0 * lw, 1e-10, max_terms)
    assert p._table.rows == [] and p._table.log
    # the plain attempt stops where its value leaves the normal range (term 252 of
    # the inner sum that overflows), not at the cap
    assert len(p._table.prows) <= 252


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("z", [300.0, 400.0])
def test_alternating_j_nu_keeps_the_absolute_tail(nu, z):
    # J_nu alternates: its sum at these arguments is cancellation noise, and
    # the floor would report it converged
    r = eval_gmk_bessel(BesselParams(1, nu, 1, 1, -1, 1), z)
    assert not r.converged and r.terms_used == 400


@pytest.mark.xfail(strict=True, reason="the dd path sums J_0/J_1(264) to cancellation noise (6.2e79, "
                   "1.0e80) and reports converged=True; ROADMAP item 1 counts the rounding error")
@pytest.mark.parametrize("nu", [0, 1])
def test_alternating_j_nu_at_264_is_right_where_it_reports_converged(nu):
    mpmath = pytest.importorskip("mpmath")
    r = eval_gmk_bessel(BesselParams(1, nu, 1, 1, -1, 1), 264.0)
    with mpmath.workdps(40):
        exact = mpmath.besselj(nu, 264)
    assert not r.converged or abs(r.value - exact) <= 1e-10 * max(abs(exact), 1)


H1_FACTOR = BesselParams(1.5, 0.5, 1.5, 0.7, -1, 1)


@pytest.mark.xfail(strict=True, reason="cancellation leaves these sums 0.18% off, 2.1e6 for -9.1e-13, "
                   "4.4e-9 off and -1.1e139 for -0.039, each with converged=True; ROADMAP item 1's "
                   "rounding bound reports them unconverged")
@pytest.mark.parametrize("p, z, tol, max_terms", [
    (H1_FACTOR, 10.0, 1e-12, 400),
    (H1_FACTOR, 20.0, 1e-12, 400),
    (BesselParams(1.961, 1.126, 1.097, 1.961, -1.316, 1.405), 20.073, 1e-10, 400),  # the dd path
    (UNIT_J, 400.0, 1e-10, 800),
], ids=["H1 factor z=10", "H1 factor z=20", "dd z=20.073", "J_0(400)"])
def test_cancelled_sums_are_right_where_they_report_converged(p, z, tol, max_terms):
    mpmath = pytest.importorskip("mpmath")
    r = eval_gmk_bessel(p, z, tol=tol, max_terms=max_terms)
    with mpmath.workdps(40):
        if p == UNIT_J:
            exact = mpmath.besselj(0, z)
        else:
            exact = mpmath.fsum(_gmk_term(p, z, n) for n in range(300))
        assert not r.converged or abs(r.value - exact) <= tol * max(abs(exact), 1)


@pytest.mark.parametrize("p, z, tol, max_terms", [
    (H1_FACTOR, 10.0, 1e-12, 400),
    (H1_FACTOR, 20.0, 1e-12, 400),
    (BesselParams(1.961, 1.126, 1.097, 1.961, -1.316, 1.405), 20.073, 1e-10, 400),  # the dd path
    (UNIT_J, 400.0, 1e-10, 800),
    (H1_FACTOR, 4.659834361015377, 1e-10, 400),  # a node of the second identity at H1
], ids=["H1 factor z=10", "H1 factor z=20", "dd z=20.073", "J_0(400)", "T2 node"])
def test_rounding_and_tail_bound_the_error_of_cancelled_sums(p, z, tol, max_terms):
    # the sums above that report converged on cancellation noise say so in rounding
    mpmath = pytest.importorskip("mpmath")
    r = eval_gmk_bessel(p, z, tol=tol, max_terms=max_terms)
    with mpmath.workdps(40):
        if p == UNIT_J:
            exact = mpmath.besselj(0, z)
        else:
            exact = mpmath.fsum(_gmk_term(p, z, n) for n in range(300))
        assert r.rounding + r.tail_estimate >= abs(r.value - exact)


def test_first_kind_one_sign_sum_stops_on_the_floor():
    # z < 0 and gamma > 0: every term is positive, so the sum stops once its
    # tail is at most 2^-64 of it, far above tol
    r = eval_k_bessel_first(1.5, 0.5, 1.5, 0.7, -200.0)
    assert repr(r) == ("SeriesResult(value=4.46138901188792e+20, terms_used=87, "
                       "tail_estimate=12.451188757735077, converged=True, rounding=403330385.3477106)")
    assert 1e-10 < r.tail_estimate <= 2.0**-64 * r.value


# At z = 40 every sum of these tables but the short ones (gamma = -2 ends exactly
# at its third term, gamma = 0 at its first) is past |s| = 2^64 tol, where the
# 2^-64 floor can stop it.  The one-sign sums (c > 0, gamma > 0) take the floor,
# and so do those at c > 0, gamma = -0.5: their terms of the other sign are too
# small to cancel, so their sizes add to at most 2 |s|.  The c < 0 sums cancel
# and stop on tol.  The values came from a sign proof of the floor, and the
# gamma = -0.5 sums stopped later there (59 -> 55, 112 -> 90).  At lambda1 = 1 the
# sums with c > 0 and gamma >= 0 come from the plain-double rows, within 2.3e-16
# of the exact sums (the log rows' 7.516298137888686e+16, 1.1855328240447637e+25
# and 5.046265044040321 were up to 1.7e-14 off).  At lambda1 = 0.7 every sum comes
# from plain rows whose k-Gamma ratio is exp(L_n - L_{n+1}), within 3.1e-15 of the
# exact sums (the log rows' 3.6431847058252203e+28, 1.1055272891880803e+47,
# -6.275862078024799e+24, 192544.0877077052 and 5.046265044040321 were up to 2.3e-14
# off); the c < 0 sum is cancellation noise on both (-1257216241897.3953 there), its
# rounding bound 1.6e3 times its value.
@pytest.mark.parametrize("lambda1, c, gamma, value, terms, on_floor", [
    (1.0, 1.0, 1.5, "7.516298137888771e+16", 56, True),
    (1.0, 2.5, 0.5, "1.185532824044784e+25", 74, True),
    (1.0, 1.0, -0.5, "-52327517635443.96", 55, True),
    (1.0, 1.0, -2.0, "104967.35918108269", 3, False),
    (1.0, -1.0, 1.5, "0.037175282439431016", 65, False),
    (1.0, 1.0, 0.0, "5.04626504404032", 1, False),
    (0.7, 1.0, 1.5, "3.643184705825209e+28", 91, True),
    (0.7, 2.5, 0.5, "1.1055272891880996e+47", 132, True),
    (0.7, 1.0, -0.5, "-6.275862078024962e+24", 90, True),
    (0.7, 1.0, -2.0, "192544.08770770562", 3, False),
    (0.7, -1.0, 1.5, "-7966412932706.961", 118, False),
    (0.7, 1.0, 0.0, "5.04626504404032", 1, False),
])
def test_table_sum_takes_the_floor_only_where_it_has_not_cancelled(monkeypatch, lambda1, c, gamma, value,
                                                                 terms, on_floor):
    seen = []
    real = kbessel.settle

    def hook(n, t_abs, rho, rho_prev, s, tol, cap, tsum, grow):
        seen[:] = [tsum, s]
        return real(n, t_abs, rho, rho_prev, s, tol, cap, tsum, grow)

    monkeypatch.setattr(kbessel, "settle", hook)
    r = eval_gmk_bessel(BesselParams(1.0, 0.5, gamma, lambda1, c, 1.0), 40.0)
    assert (repr(r.value), r.terms_used, r.converged) == (value, terms, True)
    assert (r.tail_estimate > 1e-10 * min(abs(r.value), 1.0)) == on_floor
    if on_floor or c < 0.0:
        tsum, s = seen  # at the term that ended the sum
        assert (tsum <= 2.0 * abs(s)) == on_floor
    if on_floor:
        assert r.tail_estimate <= 2.0**-64 * abs(r.value)


def test_first_kind_z_zero():
    r = eval_k_bessel_first(2.0, 1.0, 2.0, 1.0, 0.0)
    assert r.value == pytest.approx(1.0 / k_gamma(2.0, 2.0), rel=1e-14)
    assert r.terms_used == 1


@pytest.mark.parametrize("z", [5e-324, -5e-324])
def test_first_kind_takes_a_half_argument_that_rounds_to_zero(z):
    # |z|/2 is 0.0: the series is its n = 0 term, as at z = 0, not log(0)
    expected = SeriesResult(1.0 / k_gamma(1.5, 1.0), 1, 0.0, True)
    assert eval_k_bessel_first(1, 0.5, 1, 0.5, z) == eval_k_bessel_first(1, 0.5, 1, 0.5, 0.0) == expected


@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_log_path_takes_a_half_argument_that_rounds_to_zero(nu):
    # 0.5 * 5e-324 is 0.0: the series is its n = 0 term, not log(0)
    p = BesselParams(1, nu, 1, 0.5, -1, 1)
    expected = SeriesResult(1.0 / k_gamma(1.0 + nu, 1.0) if nu == 0.0 else 0.0, 1, 0.0, True)
    assert eval_gmk_bessel(p, 5e-324) == eval_gmk_bessel(p, 0.0) == expected


_K10 = dict(k=10, nu=1499, gamma=1, lambda1=10, c=-1, b=1)


@pytest.mark.parametrize(
    "p, z, expected",
    [
        # Gamma_k(121) at k = 0.5 raises OverflowError: the dd path and c = 0
        (BesselParams(k=0.5, nu=120, gamma=1, lambda1=1, c=-1, b=1), 50.0, 1.9546852475857787e-231),
        (BesselParams(k=0.5, nu=120, gamma=1, lambda1=1, c=0, b=1), 50.0, 2.040066138757104e-231),
        # Gamma_10(1500) comes back as inf; at z = 3.8, (z/2)^1499 also overflows
        (BesselParams(**_K10), 3.0, 2.3952227390735614e-146),
        (BesselParams(**_K10), 3.8, 186125580.31211775),
    ],
)
def test_lead_factor_outside_double_range(p, z, expected):
    # 50-digit mpmath sums of the defining series
    r = eval_gmk_bessel(p, z)
    assert r.converged
    assert r.value == pytest.approx(expected, rel=1e-9, abs=0)


def test_first_kind_z_zero_underflows():
    # 1 / Gamma_k(121) at k = 0.5 is below double range
    assert eval_k_bessel_first(0.5, 120, 1, 1, 0.0).value == 0.0


def test_param_validation():
    with pytest.raises(DomainError):
        BesselParams(k=0, nu=0, gamma=1, lambda1=1, c=-1, b=1)
    with pytest.raises(DomainError):
        BesselParams(k=1, nu=0, gamma=1, lambda1=0, c=-1, b=1)
    with pytest.raises(DomainError):
        BesselParams(k=1, nu=0, gamma=1, lambda1=1, c=-1, b=-3)
    with pytest.raises(DomainError):
        eval_gmk_bessel(UNIT_J, -1.0)
    with pytest.raises(DomainError):
        eval_k_bessel_first(1.0, -2.0, 1.0, 1.0, 1.0)
    # a bool scale used to be taken as k = 1
    with pytest.raises(DomainError, match="k must be positive, got True"):
        BesselParams(k=True, nu=0, gamma=1, lambda1=1, c=-1, b=1)
    with pytest.raises(DomainError, match="k must be positive, got True"):
        eval_k_bessel_first(True, 0.0, 1.0, 1.0, 1.0)
    # a bool parameter used to be taken as a number
    with pytest.raises(DomainError, match="parameters must be finite reals"):
        BesselParams(k=1, nu=True, gamma=1, lambda1=1, c=-1, b=1)
    with pytest.raises(DomainError, match="parameters must be finite reals"):
        BesselParams(k=1, nu=0, gamma=1, lambda1=1, c=False, b=1)
    with pytest.raises(DomainError, match="nu must be a finite real, got True"):
        eval_k_bessel_first(1.0, True, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="^nu must be nonnegative, got -0.5$"):
        BesselParams(1, -0.5, 1, 1, -1, 1)
    with pytest.raises(DomainError, match="^lam must be positive, got 0$"):
        eval_k_bessel_first(1, 0, 1, 0, 1.0)


def test_pochhammer_weight_visible():
    # doubling gamma doubles the n=1 term's contribution relative to gamma=1
    p1 = BesselParams(k=1, nu=0, gamma=1.0, lambda1=1, c=1, b=1)
    p2 = BesselParams(k=1, nu=0, gamma=2.0, lambda1=1, c=1, b=1)
    t1 = gmk_bessel_term(p1, 1.0, 1)
    t2 = gmk_bessel_term(p2, 1.0, 1)
    assert t2 / t1 == pytest.approx(
        k_pochhammer(2.0, 1, 1.0) / k_pochhammer(1.0, 1, 1.0), rel=1e-14
    )


def _gmk_term(p, z, n):
    """n-th generalized series term from its definition, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k, nu, gamma, lam, c, b, z = map(mpmath.mpf, (p.k, p.nu, p.gamma, p.lambda1, p.c, p.b, z))
        s = lam * n + nu + (b + 1) / 2
        poch = mpmath.fprod(gamma + j * k for j in range(n))
        gk = k ** (s / k - 1) * mpmath.gamma(s / k)
        return c**n * poch / gk * (z / 2) ** (nu + 2 * n) / mpmath.factorial(n) ** 2


@pytest.mark.parametrize(
    "params, z",
    [
        # gamma < 0: the Pochhammer sign flips at each of the first three factors
        (dict(k=1.0, nu=0.5, gamma=-2.5, lambda1=0.7, c=1.0, b=1.0), 3.0),
        (dict(k=1.5, nu=0.0, gamma=-4.0, lambda1=3.0, c=-0.8, b=2.0), 2.5),
        (dict(k=0.7, nu=1.2, gamma=-1.9, lambda1=1.3, c=-1.3, b=0.5), 6.0),
        # gamma = -2k: the factor at j = 2 vanishes, so every term past n = 2 is 0
        (dict(k=1.5, nu=0.5, gamma=-3.0, lambda1=1.05, c=-1.0, b=1.0), 4.0),
        (dict(k=2.0, nu=0.0, gamma=-4.0, lambda1=4.0, c=0.6, b=3.0), 1.5),
    ],
)
def test_term_matches_definition(params, z):
    p = BesselParams(**params)
    for n in range(30):
        expected = _gmk_term(p, z, n)
        got = gmk_bessel_term(p, z, n)
        if expected == 0:
            assert got == 0.0 and params["gamma"] == -2 * params["k"] and n > 2
        else:
            assert got == pytest.approx(float(expected), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("z", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("n", [2.5, 0.5, -1, True])
def test_term_index_must_be_a_whole_number(z, n):
    # the index is refused before the term stream is read, at z = 0 as elsewhere
    for nu in (0.0, 0.5):
        with pytest.raises(DomainError):
            gmk_bessel_term(BesselParams(k=1, nu=nu, gamma=1, lambda1=1, c=-1, b=1), z, n)


def test_term_index_takes_whole_floats():
    p = BesselParams(k=1, nu=0, gamma=1, lambda1=1, c=-1, b=1)
    assert gmk_bessel_term(p, 2.0, 2.0) == gmk_bessel_term(p, 2.0, 2)
    # True used to be taken as n = 1
    with pytest.raises(DomainError) as err:
        gmk_bessel_term(p, 2.0, True)
    assert str(err.value) == "term index must be an integer >= 0, got True"


@pytest.mark.parametrize("z", [-1.0, -1e-300, math.nan, math.inf, -math.inf, True, "1"])
def test_term_rejects_the_arguments_eval_rejects(z):
    p = BesselParams(k=1, nu=0.5, gamma=1, lambda1=1, c=-1, b=1)
    with pytest.raises(DomainError) as expected:
        eval_gmk_bessel(p, z)
    for n in (0, 3):
        with pytest.raises(DomainError) as got:
            gmk_bessel_term(p, z, n)
        assert str(got.value) == str(expected.value)


def test_dd_prefactor_gamma_once_per_table(monkeypatch):
    # Gamma_k(s0) once per table and the prefactor once per call, also on a call past
    # z = 3.16, where rho_0 = 0.4 (z/2)^2 is past 1 and the dd rows sum the series
    calls, leads = [], []
    real, lead = kbessel.k_gamma, kbessel._lead
    monkeypatch.setattr(kbessel, "k_gamma", lambda s, k: calls.append(s) or real(s, k))
    monkeypatch.setattr(kbessel, "_lead", lambda *args: leads.append(args) or lead(*args))
    p = BesselParams(k=1, nu=0.5, gamma=1.5, lambda1=2, c=-1, b=1)
    for i in range(1, 60):
        leads.clear()
        eval_gmk_bessel(p, 0.1 * i)
        assert len(leads) == 1, i
    assert len(calls) == 1 and len(p._table.rows) > 1


# The term table: one BesselParams object evaluated at many z must give what
# a fresh object gives, bit for bit, whether its rows are new or reused.  A
# non-whole lambda1/k sums on exp rows; a whole one on m-factor rows, and its
# sums that can cancel on the dd rows where rho_0 is past 1.
TABLE_CASES = {
    "exp rows, lambda1/k=0.5, c=-1": dict(k=2, nu=0.5, gamma=1.5, lambda1=1, c=-1, b=1),
    "exp rows, lambda1/k=0.5, c=2.5": dict(k=2, nu=1.0, gamma=1.5, lambda1=1, c=2.5, b=2),
    "exp rows, lambda1/k=0.7, c=-0.6": dict(k=1.5, nu=0.5, gamma=1.5, lambda1=1.05, c=-0.6, b=1),
    "m-factor rows, lambda1/k=1, c=1": dict(k=1, nu=0.5, gamma=1.5, lambda1=1, c=1, b=1),
    "m-factor rows, lambda1/k=1, c=-1.3": dict(k=1, nu=0, gamma=1, lambda1=1, c=-1.3, b=1),
    "m-factor rows, lambda1/k=2, c=-0.7": dict(k=1, nu=1.0, gamma=1.5, lambda1=2, c=-0.7, b=2),
    "m-factor rows, gamma=-2k terminates": dict(k=1.5, nu=0.5, gamma=-3, lambda1=3, c=-1, b=1),
    "exp rows, gamma=-2k terminates": dict(k=2, nu=0.5, gamma=-4, lambda1=1, c=-1.5, b=1),
}


@pytest.mark.parametrize("params", TABLE_CASES.values(), ids=TABLE_CASES)
def test_table_reuse_is_bit_identical_to_fresh_evaluation(params):
    rng = random.Random(1)
    zs = [0.0, 0.3, 30.0] + [rng.uniform(0.05, 20.0) for _ in range(40)]
    rng.shuffle(zs)
    shared = BesselParams(**params)
    for z in zs:
        for max_terms in (1, 3, 400):
            reused = eval_gmk_bessel(shared, z, tol=1e-12, max_terms=max_terms)
            fresh = eval_gmk_bessel(BesselParams(**params), z, tol=1e-12, max_terms=max_terms)
            assert repr(reused) == repr(fresh), (z, max_terms)


def test_table_is_invisible_to_params_identity():
    params = TABLE_CASES["m-factor rows, lambda1/k=2, c=-0.7"]
    used, unused = BesselParams(**params), BesselParams(**params)
    for z in (0.5, 8.0, 25.0):
        eval_gmk_bessel(used, z)
    # s0 is a property, not a field: the identity below ignores it too
    assert used.s0 == used.nu + 0.5 * (used.b + 1.0)
    assert "s0" not in [f.name for f in fields(used)]
    assert "s0" not in repr(used) and len(astuple(used)) == 6
    assert used == unused
    assert hash(used) == hash(unused)
    assert repr(used) == repr(unused)
    assert astuple(used) == astuple(unused)


@pytest.mark.parametrize("k, lambda1, m", [
    (1, 2, 2),
    (1, 16, 16),
    (1, 0.5, 0),
    # an exact-ratio row costs m = lambda1/k divisions, so a whole m past 16 takes
    # rows with one k-Gamma ratio exp(L_n - L_{n+1}), as a non-whole m does (stored as 0)
    (1, 17, 0),
    (1e-10, 0.5, 0),
])
def test_table_is_built_with_its_params(k, lambda1, m):
    # made by the constructor where c != 0, before any evaluation; c = 0 sums no rows
    table = vars(BesselParams(k, 0.5, 1.5, lambda1, -0.7, 1))["_table"]
    assert type(table) is kbessel._PlainTable and table.m == m
    assert "_table" not in vars(BesselParams(k, 0.5, 1.5, lambda1, 0.0, 1))


@pytest.mark.parametrize("params", [
    dict(k=1, nu=1e306, gamma=1, lambda1=0.5, c=-1, b=1),  # log Gamma_k(s0) overflows
    dict(k=1, nu=1e306, gamma=0, lambda1=0.5, c=-1, b=1),  # the same, and the series ends at n = 0
    dict(k=1e-300, nu=1, gamma=1, lambda1=1e300, c=-1, b=1),  # lambda1/k is inf
], ids=["log table", "log table, gamma=0", "lambda1/k inf"])
def test_table_out_of_double_range_raises_on_evaluation(params):
    # the constructor builds the table but leaves the OverflowError to the first
    # evaluation, where a verify point reports it as an evaluation failure
    p = BesselParams(**params)
    with pytest.raises(OverflowError, match="math range error"):
        eval_gmk_bessel(p, 1.0)
    assert eval_gmk_bessel(p, 0.0).terms_used == 1
    r = verify("theorem1", dict(params, mu=1, lam=2, a=1, y=1))
    assert (r.verdict, r.diagnostics) == ("inconclusive", "evaluation failed: math range error")


@pytest.mark.parametrize("lambda1, c", [(1.0, 1.0), (0.5, 1.0), (1.0, -1.0)])
def test_overflow_raises_on_both_paths(lambda1, c, monkeypatch):
    # the dd path (lambda1 = k) used to sum all 400 terms (399 dd_add calls)
    # before raising; it stops at its first inf term.  At c = -1 the first term
    # ratio is far past 1, so the dd rows sum it at once.  At c = 1 every term is
    # positive, so the plain rows sum it first, then the log rows, and both
    # raise before any dd_add
    calls = []
    add = kbessel.dd_add

    def counted(x, y):
        calls.append(1)
        return add(x, y)

    monkeypatch.setattr(kbessel, "dd_add", counted)
    p = BesselParams(k=1, nu=0, gamma=1, lambda1=lambda1, c=c, b=1)
    with pytest.raises(OverflowError, match="math range error"):
        eval_gmk_bessel(p, 1e5)
    assert len(calls) < 60
    assert bool(calls) == (c < 0.0)


def test_log_path_raises_where_finite_terms_sum_past_double_range():
    # every term stays finite, but the sum overflows at term 196; this used
    # to build all 400 rows and return nan, unconverged
    p = BesselParams(0.7533495573085514, 1.7040731115061964, 1.0, 1.8770842544690318,
                     1.2053806720858349, 1.8124746143650992)
    with pytest.raises(OverflowError, match="math range error"):
        eval_gmk_bessel(p, 50000.1)
    assert len(p._table.rows) < 200


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_log_rows_raise_where_a_gamma_k_argument_overflows(c, monkeypatch):
    # lambda1 (n+1) + s0 is inf at n = 1, so ln Gamma_k of it is inf and the ratio
    # exp(L_1 - inf) is 0.0: read as the end of the series, it gave +-2.435e15
    # (converged) where the sum is about +-1.1e511, and -6.93 for the first kind,
    # whose sum is 0.0379.  Row 0 stays; the row past it raises
    p = BesselParams(1e308, 0, 1, 0.95e308, c, 1)
    with pytest.raises(OverflowError, match="math range error"):
        eval_gmk_bessel(p, 2.0)
    assert len(p._table.log) == 1
    tables = []
    table = kbessel._PlainTable
    monkeypatch.setattr(kbessel, "_PlainTable", lambda *a: tables.append(table(*a)) or tables[-1])
    with pytest.raises(OverflowError, match="math range error"):
        eval_k_bessel_first(1e308, 0.0, 1.0, 1e308, 15.865152137197327 * c)
    assert len(tables) == 1 and len(tables[0].log) == 1


def test_dd_exact_end_keeps_a_finite_sum_past_an_overflowing_term():
    # gamma = -k ends the series after two terms; the scaled second term
    # (2.4e308) overflows but the sum, prefactor times 1 - 700/347, does not
    p = BesselParams(k=1, nu=346, gamma=-1, lambda1=1, c=7e-4, b=1)
    r = eval_gmk_bessel(p, 2000.0)
    assert (r.value, r.terms_used, r.tail_estimate, r.converged) == (
        -1.2141524049024425e+308, 2, 0.0, True)


@pytest.mark.parametrize("case", ["exp rows, lambda1/k=0.5, c=-1", "m-factor rows, lambda1/k=1, c=1"])
def test_table_shared_between_threads(case):
    # eight threads grow one table at once; a duplicated or skipped row
    # would shift every later term
    params = TABLE_CASES[case]
    zs = [0.25 * i for i in range(1, 61)]
    fresh = {z: repr(eval_gmk_bessel(BesselParams(**params), z)) for z in zs}
    shared = BesselParams(**params)
    seen = []

    def work(seed):
        order = zs[:]
        random.Random(seed).shuffle(order)
        seen.extend((z, repr(eval_gmk_bessel(shared, z))) for z in order)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * len(zs)
    assert all(got == fresh[z] for z, got in seen)


# one call on each Bessel series path; the tests pass the settings
SERIES_CALLS = {
    "gmk dd": lambda **kw: eval_gmk_bessel(UNIT_J, 2.0, **kw),
    "gmk log": lambda **kw: eval_gmk_bessel(BesselParams(1, 0.5, 1, 0.5, -1, 1), 2.0, **kw),
    "first kind": lambda **kw: eval_k_bessel_first(1.0, 0.0, 1.0, 1.0, 2.0, **kw),
}


@pytest.mark.parametrize("call", SERIES_CALLS)
@pytest.mark.parametrize("tol, message", [
    (math.inf, "tolerance must be finite, got inf"),
    (math.nan, "tolerance must be positive, got nan"),
    (0.0, "tolerance must be positive, got 0.0"),
    (True, "tolerance must be positive, got True"),
    ("1e-10", "tolerance must be positive, got '1e-10'"),
])
def test_series_rejects_bad_tolerance(call, tol, message):
    # tol = inf used to end J_0(2) at its first term: value 0.0, converged
    with pytest.raises(DomainError) as err:
        SERIES_CALLS[call](tol=tol)
    assert str(err.value) == message


@pytest.mark.parametrize("call", SERIES_CALLS)
@pytest.mark.parametrize("max_terms", [2.7, "3", True, math.nan, math.inf, 0, -1])
def test_series_rejects_bad_max_terms(call, max_terms):
    # 2.7 used to sum 2 terms; "3" and True were taken as 3 and 1
    with pytest.raises(DomainError) as err:
        SERIES_CALLS[call](max_terms=max_terms)
    assert str(err.value) == f"max_terms must be a whole number >= 1, got {max_terms!r}"


@pytest.mark.parametrize("call", SERIES_CALLS)
def test_series_takes_whole_float_max_terms(call):
    assert SERIES_CALLS[call](max_terms=3.0) == SERIES_CALLS[call](max_terms=3)


@pytest.mark.parametrize("nu", [0.0, 0.5])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_term_at_zero_argument(nu, n):
    # at z = 0 only the n = 0 term of nu = 0 survives: (z/2)^0 / Gamma_k(s0), s0 = (b+1)/2
    p = BesselParams(k=2, nu=nu, gamma=1.5, lambda1=2, c=-1, b=2)
    expected = 1.0 / k_gamma(1.5, 2.0) if n == 0 and nu == 0.0 else 0.0
    assert gmk_bessel_term(p, 0.0, n) == pytest.approx(expected, rel=1e-15, abs=0)
    # it is the stream's item there too, as at every z > 0
    lg, sg = next(islice(bessel_terms_logsig(p, 0.0), n, None))
    assert gmk_bessel_term(p, 0.0, n) == (sg * math.exp(lg) if sg else 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_term_where_the_half_argument_rounds_to_zero(nu, n):
    # 0.5 * 5e-324 is 0.0: the terms are those at z = 0, not log(0)
    p = BesselParams(k=2, nu=nu, gamma=1.5, lambda1=2, c=-1, b=2)
    assert gmk_bessel_term(p, 5e-324, n) == gmk_bessel_term(p, 0.0, n)


def _dd_reference(p, w, tol, max_terms):
    """The double-double path's sum, its term product taken by `dd_mul`
    and `dd_mul_d` and its rows built anew; None where it overflows."""
    tab = kbessel._PlainTable(p.k, p.gamma, p.lambda1, p.c, p.s0, round(p.lambda1 / p.k))
    pref = kbessel._lead(w, p.nu, tab.s0, tab.k, tab.gk0)
    w2 = w * w
    t = acc = (1.0, 0.0)
    rho = math.inf
    tsum = 0.0
    for n in range(max_terms):
        g = tab.gamma + n * tab.k
        row = None
        if g != 0.0:
            row = dd_div_d(dd_mul_d((g, 0.0), tab.c), (n + 1.0) * (n + 1.0))
            for j in range(tab.m):
                row = dd_div_d(row, tab.lambda1 * n + tab.s0 + j * tab.k)
        rho_prev = rho
        t_abs = abs(t[0]) * pref
        tsum += t_abs
        rho = 0.0 if row is None else abs(row[0]) * w2
        try:
            res = settle(n + 1, 0.0 if row is None else t_abs, rho, rho_prev,
                         pref * (acc[0] + acc[1]), tol, max_terms, tsum, 2.0 + tab.m)
        except OverflowError:
            return None
        if res is not None:
            return res
        t = dd_mul(dd_mul_d(t, w2), row)
        acc = dd_add(acc, t)


def _dd_evaluate(p, w, tol, max_terms):
    try:  # `_dd_sum`, None where it overflows
        return _dd_sum(p, w, tol, max_terms)
    except OverflowError:
        return None


@settings(deadline=None, max_examples=200)
@given(k=st.floats(0.25, 4.0), nu=st.floats(0.0, 4.0), gamma=st.floats(-4.0, 4.0),
       c=st.floats(-4.0, 4.0).filter(bool), b=st.floats(-0.9, 4.0), z=st.floats(1e-3, 60.0),
       m=st.sampled_from([1, 2, 3]), max_terms=st.integers(1, 120))
@example(k=1.5, nu=0.5, gamma=-3.0, c=-1.0, b=1.0, z=5.0, m=2, max_terms=120)  # ends at g = 0
@example(k=1.0, nu=0.0, gamma=1.0, c=-1.0, b=1.0, z=40.0, m=1, max_terms=120)  # J_0, cancelling
def test_dd_path_matches_its_reference_loop_bit_for_bit(k, nu, gamma, c, b, z, m, max_terms):
    # `_PlainTable.dd` writes the term product out in place; the sum must not move by a bit,
    # whether its rows are new or reused
    p = BesselParams(k, nu, gamma, m * k, c, b)
    assert p._table.m == m
    w = 0.5 * z
    expected = repr(_dd_reference(p, w, 1e-12, max_terms))
    assert repr(_dd_evaluate(p, w, 1e-12, max_terms)) == expected
    assert repr(_dd_evaluate(p, w, 1e-12, max_terms)) == expected


def _log_rows_by_log_k_gamma(tab, count):
    """The first count log/sign rows of a `_PlainTable`, up to the None that ends its series,
    each L_{n+1} from one checked `log_k_gamma` call and err summed over the rows."""
    k, lc, neg = float(tab.k), math.log(abs(tab.c)), tab.c < 0.0
    rows, lgk, err = [], log_k_gamma(tab.s0, k), 0.0
    for n in range(count):
        g = tab.gamma + n * k
        if g == 0.0:
            return rows + [None]
        lgk_next = log_k_gamma(tab.lambda1 * (n + 1) + tab.s0, k)
        a, b, d = lc + math.log(abs(g)), 2.0 * math.log(n + 1.0), lgk_next - lgk
        err = err + 2.0 * (abs(a) + b) + abs(d)  # left to right, as the rows add
        rows.append((a, b, d, neg != (g < 0.0), lgk_next, err))
        lgk = lgk_next
    return rows


def _l_rows_by_log_k_gamma(tab, count):
    """The first count + 1 entries of a `_PlainTable`'s lrows at a non-whole m:
    each L_n from one checked `log_k_gamma` call and the |L_{n+1} - L_n| summed."""
    lgk = [log_k_gamma(tab.lambda1 * n + tab.s0, tab.k) for n in range(count + 1)]
    rows, dsum = [(lgk[0], 0.0)], 0.0
    for n in range(count):
        dsum = dsum + abs(lgk[n + 1] - lgk[n])  # left to right, as the rows add
        rows.append((lgk[n + 1], dsum))
    return rows


@settings(deadline=None, max_examples=150)
@given(k=st.floats(0.25, 4.0), lambda1=st.floats(0.05, 8.0), nu=st.floats(0.0, 4.0),
       gamma=st.one_of(st.floats(-4.0, 4.0), st.integers(0, 8)), c=st.floats(-4.0, 4.0).filter(bool),
       b=st.floats(-0.9, 4.0), z=st.floats(1e-3, 4.0), terms=st.integers(40, 120))
@example(k=1.5, lambda1=0.7, nu=0.5, gamma=1.5, c=-1.0, b=1.0, z=4.0, terms=105)  # H1's factor
@example(k=2.0, lambda1=1.0, nu=0.5, gamma=3, c=1.0, b=1.0, z=4.0, terms=40)  # gamma = -3k
def test_log_rows_match_a_log_k_gamma_call_per_row(k, lambda1, nu, gamma, c, b, z, terms):
    # both tables write log_k_gamma's formula out with ln k taken once per table; they must
    # not move by a bit: the log rows, which a sum takes where a value leaves the normal
    # range, and the L values beside the plain rows at a non-whole m.  An int gamma j
    # stands for gamma = -j k, a Pochhammer zero at n = j.
    if isinstance(gamma, int):
        gamma = -gamma * k
    p = BesselParams(k, nu, gamma, lambda1, c, b)
    tab = kbessel._PlainTable(k, gamma, lambda1, c, p.s0, 0)
    real = kbessel.settle

    def settle_at_the_cap(n, *args):  # every term before the cap is answered None but the last one
        return real(n, *args) if n >= terms or tab.log[n - 1] is None else None

    lw = math.log(0.5 * z)
    with mock.patch.object(kbessel, "settle", settle_at_the_cap):  # z <= 4 keeps these sums finite
        tab.logsum(nu * lw, 2.0 * lw, 1e-10, terms)
    assert len(tab.log) == terms or tab.log[-1] is None
    assert repr(tab.log) == repr(_log_rows_by_log_k_gamma(tab, terms))
    plain = p._table
    if not plain.m:
        try:
            for n in range(terms):
                plain.row(n)
        except OverflowError:  # a row off the normal range, its L values stored
            pass
        assert repr(plain.lrows) == repr(_l_rows_by_log_k_gamma(plain, len(plain.lrows) - 1))
