"""Zeta backend, branch continuation, iterated integrals.

Frozen reference values live in oracle_values.py; the series oracles
here are recomputed live from truncated von Mangoldt sums with certified
tail bounds, so no expected value is taken on faith from the code under
test.
"""

import cmath
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracle_values import (
    B1,
    J1_HALF,
    J2_HALF,
    S0_AXIS_CROSSING,
    S0_VALUES,
    ZERO_ORDINATES_BELOW_55,
    ZETA_VALUES,
)
from zel import zeta_core
from zel.prime_poly import (lambda_sum, phase_mod_two_pi, sieve,
                            von_mangoldt_table)
from zel.quadrature import integrate_adaptive
from zel.zeta_core import (
    _unit_power_columns,
    _unit_powers,
    BranchTracker,
    NearZeroOnPath,
    ZetaAccuracyWarning,
    ZetaPoleError,
    b_constant,
    c_constant,
    eta_tilde,
    log_zeta_branched,
    s_m,
    zeta,
    zeta_memo_size,
)

# classical constants, printed in any table
APERY = 1.2020569031595942854
ZETA_HALF = -1.4603545088095868


def _bernoulli_full_recurrence(count):
    """B_{2k}/(2k)!, k = 1..count, from every B_n by
    sum_{j<=n} C(n+1, j) B_j = 0: the oracle for the even-index recurrence."""
    top = 2 * count + 1
    b = [Fraction(1)] + [Fraction(0)] * top
    for n in range(1, top + 1):
        b[n] = -sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1)
    return [float(b[2 * k] / math.factorial(2 * k)) for k in range(1, count + 1)]


def test_bernoulli_table_matches_full_recurrence():
    assert zeta_core._B2K == _bernoulli_full_recurrence(30)
    assert zeta_core._B2K[:2] == [1 / 12, -1 / 720]


class TestZeta:
    def test_frozen_grid(self):
        for (sg, t), (re, im) in ZETA_VALUES.items():
            got = zeta(complex(sg, t))
            assert abs(got - complex(re, im)) < 1e-13, (sg, t)

    def test_basel(self):
        assert abs(zeta(2 + 0j) - math.pi ** 2 / 6) < 1e-14

    def test_apery_with_bracket(self):
        """zeta(3) against the published constant, and against a direct
        partial sum with a two-sided integral tail bracket."""
        z3 = zeta(3 + 0j)
        assert z3.imag == 0.0
        assert abs(z3.real - APERY) < 1e-13
        N = 20000
        partial = float(np.sum(np.arange(1, N + 1, dtype=float) ** -3.0))
        lo = partial + 0.5 / (N + 1) ** 2
        hi = partial + 0.5 / N ** 2
        assert lo < z3.real < hi

    def test_real_axis_below_one(self):
        assert abs(zeta(0.5 + 0j).real - ZETA_HALF) < 1e-13

    def test_conjugate_symmetry(self):
        for (sg, t) in [(0.5, 37.6), (0.8, 123.4), (2.5, 9.1)]:
            a = zeta(complex(sg, t))
            b = zeta(complex(sg, -t))
            assert abs(a - b.conjugate()) < 1e-14 * abs(a)

    def test_pole(self):
        with pytest.raises(ZetaPoleError):
            zeta(1 + 0j)

    def test_left_of_strip(self):
        # the docstring's loss holds down to Re s = -3; further left zeta refuses
        for s in (-15 + 10j, -3 + 0.5j):
            with pytest.raises(ValueError, match="cancels away its digits"):
                zeta(s)
        want = complex(mpmath.zeta(mpmath.mpc(-2.9, 10.0)))
        assert abs(zeta(-2.9 + 10j) - want) <= 3e-9 * abs(want)

    @pytest.mark.parametrize("sigma", [1e200, 1e300])
    def test_huge_sigma_is_one(self, sigma):
        # N^-s underflows to 0 and (s+1)(s+2)/N^2 overflows: no 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeta(complex(sigma, 1e4)) == 1.0

    def test_near_first_zero(self):
        z = zeta(complex(0.5, 14.134725141734693))
        assert abs(z) < 1e-6

    def test_against_mpmath_seeded(self):
        """40 seeded points, alpha in [0.5, 3] and t in [10, 2e4], against
        mpmath at 30 digits; the largest gap measured is 6.4e-15."""
        rng = np.random.default_rng(2005)
        alphas = rng.uniform(0.5, 3.0, 40)
        ts = rng.uniform(10.0, 2e4, 40)
        errs = []
        with mpmath.workdps(30):
            for a, t in zip(alphas.tolist(), ts.tolist()):
                want = complex(mpmath.zeta(mpmath.mpc(a, t)))
                errs.append(abs(zeta(complex(a, t)) - want))
        assert max(errs) <= 1e-13

    def test_memo(self):
        first = zeta(0.75 + 5.125j)
        n = zeta_memo_size()
        assert n > 0
        assert zeta(0.75 + 5.125j) == first
        assert zeta_memo_size() == n


def _decimal_log(p):
    """log p as a double-double (hi, lo), 40 decimal digits upstream."""
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(p).ln()
        hi = float(d)
        return hi, float(d - Decimal(hi))


def _scalar_primes_and_logs(N):
    """Smallest prime factors below N by a scalar sieve, and the primes'
    logs as double-doubles from 40-digit Decimal logs."""
    spf = list(range(N))
    for p in range(2, math.isqrt(N - 1) + 1):
        if spf[p] == p:
            for n in range(p * p, N, p):
                if spf[n] == n:
                    spf[n] = p
    primes = [p for p in range(2, N) if spf[p] == p]
    logs = [_decimal_log(p) for p in primes]
    return spf, np.array(primes), np.array(logs).reshape(-1, 2).T


def _scalar_unit_powers(N, t):
    """Reference n^{-it}: composites one at a time, u[n // p] * u[p] with
    p the smallest prime factor, as numpy complex scalars; returned with
    the primes and logs it used."""
    spf, primes, logs = _scalar_primes_and_logs(N)
    lhi, llo = logs
    u = np.empty(N, dtype=complex)
    u[0] = 0.0
    u[1] = 1.0
    u[primes] = np.exp(-1j * phase_mod_two_pi(t, lhi, llo))
    for n in range(4, N):
        p = spf[n]
        if p != n:
            u[n] = u[n // p] * u[p]
    return u, primes, logs


class TestEmCorrections:
    @pytest.mark.parametrize("sigma,t", [(0.5, 14.1), (0.75, 1e4 + 0.3),
                                         (3.0, 19999.9)])
    def test_terms_match_closed_form(self, sigma, t):
        """Every term `_em_zeta` sums, up to where its stop rule ends, is
        B_2k/(2k)! (s)_{2k-1} N^{-s-2k+1} to 1e-14 relative (mpmath at 30
        digits), and each remainder bound is the next closed-form term's
        |T_{k+1}| |s+2k+1| / (sigma+2k+1)."""
        s = complex(sigma, t)
        N = zeta_core._em_terms(abs(t))
        acc, npow = zeta_core._em_head(s, sigma, _unit_powers(N + 1, t), N)
        ms = mpmath.mpc(sigma, t)

        def closed(k):
            return complex(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                           * mpmath.rf(ms, 2 * k - 1)
                           * mpmath.power(N, -ms - 2 * k + 1))

        prev, count = math.inf, 0
        with mpmath.workdps(30):
            for k, (term, mag, rem) in enumerate(
                    zeta_core._em_corrections(s, npow, N, sigma), start=1):
                if mag > prev:
                    break
                want = closed(k)
                assert abs(term - want) <= 1e-14 * abs(want), k
                assert mag == abs(term)
                bound = (abs(closed(k + 1)) * abs(s + 2 * k + 1)
                         / (sigma + 2 * k + 1))
                assert rem == pytest.approx(bound, rel=1e-14), k
                acc += term
                prev, count = mag, k
                if rem < zeta_core._EM_SETTLED * abs(acc):
                    break
        assert count >= 5


class TestUnitPowers:
    TS = (1e5, 19999.9, 1e4, 1755.0, 1753.5, 1234.5678, 14.134725141734693,
          0.5)

    def test_bit_identical_to_scalar_loop(self, monkeypatch):
        """From an empty table: descending N grows it once and the rest
        read slices of it; ascending N grows it at every step."""
        for ts in (self.TS, self.TS[::-1]):
            monkeypatch.setattr(zeta_core, "_factor_table",
                                zeta_core._FactorTable())
            _unit_powers.cache_clear()
            for t in ts:
                N = int(0.57 * t) + 25
                got = _unit_powers(N, t)
                want, want_primes, want_logs = _scalar_unit_powers(N, t)
                assert np.array_equal(got.view(np.float64),
                                      want.view(np.float64)), t
                with pytest.raises(ValueError):
                    got[N - 1] = 1.0
                primes, logs, _ = zeta_core._factor_table.below(N)
                assert np.array_equal(primes, want_primes)
                assert np.array_equal(logs.view(np.int64),
                                      want_logs.view(np.int64))

    def test_prime_logs_grow_only(self, monkeypatch):
        """Each prime is logged once, in the batch of the sieve growth that
        adds it, and a request the sieve already covers logs none."""
        logged = []
        batch = zeta_core._table_logs

        def counting_batch(primes):
            logged.extend(primes.tolist())
            return batch(primes)

        monkeypatch.setattr(zeta_core, "_table_logs", counting_batch)
        monkeypatch.setattr(zeta_core, "_factor_table",
                            zeta_core._FactorTable())
        _unit_powers.cache_clear()
        # the sieve limit goes 500 -> 1000 -> 1000 -> 2000
        for n, t, logged_below in ((500, 800.0, 500), (600, 1000.0, 1000),
                                   (300, 480.0, 1000), (1500, 2600.0, 2000)):
            _unit_powers(n, t)
            want = _scalar_primes_and_logs(logged_below)[1].tolist()
            assert logged == want, n


class TestLogTable:
    def test_bit_identical_grow_only_under_sieve_limit(self):
        """Every read is numpy's log of 1..n-1 bit for bit; growth keeps
        the prefix already handed out and never logs an n at or past the
        sieve limit; a read that fits leaves the table as it is."""
        table = zeta_core._FactorTable()
        seen = []
        for n in (30, 25, 700, 701, 2, 1500, 40_000, 1600):
            got = table.log_n(n)
            assert np.array_equal(got.view(np.int64), np.log(
                np.arange(1, n, dtype=float)).view(np.int64)), n
            assert not got.flags.writeable
            assert table._log_n.size == table._limit - 1
            for prev in seen:
                assert np.array_equal(table._log_n[:prev.size].view(np.int64),
                                      prev.view(np.int64))
            held = table._log_n
            table.log_n(n)
            table.log_n(n - 1)
            assert table._log_n is held
            seen.append(got.copy())

    def test_zeta_builds_no_table_on_a_repeat(self, monkeypatch):
        """The amplitudes of a call at N read N - 1 logs: a second call at
        the same t (and one at a smaller t) finds them held."""
        table = zeta_core._FactorTable()
        monkeypatch.setattr(zeta_core, "_factor_table", table)
        _unit_powers.cache_clear()
        zeta_core._em_zeta(1.3, 15000.3)
        held = table._log_n
        assert held.size == table._limit - 1 >= zeta_core._em_terms(15000.3)
        zeta_core._em_zeta(0.9, 15000.3)
        zeta_core._em_zeta(2.0, 300.5)
        assert table._log_n is held


def _primes_below(top, count):
    """The primes in [top - count, top), by trial division."""
    n = np.arange(top - count, top)
    keep = np.ones(count, dtype=bool)
    for p in sieve(math.isqrt(top)).tolist():
        keep &= n % p != 0
    return n[keep]


def _decimal_log_table(prec):
    """log(1 + j/128), j = 0..128, as three doubles, each the nearest to
    what the ones before it leave of a prec-digit Decimal log."""
    rows = []
    with localcontext() as ctx:
        ctx.prec = prec
        for j in range(129):
            rest = (Decimal(128 + j) / 128).ln()
            row = []
            for _ in range(3):
                row.append(float(rest))
                rest -= Decimal(row[-1])
            rows.append(row)
    return np.array(rows).T


class TestPrimeLogs:
    # 57,000,024 = N at t = 1e8, above the largest N (about 5.4e7, at
    # t = 9.47e7) that check_phase_range admits
    TOP = _primes_below(57_000_024, 2000)
    # the first and last ten of the 1,054 primes below 57,000,024 whose
    # last bit Ziv's rounding test (ACM TOMS 17, 1991) leaves unsettled at
    # a 2^-122 error bound: the closest calls for the table log
    NEAR_TIES = np.array([
        18061, 107509, 222367, 236153, 332641, 356243, 427619, 435179,
        449941, 467543, 56367587, 56574499, 56617079, 56673949, 56834279,
        56851259, 56857891, 56911709, 56959759, 56996591])

    def test_bit_identical_to_decimal(self):
        primes = np.concatenate((sieve(200_000), self.TOP, self.NEAR_TIES))
        hi, lo, _ = zeta_core._table_logs(primes)
        want = np.array([_decimal_log(p) for p in primes.tolist()])
        assert np.array_equal(hi.view(np.int64), want[:, 0].view(np.int64))
        assert np.array_equal(lo.view(np.int64), want[:, 1].view(np.int64))

    def test_within_a_priori_bound(self):
        """hi + lo + rest against 60-digit logs: at most a sixteenth of the
        docstring's bound."""
        primes = np.concatenate((sieve(2000), sieve(200_000)[::8], self.TOP))
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 60
            for p, *parts in zip(primes.tolist(),
                                 *zeta_core._table_logs(primes)):
                want = Decimal(p).ln()
                got = sum(Decimal(x) for x in parts)
                worst = max(worst, abs(got - want) / want)
        assert worst <= Decimal(zeta_core._TABLE_LOG_ERR) / 16

    def test_table_rebuilt_from_decimal(self):
        table, _ = zeta_core._log_constants()
        assert np.array_equal(table.view(np.int64),
                              _decimal_log_table(60).view(np.int64))


class TestZetaBlock:
    def test_frozen_grid(self):
        """One block over every frozen (sigma, t): N from t = 19999.9."""
        sigmas = sorted({sg for sg, _ in ZETA_VALUES})
        ts = sorted({t for _, t in ZETA_VALUES})
        z, ok = zeta_core._zeta_block(sigmas, ts)
        assert ok.all()
        for (sg, t), (re, im) in ZETA_VALUES.items():
            got = z[sigmas.index(sg), ts.index(t)]
            assert abs(got - complex(re, im)) < 1e-13, (sg, t)

    def test_matches_pointwise(self):
        """Within 1e-14 of `zeta`, against the O(1) terms of the sums (the
        block takes N from |t| = 49.99 for every column)."""
        alphas = np.array(zeta_core._S0_LADDER)
        ts = np.array([-47.3, 0.02, 3.5, 14.1, 49.99])
        z, ok = zeta_core._zeta_block(alphas, ts)
        assert ok.all()
        for i, a in enumerate(alphas.tolist()):
            for j, t in enumerate(ts.tolist()):
                want = zeta(complex(a, t))
                err = abs(z[i, j] - want)
                assert err <= 1e-14 * max(abs(want), 1.0), (a, t)

    def test_mask_is_where_pointwise_warns(self, monkeypatch):
        """With the B_2k list cut short, the remainder fails at low alpha;
        the mask is false exactly where `zeta` warns at the same N."""
        monkeypatch.setattr(zeta_core, "_B2K", zeta_core._B2K[:4])
        alphas = [0.5, 1.5, 3.0, 6.0, 10.0]
        for t in (2.0, 30.0):
            _, ok = zeta_core._zeta_block(alphas, [t])
            warned = []
            for a in alphas:
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    zeta_core._em_zeta(a, t)
                warned.append(bool(rec))
            assert ok[:, 0].tolist() == [not w for w in warned], t
        assert not ok.all() and ok.any()

    def test_columns_are_unit_powers(self):
        ts = np.array([1234.5678, -0.5, 19999.9])
        cols = _unit_power_columns(11426, ts)
        for j, t in enumerate(ts.tolist()):
            _unit_powers.cache_clear()
            assert np.array_equal(cols[:, j].copy().view(np.float64),
                                  _unit_powers(11426, t).view(np.float64))


class TestS0Block:
    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        """The t values `_s0_block` hands to the per-t walk."""
        calls = []
        real = zeta_core._s0

        def spy(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(zeta_core, "_s0", spy)
        return calls

    def test_lattice_matches_walk(self):
        us = 0.02 * np.arange(1, 2501)
        want = np.array([zeta_core._s0(u) for u in us.tolist()])
        assert np.max(np.abs(zeta_core._s0_block(us) - want)) <= 1e-12

    def test_near_zero_falls_back(self, scalar_calls):
        t = ZERO_ORDINATES_BELOW_55[0] + 5e-10
        got = zeta_core._s0_block([20.0, t])
        assert scalar_calls == [t]
        assert got[1] == log_zeta_branched(0.5, t).imag / math.pi

    def test_failed_step_falls_back(self, monkeypatch, scalar_calls):
        """One step from 10 to 1/2 moves arg zeta by pi |S_0|, so it holds
        at t = 20 (S_0 = -0.378) and fails at t = 30 and 50."""
        monkeypatch.setattr(zeta_core, "_S0_LADDER", (10.0, 0.5))
        ts = sorted(S0_VALUES)
        got = zeta_core._s0_block(ts)
        assert scalar_calls == [30.0, 50.0]
        for t, g in zip(ts, got.tolist()):
            want = log_zeta_branched(0.5, t).imag / math.pi
            if t == 20.0:
                assert g == pytest.approx(want, abs=1e-12)
            else:
                assert g == want

    def test_failed_remainder_falls_back(self, monkeypatch, scalar_calls):
        """A remainder over its target sends the t to the walk, which
        warns as before; a fresh memo keeps full-accuracy values out."""
        monkeypatch.setattr(zeta_core, "_B2K", zeta_core._B2K[:4])
        monkeypatch.setattr(zeta_core, "_memo", {})
        with pytest.warns(ZetaAccuracyWarning):
            got = zeta_core._s0_block([2.0, 30.0])
        assert scalar_calls == [30.0]
        assert got[1] == log_zeta_branched(0.5, 30.0).imag / math.pi

    def test_t_zero_raises(self):
        with pytest.raises(NearZeroOnPath):
            zeta_core._s0_block([5.0, 0.0])

    def test_high_t_block_keeps_column_floor(self, monkeypatch, scalar_calls):
        """At t ~ 1.5e4 (N + 1 = 8,600 rows) cells alone would leave 3
        columns a block; the floor keeps each block at _BLOCK_MIN_COLS t,
        and the block values match the per-t walk."""
        widths = []
        real = zeta_core._zeta_block

        def spy(alphas, ts):
            widths.append(len(ts))
            return real(alphas, ts)

        monkeypatch.setattr(zeta_core, "_zeta_block", spy)
        # every t passes the ladder's checks (15000.75 and 15004.75 would
        # go to the walk), so each value compared is a block value
        ts = 15000.125 + 0.5 * np.arange(zeta_core._BLOCK_MIN_COLS + 5)
        assert zeta_core._BLOCK_CELLS // (zeta_core._em_terms(ts[-1]) + 1) < 4
        got = zeta_core._s0_block(ts)
        assert widths == [zeta_core._BLOCK_MIN_COLS, 5]
        assert scalar_calls == []
        want = [zeta_core._s0(t) for t in ts.tolist()]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_s1_free_of_block_size(self, monkeypatch):
        """The zero scan to t = 50 is one block of its 2,501 lattice t at
        2^18 cells and 34 blocks at 2^12; s_1 keeps its bits."""
        got = []
        for cells in (1 << 12, 1 << 18):
            monkeypatch.setattr(zeta_core, "_BLOCK_CELLS", cells)
            got.append([v.hex() for v in s_m(1, [20.0, 30.0, 50.0]).tolist()])
        assert got[0] == got[1]

    def test_s0_near_1e4_free_of_batch(self):
        """At t ~ 1e4 a block takes its N from the batch's largest t and
        sums by GEMM, so the last bits of s_0 may move with the batch; the
        values hold to 1e-12 against one-t calls and against the batch
        with t = 2e4 added (5.6e-15 and 3.3e-16 measured)."""
        ts = 1e4 + 0.123 + np.linspace(0.0, 1e3, 16)
        got = s_m(0, ts)
        single = np.array([s_m(0, [t])[0] for t in ts.tolist()])
        mixed = s_m(0, np.append(ts, 2e4))[:ts.size]
        assert np.max(np.abs(got - single)) <= 1e-12
        assert np.max(np.abs(got - mixed)) <= 1e-12


class TestBranchedLog:
    def test_real_axis_sigma_three(self):
        val = log_zeta_branched(3.0, 0.0)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(
            math.log(zeta(3 + 0j).real), abs=1e-13)

    def test_exp_consistency_sample(self):
        """exp(branched log) reproduces zeta at random points; flagged
        near-zero paths are skipped and counted."""
        rng = np.random.default_rng(2024)
        checked = 0
        flagged = 0
        for _ in range(100):
            sg = rng.uniform(0.5, 3.0)
            t = rng.uniform(1.0, 200.0)
            try:
                val = log_zeta_branched(sg, t)
            except NearZeroOnPath:
                flagged += 1
                continue
            z = zeta(complex(sg, t))
            assert abs(cmath.exp(val) - z) <= 1e-10 * abs(z), (sg, t)
            checked += 1
        assert checked >= 90
        assert flagged < 10

    def test_sigma_two_lambda_series(self):
        """sigma=2, t=100 against the absolutely convergent series; the
        oracle's own truncation tail bounds the allowed gap."""
        val = log_zeta_branched(2.0, 100.0)
        N = 10 ** 5
        vm = von_mangoldt_table(N)
        ns = np.flatnonzero(vm[2:]) + 2
        lg = np.log(ns.astype(float))
        series = complex(np.dot(vm[ns] / lg * ns ** -2.0,
                                np.exp(-1j * 100.0 * lg)))
        tail_bound = 1.0 / (N * math.log(N)) * 1.1
        assert abs(val - series) <= tail_bound + 1e-10

    def test_s0_frozen(self):
        for t, want in S0_VALUES.items():
            val = log_zeta_branched(0.5, float(t))
            assert val.imag / math.pi == pytest.approx(want, abs=1e-12)

    def test_walk_across_negative_real_axis(self):
        """At t = 415.5 the walk to sigma = 1/2 crosses the negative real
        axis of zeta, so the branch there is the principal log plus a
        whole turn.  It matches the N(t) oracle, exp of it is zeta, and
        it has no 2 pi jump along a fine alpha grid."""
        t, want = S0_AXIS_CROSSING
        assert log_zeta_branched(0.5, t).imag / math.pi == pytest.approx(
            want, abs=1e-12)
        tracker = BranchTracker(t)
        tracker.extend(0.5)
        alphas = np.linspace(0.5, 3.0, 2001)
        args, turns = [], set()
        for a in alphas.tolist():
            val, z = tracker.log_at(a), zeta(complex(a, t))
            assert abs(cmath.exp(val) - z) <= 1e-10 * abs(z), a
            args.append(val.imag)
            turns.add(round((val.imag - cmath.phase(z)) / (2 * math.pi)))
        assert turns == {0, 1}
        assert np.max(np.abs(np.diff(args))) < 0.1

    def test_near_zero_flagged_at_ordinate(self):
        with pytest.raises(NearZeroOnPath):
            log_zeta_branched(0.5, ZERO_ORDINATES_BELOW_55[0])

    def test_non_finite_zeta_is_pole_on_path(self):
        # zeta(1 + 1e-320j) is not finite: the walk steps onto alpha = 1
        with pytest.raises(NearZeroOnPath, match="pole on path"):
            log_zeta_branched(0.75, 1e-320)

    def test_t_zero_pole_path(self):
        with pytest.raises(NearZeroOnPath):
            log_zeta_branched(0.5, 0.0)

    def test_step_under_one_ulp_flagged(self):
        # at t = 1e-300 the arg of zeta turns by pi within 1e-300 of alpha = 1:
        # halving stops at the last step that moves alpha, not in a loop
        with pytest.raises(NearZeroOnPath, match="step collapse"):
            log_zeta_branched(0.75, 1e-300)


class TestEtaTilde:
    def test_m_zero_guarded(self):
        with pytest.raises(ValueError):
            eta_tilde(0, 0.5, 30.0)

    def test_m_past_factorial_range_named(self, monkeypatch):
        """(m-1)! passes the double range at m = 172: a ValueError that
        names m, raised before the series or the walk runs."""
        def boom(*args):
            raise AssertionError("evaluated before the m check")

        monkeypatch.setattr(zeta_core, "_lambda_tail", boom)
        monkeypatch.setattr(zeta_core, "BranchTracker", boom)
        with pytest.raises(ValueError, match=r"^m must be <= 171, got 172: "):
            eta_tilde(172, 0.75, 10.0)

    @pytest.mark.parametrize("m,t,tail_power", [(1, 0.0, 1), (1, 10.0, 1),
                                                (2, 0.0, 2), (2, 5.0, 2)])
    def test_sigma_two_series_oracle(self, m, t, tail_power):
        """sigma=2 against sum Lambda(n) n^{-2-it} (log n)^{-m-1} to 1e5;
        gap bounded by the oracle's certified truncation tail
        ~ 1/(N log^tail_power N)."""
        got = eta_tilde(m, 2.0, t)
        oracle = lambda_sum(m, 2.0, 1e5, t)
        tail_bound = 1.1 / (1e5 * math.log(1e5) ** tail_power)
        assert abs(got - oracle) <= tail_bound + 1e-10

    @pytest.mark.parametrize("m,t", [(1, 0.0), (1, 20.0), (2, 1.5e4),
                                     (3, 1e5), (1, 1e6), (3, 1e6)])
    def test_lambda_tail_against_quadrature(self, m, t):
        """The closed-form tail (float32 cos/sin past n = 1000) against
        the same n <= 1e5 series integrated numerically over [3, 80] in
        double precision; n^-80 leaves nothing past 80.  The oracle's
        phases t log n for n <= 1000 come from 40-digit logs: from double
        log n they would be off by t ulp(log n), 4.9e-12 in the sum at
        t = 1e6."""
        mpmath = pytest.importorskip("mpmath")
        vm = von_mangoldt_table(10 ** 5)
        ns = np.flatnonzero(vm[2:]) + 2
        lg = np.log(ns.astype(float))
        phase = phase_mod_two_pi(t, lg)
        with mpmath.workdps(40):
            two_pi = 2 * mpmath.pi
            phase[ns <= 1000] = [
                float(mpmath.fmod(t * mpmath.log(n), two_pi))
                for n in ns[ns <= 1000].tolist()]
        coef = vm[ns] / lg * np.exp(-1j * phase)

        def integrand(alphas):
            return np.array([(a - 0.5) ** (m - 1) / math.factorial(m - 1)
                             * np.dot(coef, np.exp(-a * lg)) for a in alphas])

        want = integrate_adaptive(integrand, 3.0, 80.0, rel_tol=1e-15,
                                  abs_tol=1e-17)
        assert abs(zeta_core._lambda_tail(m, 0.5, t, 3.0) - want) <= 1e-14

    def test_critical_line_finite(self):
        v = eta_tilde(1, 0.5, 30.0)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestRealAxisConstants:
    def test_c1_structure_and_value(self):
        c1 = c_constant(1, 0.5)
        assert c1.real == 0.0            # i^1 times a real
        assert c1.imag > 0               # the integral is positive
        assert c1.imag == pytest.approx(J1_HALF, abs=1e-12)

    def test_c2_structure_and_value(self):
        c2 = c_constant(2, 0.5)
        assert c2.imag == 0.0            # i^2 = -1 keeps it real
        assert -c2.real == pytest.approx(J2_HALF, abs=1e-12)

    def test_b1_frozen(self):
        assert b_constant(1) == pytest.approx(B1, abs=1e-12)

    def test_b2_exactly_zero(self):
        assert b_constant(2) == 0.0

    def test_b3_sign(self):
        # i^3 = -i flips the sign of the (positive) integral
        assert b_constant(3) < 0

    def test_m_validation(self):
        with pytest.raises(ValueError):
            c_constant(0, 0.5)
        with pytest.raises(ValueError):
            b_constant(0)


class TestSm:
    def test_s0_matches_frozen(self):
        for t, want in S0_VALUES.items():
            assert s_m(0, float(t)) == pytest.approx(want, abs=1e-12)

    def test_s1_at_zero_is_b1(self):
        assert s_m(1, 0.0) == b_constant(1)

    def test_t_zero_pole(self):
        with pytest.raises(NearZeroOnPath):
            s_m(0, 0.0)

    def test_negative_m(self):
        with pytest.raises(ValueError):
            s_m(-1, 10.0)

    def test_s1_even(self):
        # s_0 is odd in t, so s_1(t) = int_0^t s_0 + b_1 is even
        assert s_m(1, -5.0) == s_m(1, 5.0)
        assert s_m(1, -5.0) != b_constant(1)
        lhs = math.pi * s_m(1, -20.0)
        assert abs(lhs - eta_tilde(1, 0.5, -20.0).real) <= 1e-8

    @pytest.mark.parametrize("t", [20.0, 30.0, 50.0])
    def test_identity_suite(self, t):
        """pi s_1(t) = Re eta_tilde(1, 1/2, t), unconditionally.  The
        residual is under 4e-13 at these t, with s_1 split at the located
        zero ordinates; a Lambda tail cut at n <= 100 instead of 1e5
        leaves 2.1e-6."""
        lhs = math.pi * s_m(1, t)
        rhs = eta_tilde(1, 0.5, t).real
        assert abs(lhs - rhs) <= 1e-11

    @pytest.mark.slow
    def test_s2_consistency(self):
        """s_2(t) - b_2 should match a crude Simpson pass over s_1."""
        t = 1.5
        v = s_m(2, t)
        us = np.linspace(0.0, t, 9)
        s1 = s_m(1, us)
        h = us[1] - us[0]
        simpson = h / 3 * (s1[0] + 4 * sum(s1[1:-1:2]) + 2 * sum(s1[2:-2:2])
                           + s1[-1])
        assert v == pytest.approx(simpson + b_constant(2), abs=5e-4)

    @staticmethod
    def _nested_s2(t):
        """The m = 2 route before the eta identity: s_1 integrated."""
        return integrate_adaptive(
            lambda us: s_m(1, us), 0.0, t, rel_tol=1e-8, abs_tol=1e-8,
            max_panels=200) + b_constant(2)

    @pytest.mark.slow
    @pytest.mark.parametrize("t", [1.5, 5.0])
    def test_s2_identity_matches_nested_route(self, t):
        assert abs(s_m(2, t) - self._nested_s2(t)) <= 1e-12

    def test_s3_derivative_is_s2(self):
        h = 1e-3
        slope = (s_m(3, 5.0 + h) - s_m(3, 5.0 - h)) / (2 * h)
        assert slope == pytest.approx(s_m(2, 5.0), abs=1e-6)

    def test_sequence_matches_scalar(self):
        ts = [33.3, -20.0, 0.0, 50.0, 7.5, 20.0, -0.01]
        got = s_m(1, ts)
        assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
        for t, g in zip(ts, got.tolist()):
            one = s_m(1, t)
            assert isinstance(one, float)
            assert abs(g - one) <= 1e-14, t
        assert got[2] == b_constant(1)
        for m in (0, 2):
            some = [t for t in ts if t != 0.0][:3]
            assert s_m(m, some).tolist() == pytest.approx(
                [s_m(m, t) for t in some], abs=1e-14)

    def test_zero_ordinates_below_50(self):
        got = zeta_core._zero_ordinates(50.0)
        below = [g for g in ZERO_ORDINATES_BELOW_55 if g < 50.0]
        assert len(got) == len(below)
        for g in below:
            assert sum(abs(z - g) <= 1e-12 for z in got) == 1, g

    @pytest.mark.parametrize("d", [1e-9, 1e-13])
    def test_s1_continuous_across_zeros(self, d):
        # a |t| this near a zero reads s_1 off the point 1e-6 past it
        below = [g for g in ZERO_ORDINATES_BELOW_55 if g < 50.0]
        got = s_m(1, [g + k * d for g in below for k in (-1, 0, 1)])
        spread = np.ptp(got.reshape(-1, 3), axis=1)
        assert np.all(spread <= 1e-8), spread

    def test_secant_leaving_its_step_raises(self, monkeypatch):
        # a line zeta whose one zero sits at t = 100: the first secant
        # iterate from the step [14.12, 14.14] lands there
        monkeypatch.setattr(zeta_core, "zeta", lambda s: s.imag - 100.0)
        with pytest.raises(RuntimeError, match=r"secant on the step "
                           r"\[14\.12\d*, 14\.14\d*\] did not settle inside it"):
            s_m(1, 20.0)

    def test_jump_other_than_plus_one_raises(self, monkeypatch):
        monkeypatch.setattr(zeta_core, "_s0_block",
                            lambda us: -np.floor(np.asarray(us) / 10.0))
        with pytest.raises(RuntimeError, match=r"s_0 moves by -1\.000 on "
                           r"the step \[9\.98\d*, 10\], not by \+1"):
            s_m(1, 15.0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                                   [20.0, math.nan]])
    def test_non_finite_t_rejected(self, m, t):
        with pytest.raises(ValueError, match="t must be finite"):
            s_m(m, t)

    def test_s1_leaves_numpy_ma_out(self):
        # np.unique's first call imports numpy.ma, about 17 ms of a short run
        src = str(Path(zeta_core.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from zel.zeta_core import s_m; s_m(1, [0.5]); "
             "print('numpy.ma' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True).stdout
        assert out == "False\n"

    @pytest.mark.parametrize("x", [
        [0.0],
        [0.0, -0.0, 0.0, -0.0],
        [14.5, 0.0, 3.25, 14.5, -0.0, 3.25, 14.5, 50.0, 0.0],
        np.random.default_rng(4).choice(
            [-0.0, 0.0, 1e-300, 2.5, 14.134725141734695, 50.0], 40).tolist(),
    ])
    def test_panel_edges_match_unique(self, x):
        got = zeta_core._sorted_distinct(np.array(x))
        want = np.unique(np.array(x))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_s3_past_first_zero(self):
        # the nested route bisected onto the zero at t = 14.1347 and raised
        assert math.isfinite(s_m(3, 20.0))
