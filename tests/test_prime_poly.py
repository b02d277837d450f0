"""Prime table, grid, and batch-kernel checks.

The sieve is cross-checked against an independent segmented sieve, the
batch kernel against direct per-point evaluation, and the exact-phase
reduction against a Fraction-arithmetic reference.
"""

import functools
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zel import prime_poly
from zel.moments import _half_spacing_blocks
from zel.prime_poly import (
    BLOCK_ROWS,
    NUFFT_BLOCK,
    PolySpec,
    PrimeTable,
    TGrid,
    check_phase_range,
    dyadic_floor,
    iter_poly_blocks,
    lambda_sum,
    max_spacing,
    phase_mod_two_pi,
    poly_eval,
    rotated_real,
    sieve,
    von_mangoldt_table,
    _spec_arrays,
)

from grid_helpers import poly_eval_batch, t_array

# 2 pi to 60 digits, for the Fraction-based phase reference
_TWO_PI_EXACT = Fraction(
    "6.28318530717958647692528676655900576839433879875021164194989"
)


def poly_eval_complex(spec, table, t):
    """Z(t) = sum_{p<=X} p^-sigma-it (log p)^-m (no theta rotation), one
    point at a time: the oracle for the complex block streams."""
    omegas, w = _spec_arrays(spec, table)
    return complex(np.dot(w, np.exp(-1j * phase_mod_two_pi(t, omegas))))


def segmented_sieve(limit):
    """Second, independent sieve: byte array over segments of 1 << 15."""
    if limit < 2:
        return []
    base = []
    root = math.isqrt(limit)
    mark = bytearray([1]) * (root + 1)
    for p in range(2, root + 1):
        if mark[p]:
            base.append(p)
            for q in range(p * p, root + 1, p):
                mark[q] = 0
    out = list(base)
    seg = 1 << 15
    lo = root + 1
    while lo <= limit:
        hi = min(lo + seg - 1, limit)
        mark = bytearray([1]) * (hi - lo + 1)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            for q in range(start, hi + 1, p):
                mark[q - lo] = 0
        out.extend(lo + i for i, m in enumerate(mark) if m)
        lo = hi + 1
    return out


class TestSieve:
    def test_small(self):
        assert sieve(10).tolist() == [2, 3, 5, 7]
        assert sieve(31).size == 11
        assert sieve(2).tolist() == [2]
        assert sieve(1).size == 0

    @pytest.mark.parametrize("limit", [100, 4099, 65537])
    def test_against_segmented(self, limit):
        assert sieve(limit).tolist() == segmented_sieve(limit)

    def test_pi_of_1e6(self):
        ps = sieve(1_000_000)
        assert ps.size == 78498
        # spot-check the tail agrees with the independent method
        assert ps[-3:].tolist() == segmented_sieve(1_000_000)[-3:]

    def test_cap(self):
        with pytest.raises(ValueError):
            sieve(2 * 10 ** 8)


class TestVonMangoldt:
    def test_values(self):
        vm = von_mangoldt_table(32)
        assert vm[0] == 0.0 and vm[1] == 0.0
        assert vm[4] == pytest.approx(math.log(2), rel=1e-15)
        assert vm[27] == pytest.approx(math.log(3), rel=1e-15)
        assert vm[32] == pytest.approx(math.log(2), rel=1e-15)
        assert vm[12] == 0.0 and vm[30] == 0.0
        assert vm[31] == pytest.approx(math.log(31), rel=1e-15)

    def test_matches_prime_power_loop(self):
        """The numpy fill against the one-prime-power-at-a-time loop; np.log
        may round differently from math.log, so 1 ulp is allowed."""
        limit = 10 ** 6
        ref = np.zeros(limit + 1)
        for p in sieve(limit).tolist():
            q = p
            while q <= limit:
                ref[q] = math.log(p)
                q *= p
        np.testing.assert_array_max_ulp(von_mangoldt_table(limit), ref, 1)

    def test_chebyshev_psi(self):
        # psi(100) = sum Lambda(n) = 94.045...; compare against direct def
        vm = von_mangoldt_table(100)
        direct = 0.0
        for p in sieve(100):
            q = p
            while q <= 100:
                direct += math.log(p)
                q *= p
        assert math.fsum(vm) == pytest.approx(direct, rel=1e-14)


class TestPrimeTable:
    def test_build_and_weights(self):
        t = PrimeTable.build(100)
        assert t.primes.size == 25
        assert t.upto(31) == 11
        assert t.upto(31.9) == 11
        assert t.upto(37) == 12
        w = t.weights(1, 0.5, 31)
        expect = [p ** -0.5 / math.log(p) for p in sieve(31)]
        assert np.allclose(w, expect, rtol=1e-15)

    def test_weights_overflow_rejected_quietly(self):
        # (log 2)^-2000 ~ 1e318: one ValueError and no numpy RuntimeWarning
        t = PrimeTable.build(31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow a double at m=2000"):
                t.weights(2000, 0.5)
            assert np.isfinite(t.weights(1000, 0.5)).all()

    def test_limit_range(self):
        with pytest.raises(ValueError):
            PrimeTable.build(2)


class TestDyadicFloor:
    def test_below_and_close(self):
        d = dyadic_floor(0.3)
        assert d <= 0.3
        assert 0.3 - d < 0.3 / 2048

    def test_exact_dyadic_kept(self):
        assert dyadic_floor(1.0) == 1.0
        assert dyadic_floor(0.25) == 0.25

    def test_numerator_width(self):
        d = dyadic_floor(0.3)
        k = 0
        while d * 2.0 ** k != math.floor(d * 2.0 ** k):
            k += 1
        assert d * 2.0 ** k < 2 ** 12

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dyadic_floor(0.0)

    def test_extreme_spacings(self):
        # integer floor from 2^11 up; down to the smallest subnormal below
        assert dyadic_floor(1e300) == 1e300
        assert dyadic_floor(25e6 + 0.5) == 25e6
        assert dyadic_floor(5e-324) == 5e-324
        d = dyadic_floor(1e-306)
        assert 1e-306 - d < 1e-306 / 2048


class TestTGrid:
    def test_for_span_spacing_rule(self):
        g = TGrid.for_span(1e4, 31)
        assert g.delta <= max_spacing(31)
        assert g.delta > 0.5 * max_spacing(31)
        num, den = g.delta.as_integer_ratio()
        assert 2 ** 11 <= num or den <= 2 ** 11  # 12-bit dyadic numerator
        assert g.count * g.delta >= g.t0
        assert g.count * g.delta - g.t0 < g.delta

    @pytest.mark.parametrize("X", [3.0, 31.0, 1e3, 1e5, 1e7, 1e15])
    def test_refine_halves_delta(self, X):
        assert TGrid.for_span(1e6, X, refine=2).delta == \
            TGrid.for_span(1e6, X).delta / 2

    def test_grid_times_exact(self):
        g = TGrid.for_span(1e7, 1e4)
        num, den = g.delta.as_integer_ratio()
        for j in (0, 1, g.count // 3, g.count - 1):
            tj = g.t(j)
            assert tj * den == round(tj * den)  # exactly on the lattice
        arr = t_array(g, g.count - 3, g.count)
        assert arr[-1] == g.t(g.count - 1)

    def test_phase_cap(self):
        with pytest.raises(ValueError, match=r"--T 2e\+08, --X 100000.*2\^28"):
            TGrid.for_span(2e8, 1e5)
        # just inside the limit, the grid's last phase still reduces
        edge = (2 ** 28 - 1) * math.pi / math.log(1e5)
        with pytest.raises(ValueError, match="exact-reduction limit"):
            TGrid.for_span(math.ceil(edge), 1e5)
        g = TGrid.for_span(math.floor(0.9999 * edge), 1e5)
        top = g.t(g.count - 1)
        assert abs(phase_mod_two_pi(top, math.log(99991))) <= math.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            TGrid(t0=1e4, count=10, delta=0.1)  # 1e4 is > 2^53 units of 2^-55
        with pytest.raises(ValueError, match="exact-double dyadic range"):
            TGrid(t0=-2.0 ** 54, count=2, delta=1.0)  # 1 - 2^54 rounds
        # t0 off delta's lattice: float(pi)'s own 2^-48 unit rules, so
        # pi + 115/4 stays below 2^53 units and pi + 116/4 does not
        with pytest.raises(ValueError, match="2\\^53 units of 2\\^-48\\)$"):
            TGrid(t0=math.pi, count=116, delta=0.25)
        g = TGrid(t0=math.pi, count=115, delta=0.25)
        assert Fraction(g.t(114)) == Fraction(math.pi) + Fraction(114, 4)
        with pytest.raises(ValueError):
            TGrid(t0=1e4, count=0, delta=0.25)
        with pytest.raises(ValueError, match="refine must be >= 1"):
            TGrid.for_span(1e4, 31, refine=0)
        # a lattice unit past the double range is checked exactly
        with pytest.raises(ValueError, match="2\\^53 units of 2\\^-1072\\)$"):
            TGrid(t0=2.0 ** -1020 + 2.0 ** -1072, count=3, delta=2.0 ** -1020)
        g = TGrid(t0=2.0 ** -1020 + 2.0 ** -1061, count=3, delta=2.0 ** -1060)
        assert g.t(2) == 2.0 ** -1020 + 2.0 ** -1061 + 2.0 ** -1059
        g = TGrid(t0=2.0 ** -1020, count=3, delta=2.0 ** -1060)
        assert g.t(2) == 2.0 ** -1020 + 2.0 ** -1059


class TestPhase:
    def _reference(self, t, omega):
        x = Fraction(t) * Fraction(omega)
        k = round(x / _TWO_PI_EXACT)
        return float(x - k * _TWO_PI_EXACT)

    def test_against_fraction_reference(self):
        rng = np.random.default_rng(11)
        ts = [0.0, 1.0, 1e4 + 0.25, 2e6 + 0.5, 1e7 + 0.125]
        ts += list(np.round(rng.uniform(1e5, 2e7, 8) * 4096) / 4096)
        omegas = [math.log(p) for p in (2, 3, 7919, 99991)]
        for t in ts:
            for om in omegas:
                got = float(phase_mod_two_pi(t, om))
                ref = self._reference(t, om)
                # both reductions land in (-pi, pi]; wrap-adjacent values
                # may differ by a full turn
                diff = abs(got - ref)
                diff = min(diff, abs(diff - 2.0 * math.pi))
                assert diff < 5e-15, (t, om, got, ref)

    def test_range_check_inside_reduction_limit(self):
        # the largest accepted t*omega still reduces; the next double fails
        limit = (2 ** 28 - 1) * 2 * math.pi
        below = math.nextafter(limit, 0.0)
        check_phase_range(below, 1.0, "t")
        assert abs(float(phase_mod_two_pi(below, 1.0))) <= math.pi
        with pytest.raises(ValueError, match=r"^t=-2: .* \(2\^28 - 1\) \* 2 pi"):
            check_phase_range(-2.0, limit / 2.0, "t=-2")

    def test_range_guard(self):
        with pytest.raises(ValueError):
            phase_mod_two_pi(1e16, 1.0)
        # the limit is 2^28 whole turns (~1.69e9 rad), for both versions
        past, inside = 2 ** 28 * 2 * math.pi, (2 ** 28 - 1) * 2 * math.pi
        for phase in (phase_mod_two_pi,
                      lambda t, omega: phase_mod_two_pi(t, omega, 0.0)):
            with pytest.raises(ValueError, match="2\\^28"):
                phase(past, 1.0)
            got = float(phase(inside, 1.0))
            assert abs(got - self._reference(inside, 1.0)) < 1e-15


class TestPolyEval:
    def setup_method(self):
        self.table = PrimeTable.build(200)
        self.spec = PolySpec(m=1, sigma=0.5, theta=0.7, X=31)

    def test_t_zero_theta_zero(self):
        spec = PolySpec(m=1, sigma=0.5, theta=0.0, X=31)
        got = poly_eval(spec, self.table, 0.0)
        expect = math.fsum(p ** -0.5 / math.log(p) for p in sieve(31))
        assert got == pytest.approx(expect, rel=1e-14)

    def test_theta_periodicity(self):
        a = poly_eval(self.spec, self.table, 123.0)
        spec2 = PolySpec(m=1, sigma=0.5, theta=0.7 + 2 * math.pi, X=31)
        b = poly_eval(spec2, self.table, 123.0)
        assert a == pytest.approx(b, abs=1e-13)

    def test_theta_antiperiodicity(self):
        spec2 = PolySpec(m=1, sigma=0.5, theta=0.7 + math.pi, X=31)
        for t in (0.0, 55.25, 9876.5):
            a = poly_eval(self.spec, self.table, t)
            b = poly_eval(spec2, self.table, t)
            assert a == pytest.approx(-b, abs=1e-13)

    def test_naive_oracle(self):
        """t=100: direct per-prime fsum, no phase reduction needed."""
        got = poly_eval(self.spec, self.table, 100.0)
        expect = math.fsum(
            p ** -0.5 / math.log(p) * math.cos(100.0 * math.log(p) + 0.7)
            for p in sieve(31)
        )
        assert got == pytest.approx(expect, abs=1e-12)

    def test_complex_consistency(self):
        z = poly_eval_complex(self.spec, self.table, 321.5)
        p = poly_eval(self.spec, self.table, 321.5)
        proj = math.cos(0.7) * z.real + math.sin(0.7) * z.imag
        assert proj == pytest.approx(p, abs=1e-13)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PolySpec(m=-1, sigma=0.5, theta=0.0, X=31)
        with pytest.raises(ValueError):
            PolySpec(m=1, sigma=1.0, theta=0.0, X=31)
        with pytest.raises(ValueError):
            PolySpec(m=1, sigma=0.5, theta=0.0, X=2)
        for X in (math.inf, math.nan):
            with pytest.raises(ValueError, match="X must be finite and >= 3"):
                PolySpec(m=1, sigma=0.5, theta=0.0, X=X)
        with pytest.raises(ValueError):
            poly_eval(PolySpec(m=1, sigma=0.5, theta=0.0, X=500),
                      PrimeTable.build(100), 1.0)


class TestBatch:
    def setup_method(self):
        self.table = PrimeTable.build(2000)

    def test_count_one(self):
        spec = PolySpec(m=1, sigma=0.5, theta=0.3, X=31)
        g = TGrid(t0=1e4, count=1, delta=0.25)
        v = poly_eval_batch(spec, self.table, g)
        assert v.shape == (1,)
        assert v[0] == pytest.approx(poly_eval(spec, self.table, 1e4), abs=1e-12)

    def test_spot_check_contract(self):
        """100 random indices vs pointwise, 1e-10 absolute."""
        spec = PolySpec(m=0, sigma=0.5, theta=1.1, X=1000)
        g = TGrid.for_span(1e6, 1000)
        v = poly_eval_batch(spec, self.table, g)
        rng = np.random.default_rng(3)
        idx = np.unique(np.concatenate(
            [[0, g.count - 1], rng.integers(0, g.count, 100)]))
        for j in idx:
            assert abs(v[j] - poly_eval(spec, self.table, g.t(int(j)))) < 1e-10

    def test_gemm_columns_exact_on_long_grid(self):
        """Late GEMM columns at T = 1e7 match pointwise to 1e-15 * sum w.

        Columns 31 and 63 are where a chained column rotation drifts
        furthest from its exact rebuilds (8e-15 there); exact column
        phases keep every column at the first column's ~1e-15.
        """
        spec = PolySpec(m=0, sigma=0.5, theta=0.0, X=31)
        span = TGrid.for_span(1e7, 31)
        g = TGrid(t0=span.t0, count=64 * BLOCK_ROWS, delta=span.delta)
        z = np.concatenate([b.copy() for _, b in iter_poly_blocks(spec, self.table, g)])
        bound = 1e-15 * max(1.0, float(np.sum(self.table.weights(0, 0.5, 31))))
        for col in (31, 63):
            for j in range(col * BLOCK_ROWS, (col + 1) * BLOCK_ROWS):
                assert abs(z[j] - poly_eval_complex(spec, self.table, g.t(j))) <= bound

    def test_block_partition(self):
        spec = PolySpec(m=1, sigma=0.6, theta=0.0, X=100)
        g = TGrid(t0=512.0, count=2 * BLOCK_ROWS + 37, delta=0.125)
        seen = 0
        for j0, z in iter_poly_blocks(spec, self.table, g):
            assert j0 == seen
            seen += z.size
        assert seen == g.count

    def test_integral_refinement(self):
        """Trapezoid sums of batch values converge to the closed-form
        integral of P over the span; delta and delta/2 agree to 1e-6."""
        spec = PolySpec(m=1, sigma=0.5, theta=0.7, X=31)
        T = 1e4
        n = self.table.upto(31)
        om, w = self.table.logs[:n], self.table.weights(1, 0.5, 31)

        def closed_form(a, b):
            return float(np.sum(
                w * (np.sin(b * om + 0.7) - np.sin(a * om + 0.7)) / om))

        g = TGrid.for_span(T, 31, refine=512)
        half = TGrid(t0=g.t0, count=2 * g.count, delta=g.delta / 2)
        sums = []
        for grid in (g, half):
            v = poly_eval_batch(spec, self.table, grid)
            end = grid.t0 + grid.count * grid.delta
            v_end = poly_eval(spec, self.table, end)
            s = (0.5 * v[0] + v[1:].sum() + 0.5 * v_end) * grid.delta
            exact = closed_form(T, end)
            assert abs(s - exact) < 5e-7 * abs(exact)
            sums.append(s)
        assert abs(sums[0] - sums[1]) < 1e-6 * abs(sums[1])


class TestBlockContract:
    """Both kernel paths: blocks of at most NUFFT_BLOCK points, in j order,
    partitioning the grid, with exact ends; and the rotation helper."""

    table = PrimeTable.build(10_000)

    # 11 primes take the GEMM path, 1229 the NUFFT path
    @pytest.mark.parametrize("X", [31.0, 1e4])
    def test_blocks(self, X):
        spec = PolySpec(m=1, sigma=0.6, theta=0.0, X=X)
        span = TGrid.for_span(1e6, X)
        grid = TGrid(t0=span.t0, count=2 * NUFFT_BLOCK + 12345, delta=span.delta)
        thetas = np.random.default_rng(17).uniform(-math.pi, math.pi, 5)
        seen = 0
        for j0, z in iter_poly_blocks(spec, self.table, grid):
            assert j0 == seen and 0 < z.size <= NUFFT_BLOCK
            seen += z.size
            for j in (j0, seen - 1):
                want = poly_eval_complex(spec, self.table, grid.t(j))
                assert abs(z[j - j0] - want) <= 1e-10
            rows = rotated_real(z, thetas)
            assert rows.shape == (thetas.size, z.size)
            for theta, p in zip(thetas, rows):
                direct = math.cos(theta) * z.real + math.sin(theta) * z.imag
                for got in (p, rotated_real(z, theta)):
                    assert np.all(np.abs(got - direct) <= 4.5e-16 * np.abs(z))
        assert seen == grid.count

    @pytest.mark.parametrize("rotated", [False, True], ids=["complex", "rotated"])
    @pytest.mark.parametrize("X", [31.0, 1e4], ids=["gemm", "nufft"])
    def test_block_is_overwritten_by_the_next(self, monkeypatch, X, rotated):
        # every block is a view into a buffer held for the pass, valid only
        # until the next draw: the GEMM path rewrites its one buffer at the
        # next block, the NUFFT path a ring slot (two blocks each) once the
        # ring of workers + 2 slots comes round, 8 blocks on at 2 workers
        monkeypatch.setattr(prime_poly, "_pool_workers", lambda: 2)
        spec = PolySpec(m=1, sigma=0.5, theta=0.7, X=X)
        span = TGrid.for_span(1e5, X)
        grid = TGrid(t0=span.t0, count=10 * NUFFT_BLOCK, delta=span.delta)
        blocks = iter_poly_blocks(spec, self.table, grid, rotated=rotated)
        _, kept = next(blocks)
        before = kept.copy()
        for drawn, (_, nxt) in enumerate(blocks, 1):
            if np.shares_memory(kept, nxt):
                break
        blocks.close()
        assert drawn == (1 if X < 100 else 8)
        assert np.array_equal(kept, nxt) and not np.array_equal(kept, before)


class TestRotatedBlocks:
    """iter_poly_blocks(..., rotated=True): P = Re e^{-i theta} Z as float
    blocks, from one real GEMM on the GEMM path and one real-output FFT
    from a Hermitian half grid per block on the NUFFT path."""

    table = PrimeTable.build(10_000)
    THETAS = [0.0, 0.7, math.pi / 2, -2.1, 40.0]

    @staticmethod
    def _stream(spec, table, grid, **kw):
        """(starts, values) over the grid; blocks are copied as they come,
        since a rotated block is overwritten by the next one."""
        starts, parts = [], []
        for j0, z in iter_poly_blocks(spec, table, grid, **kw):
            starts.append(j0)
            parts.append(z.copy())
        assert starts == np.cumsum([0, *map(len, parts[:-1])]).tolist()
        return np.concatenate(parts)

    @pytest.mark.parametrize("theta", THETAS)
    def test_gemm_matches_pointwise(self, theta):
        # two full chunks, then a partial chunk ending inside a column
        spec = PolySpec(m=1, sigma=0.5, theta=theta, X=31.0)
        span = TGrid.for_span(1e6, 31.0)
        grid = TGrid(t0=span.t0, count=2 * NUFFT_BLOCK + 12345, delta=span.delta)
        p = self._stream(spec, self.table, grid, rotated=True)
        assert p.dtype == np.float64 and p.shape == (grid.count,)
        edges = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, NUFFT_BLOCK - 1, NUFFT_BLOCK,
                 2 * NUFFT_BLOCK, grid.count - 2, grid.count - 1]
        idx = np.unique(np.concatenate(
            [edges, np.random.default_rng(5).integers(0, grid.count, 40)]))
        for j in idx:
            assert abs(p[j] - poly_eval(spec, self.table, grid.t(int(j)))) <= 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    def test_small_chunks_match_pointwise(self, monkeypatch, theta):
        # 7-row columns in 3-column chunks: 21-point blocks, the last partial
        monkeypatch.setattr(prime_poly, "BLOCK_ROWS", 7)
        monkeypatch.setattr(prime_poly, "CHUNK_COLS", 3)
        spec = PolySpec(m=0, sigma=0.6, theta=theta, X=100.0)
        grid = TGrid(t0=4096.0, count=100, delta=0.25)
        sizes = [z.size for _, z in iter_poly_blocks(spec, self.table, grid,
                                                     rotated=True)]
        assert sizes == [21, 21, 21, 21, 16]
        p = self._stream(spec, self.table, grid, rotated=True)
        want = [poly_eval(spec, self.table, grid.t(j)) for j in range(grid.count)]
        assert np.max(np.abs(p - want)) <= 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    def test_gemm_agrees_with_rotated_real(self, theta):
        spec = PolySpec(m=1, sigma=0.5, theta=theta, X=1000.0)
        span = TGrid.for_span(1e5, 1000.0)
        grid = TGrid(t0=span.t0, count=NUFFT_BLOCK + 777, delta=span.delta)
        bound = 4e-15 * float(np.sum(self.table.weights(1, 0.5, 1000.0)))
        p = self._stream(spec, self.table, grid, rotated=True)
        z = self._stream(spec, self.table, grid)
        assert np.max(np.abs(p - rotated_real(z, theta))) <= bound

    @pytest.mark.parametrize("theta", THETAS)
    def test_nufft_agrees_with_rotated_real(self, monkeypatch, theta):
        # real blocks from the half grid against the complex ones rotated
        monkeypatch.setattr(prime_poly, "NUFFT_MIN_PRIMES", 1)
        spec = PolySpec(m=1, sigma=0.5, theta=theta, X=31.0)
        span = TGrid.for_span(1e5, 31.0)
        grid = TGrid(t0=span.t0, count=NUFFT_BLOCK + 777, delta=span.delta)
        bound = 4e-15 * float(np.sum(self.table.weights(1, 0.5, 31.0)))
        p = self._stream(spec, self.table, grid, rotated=True)
        z = self._stream(spec, self.table, grid)
        assert p.dtype == np.float64 and p.shape == (grid.count,)
        assert np.max(np.abs(p - rotated_real(z, theta))) <= bound

    @pytest.mark.parametrize("theta", THETAS)
    def test_nufft_matches_pointwise(self, monkeypatch, theta):
        # block ends and centres, where |k| is largest and smallest
        monkeypatch.setattr(prime_poly, "NUFFT_MIN_PRIMES", 1)
        spec = PolySpec(m=0, sigma=0.6, theta=theta, X=1000.0)
        span = TGrid.for_span(1e6, 1000.0)
        grid = TGrid(t0=span.t0, count=2 * NUFFT_BLOCK + 777, delta=span.delta)
        p = self._stream(spec, self.table, grid, rotated=True)
        edges = [0, 1, NUFFT_BLOCK // 2, NUFFT_BLOCK - 1, NUFFT_BLOCK,
                 2 * NUFFT_BLOCK - 1, 2 * NUFFT_BLOCK, grid.count - 1]
        for j in edges:
            assert abs(p[j] - poly_eval(spec, self.table, grid.t(j))) <= 1e-10

    # delta 2^-20 puts every kernel across fine-grid index 0.  delta ~
    # pi/log 23, past the spacing rule, puts p = 23's kernel across n/2,
    # at x_p = pi, and p = 29, 31 wholly past it, into mirrored slots;
    # delta ~ 2 pi/log 31 puts p = 31's across n, wrapping to index 0
    @pytest.mark.parametrize("delta,wrap", [
        (2.0 ** -20, 0),
        (round(math.pi / math.log(23.0) * 2 ** 20) / 2 ** 20, 3 * NUFFT_BLOCK // 4),
        (round(2 * math.pi / math.log(31.0) * 2 ** 20) / 2 ** 20, 0)])
    def test_nufft_wrapped_spread_matches_gemm(self, monkeypatch, delta, wrap):
        spec = PolySpec(m=0, sigma=0.5, theta=0.7, X=31.0)
        grid = TGrid(t0=1e4, count=NUFFT_BLOCK + 777, delta=delta)
        omegas, _ = prime_poly._spec_arrays(spec, self.table)
        fine = np.unique(prime_poly._nufft_plan(delta, omegas, NUFFT_BLOCK)[0])
        n = 3 * NUFFT_BLOCK // 2
        assert {(wrap - 1) % n, wrap, wrap + 1} <= set(fine.tolist())
        bound = 1e-12 * float(np.sum(self.table.weights(0, 0.5, 31.0)))
        for rotated in (True, False):       # the half grid and the full one
            streams = []
            for threshold in (1, 10 ** 9):
                monkeypatch.setattr(prime_poly, "NUFFT_MIN_PRIMES", threshold)
                streams.append(self._stream(spec, self.table, grid,
                                            rotated=rotated))
            assert np.max(np.abs(streams[0] - streams[1])) <= bound


class TestShiftedStream:
    """A grid's midpoints t_j + delta/2 stream as their own TGrid at
    t0 + delta/2, off delta's lattice, on both paths and both streams.

    Moment-level checks cannot see wrong midpoints: they feed only the
    half-spacing refinement of an empirical moment, where a stream at
    t_j - delta/2, 0.17 off P(t_j + delta/2) at X = 3000, moved
    empirical_moment by 3e-15.
    """

    table = PrimeTable.build(3000)
    # GEMM path at X = 31 (11 primes), NUFFT path at X = 3000 (430 primes)
    PATHS = pytest.mark.parametrize("X", [31.0, 3000.0])

    @staticmethod
    def _grids(X):
        """(spec, grid, midpoint grid): two full blocks and a short one."""
        span = TGrid.for_span(2e4, X)
        grid = TGrid(t0=span.t0, count=2 * NUFFT_BLOCK + 777, delta=span.delta)
        mids = TGrid(t0=grid.t0 + grid.delta / 2, count=grid.count,
                     delta=grid.delta)
        return PolySpec(m=1, sigma=0.5, theta=0.7, X=X), grid, mids

    def _stream(self, spec, grid, **kw):
        """The values over the grid, each block copied as it comes."""
        return np.concatenate([z.copy() for _, z in iter_poly_blocks(
            spec, self.table, grid, **kw)])

    @PATHS
    @pytest.mark.parametrize("rotated", [False, True])
    def test_midpoints_match_pointwise(self, X, rotated):
        nufft = self.table.upto(X) >= prime_poly.NUFFT_MIN_PRIMES
        assert nufft == (X > 31.0)
        spec, grid, mids = self._grids(X)
        got = self._stream(spec, mids, rotated=rotated)
        edges = [0, 1, NUFFT_BLOCK - 1, NUFFT_BLOCK, 2 * NUFFT_BLOCK - 1,
                 2 * NUFFT_BLOCK, grid.count - 2, grid.count - 1]
        idx = np.unique(np.concatenate(
            [edges, np.random.default_rng(11).integers(0, grid.count, 20)]))
        point = poly_eval if rotated else poly_eval_complex
        for j in idx.tolist():
            t = grid.t(j) + grid.delta / 2      # on the delta/2 lattice: exact
            assert mids.t(j) == t
            assert abs(got[j] - point(spec, self.table, t)) <= 1e-10, j

    @PATHS
    @pytest.mark.parametrize("rotated", [False, True])
    def test_zero_shift_is_the_unshifted_stream(self, X, rotated):
        # the refinement's first pass is the grid's own stream, its second
        # the midpoint grid's, bit for bit
        spec, grid, mids = self._grids(X)
        drawn = {True: [], False: []}
        for base, z in _half_spacing_blocks(spec, self.table, grid,
                                            rotated=rotated):
            drawn[base].append(z.copy())
        for base, g in ((True, grid), (False, mids)):
            plain = self._stream(spec, g, rotated=rotated)
            got = np.concatenate(drawn[base])
            assert got.dtype == plain.dtype and got.tobytes() == plain.tobytes()


class TestGemmFactors:
    """GEMM column factors: column i of a chunk is the chunk's head
    e^{-i t_c omega} times row i of the step table e^{-i i B delta omega},
    both from exact phases, the table once per pass."""

    table = PrimeTable.build(100)
    SPEC = PolySpec(m=1, sigma=0.5, theta=0.7, X=31.0)

    @classmethod
    def _grid(cls, t0, count):
        return TGrid(t0=t0, count=count,
                     delta=TGrid.for_span(1e6, cls.SPEC.X).delta)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_phase_work_per_pass(self, monkeypatch, rotated):
        # the row factors, the step table and one head per chunk; reducing
        # a (CHUNK_COLS x primes) block of phases per chunk passes it
        reduced = []
        reduce = prime_poly.phase_mod_two_pi

        def spy(t, omega, *rest):
            reduced.append(np.broadcast(t, omega).size)
            return reduce(t, omega, *rest)

        monkeypatch.setattr(prime_poly, "phase_mod_two_pi", spy)
        grid = self._grid(4e6, 9 * NUFFT_BLOCK - 777)
        chunks = sum(1 for _ in iter_poly_blocks(self.SPEC, self.table, grid,
                                                 rotated=rotated))
        assert chunks == 9
        primes = self.table.upto(self.SPEC.X)
        assert sum(reduced) <= primes * (BLOCK_ROWS + prime_poly.CHUNK_COLS
                                         + chunks)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_chunk_edge_columns_match_pointwise(self, rotated):
        # every point of the first and last column of each chunk at
        # t >= 1e8, the last chunk partial and ending inside a column
        grid = self._grid(1e8, 3 * NUFFT_BLOCK + 777)
        idx = []
        for j0 in range(0, grid.count, NUFFT_BLOCK):
            end = min(j0 + NUFFT_BLOCK, grid.count)
            last = j0 + (end - j0 - 1) // BLOCK_ROWS * BLOCK_ROWS
            idx += sorted({*range(j0, min(j0 + BLOCK_ROWS, end)),
                           *range(last, end)})
        assert len(idx) == 3 * 2 * BLOCK_ROWS + 777
        parts = [z.copy() for _, z in iter_poly_blocks(
            self.SPEC, self.table, grid, rotated=rotated)]
        assert len(parts) == 4
        got = np.concatenate(parts)[idx]
        oracle = poly_eval if rotated else poly_eval_complex
        want = [oracle(self.SPEC, self.table, grid.t(j)) for j in idx]
        assert np.max(np.abs(got - want)) <= 1e-10


# (sigma, X): 430 primes at X = 3000, near the NUFFT crossover; 1229 and
# 9592 primes above it.  sum w_p reaches 70 at (0.5, 1e5).
NUFFT_CASES = [(0.5, 3000.0), (0.5, 1e5), (0.8, 3000.0), (0.8, 1e4)]


class TestNufft:
    table = PrimeTable.build(100_000)

    def _forced(self, monkeypatch, path, spec, grid):
        """Z over the grid with iter_poly_blocks held to one path."""
        threshold = 1 if path == "nufft" else 10 ** 9
        monkeypatch.setattr(prime_poly, "NUFFT_MIN_PRIMES", threshold)
        return self._values(spec, grid)

    def _values(self, spec, grid):
        starts, parts = zip(*((j0, z.copy()) for j0, z in iter_poly_blocks(
            spec, self.table, grid)))
        assert list(starts) == np.cumsum([0, *map(len, parts[:-1])]).tolist()
        return np.concatenate(parts)

    # one grid shorter than a block, one that ends part-way into a block
    @pytest.mark.parametrize("count", [5000, NUFFT_BLOCK + 12345])
    @pytest.mark.parametrize("sigma,X", NUFFT_CASES)
    def test_matches_gemm_and_pointwise(self, monkeypatch, sigma, X, count):
        spec = PolySpec(m=0, sigma=sigma, theta=0.0, X=X)
        span = TGrid.for_span(1e6, X)
        grid = TGrid(t0=span.t0, count=count, delta=span.delta)
        bound = 1e-12 * max(1.0, float(np.sum(self.table.weights(0, sigma, X))))
        z_nufft = self._forced(monkeypatch, "nufft", spec, grid)
        z_gemm = self._forced(monkeypatch, "gemm", spec, grid)
        assert z_nufft.shape == z_gemm.shape == (count,)
        assert np.max(np.abs(z_nufft - z_gemm)) <= bound

        # block ends and centres, where |k| is largest and smallest
        edges = [0, 1, count // 2, count - 2, count - 1]
        if count > NUFFT_BLOCK:
            edges += [NUFFT_BLOCK // 2, NUFFT_BLOCK - 1, NUFFT_BLOCK]
        idx = np.unique(np.concatenate(
            [edges, np.random.default_rng(8).integers(0, count, 30)]))
        pointwise = [poly_eval_complex(spec, self.table, grid.t(int(j)))
                     for j in idx]
        assert np.max(np.abs(z_nufft[idx] - pointwise)) <= bound

        for v in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert np.sum(z_nufft.real > v) == np.sum(z_gemm.real > v)

    def test_deconvolution_factors_match_quadrature(self):
        # psi_hat(k/n) = W int_0^1 phi(z) cos(pi k W z / n) dz at 30 digits,
        # on the pass's span, where psi_hat(span/2) is 0.7% of psi_hat(0);
        # the plan's 32-node Gauss-Legendre sums sit within ~4e-15 of it
        span = 2 * NUFFT_BLOCK
        n, width, beta = 3 * span // 2, prime_poly.ES_WIDTH, prime_poly.ES_BETA
        deconv = prime_poly._nufft_plan(0.125, np.log([2.0, 3.0]), span)[2]
        assert deconv.shape == (span,)
        for k in (0, 1, span // 4, 3 * span // 8, span // 2 - 1000,
                  span // 2 - 1, -span // 2):
            with mpmath.workdps(30):
                psi = width * mpmath.quad(
                    lambda z: mpmath.exp(beta * (mpmath.sqrt(1 - z * z) - 1))
                    * mpmath.cos(mpmath.pi * k * width * z / n), [0, 1])
            got = 1.0 / deconv[k + span // 2]
            assert abs(got / float(psi) - 1.0) <= 1e-14, k

    @pytest.mark.parametrize("k", [8, 15, 16, 17])
    def test_fine_position_exact_at_three_times_power_of_two(self, k):
        # u = delta omega n / (2 pi) at n = 3 2^k: u_hi + u_lo within
        # 2^-100 u of the exact rational; one rounded product by 3 would
        # leave up to 2^-54 u, which the placement carries into every phase
        n = 3 * 2 ** k
        omegas = np.concatenate((self.table.logs[::97], [math.pi, 1e-3, 11.5]))
        for delta in (TGrid.for_span(1e6, 1e5).delta, 2.0 ** -20,
                      round(math.pi / math.log(23.0) * 2 ** 20) / 2 ** 20):
            u_hi, u_lo = prime_poly._fine_position(delta, omegas, n)
            for om, hi, lo in zip(omegas, u_hi, u_lo):
                exact = Fraction(delta) * Fraction(float(om)) * n / _TWO_PI_EXACT
                assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * 2 ** -100

    @pytest.mark.parametrize("rotated", [False, True])
    def test_matches_pointwise_at_x1e6(self, rotated):
        # 78,498 primes at sigma = 1/2, sum w_p = 176: two full transforms
        # and a short one, checked at block ends and transform centres
        X = 1e6
        table = PrimeTable.build(int(X))
        spec = PolySpec(m=0, sigma=0.5, theta=0.7, X=X)
        assert table.upto(X) == 78_498
        span = TGrid.for_span(1e6, X)
        grid = TGrid(t0=span.t0, count=4 * NUFFT_BLOCK + 777, delta=span.delta)
        bound = 1e-12 * float(np.sum(table.weights(0, 0.5, X)))
        z = np.concatenate([b.copy() for _, b in iter_poly_blocks(
            spec, table, grid, rotated=rotated)])
        edges = [0, 1, NUFFT_BLOCK - 1, NUFFT_BLOCK, 2 * NUFFT_BLOCK - 1,
                 2 * NUFFT_BLOCK, 3 * NUFFT_BLOCK, 4 * NUFFT_BLOCK - 1,
                 4 * NUFFT_BLOCK, 4 * NUFFT_BLOCK + 388, grid.count - 1]
        idx = np.unique(np.concatenate(
            [edges, np.random.default_rng(9).integers(0, grid.count, 20)]))
        oracle = poly_eval if rotated else poly_eval_complex
        want = np.array([oracle(spec, table, grid.t(int(j))) for j in idx])
        assert np.max(np.abs(z[idx] - want)) <= bound

    @pytest.mark.parametrize("X,path", [(31.0, "gemm"), (1e5, "nufft")])
    def test_dispatch_by_prime_count(self, monkeypatch, X, path):
        ran = []
        for name in ("_gemm_blocks", "_nufft_blocks"):
            def spy(*args, _fn=getattr(prime_poly, name), _name=name):
                ran.append(_name)
                return _fn(*args)
            monkeypatch.setattr(prime_poly, name, spy)
        spec = PolySpec(m=0, sigma=0.8, theta=0.0, X=X)
        z = self._values(spec, TGrid(t0=1e4, count=100, delta=0.125))
        assert z.shape == (100,)
        assert ran == [f"_{path}_blocks"]


class TestNufftPool:
    """The NUFFT blocks run on a thread pool: the same bits as a serial
    loop at any worker count, strictly in j order, errors and phases on
    the consumer's side, and no thread left behind."""

    table = PrimeTable.build(100_000)

    @staticmethod
    def _grid(X):
        span = TGrid.for_span(1e6, X)
        return TGrid(t0=span.t0, count=3 * NUFFT_BLOCK + 777, delta=span.delta)

    def _serial(self, spec, grid, rotated):
        """Each transform of one plain loop over _nufft_transform, into
        one output slot of the pass's dtype, whole: (j0, values)."""
        omegas, w = prime_poly._spec_arrays(spec, self.table)
        span = 2 * NUFFT_BLOCK
        n = 3 * span // 2
        plan = prime_poly._nufft_plan(grid.delta, omegas, span, real=rotated)
        held = prime_poly._nufft_buffers(omegas.size, n, rotated)
        slot = np.empty(n) if rotated else np.empty(span, complex)
        out = []
        for j0, size, head, step in prime_poly._nufft_amplitudes(
                omegas, w, grid, span, spec.theta if rotated else None):
            z = prime_poly._nufft_transform(head, step, size, plan, held, slot)
            out.append((j0, z.copy()))
        return out

    @pytest.mark.parametrize("X", [1e4, 1e5])
    def test_bit_identical_at_every_worker_count(self, monkeypatch, X):
        # 1, 2 and 4 workers, and 5 on a short switch interval: more
        # threads than cores, trading the interpreter lock as often as it
        # can; complex blocks and real (rotated) ones alike.  The grid
        # spans two groups of heads and ends in a short transform; each
        # transform comes as two blocks, which together are its serial
        # values bit for bit
        spec = PolySpec(m=0, sigma=0.8, theta=0.7, X=X)
        span = TGrid.for_span(1e6, X)
        count = 2 * NUFFT_BLOCK * (prime_poly.NUFFT_GROUP + 1) + 777
        grid = TGrid(t0=span.t0, count=count, delta=span.delta)
        interval = sys.getswitchinterval()
        try:
            for rotated in (False, True):
                want = self._serial(spec, grid, rotated)
                assert len(want) == prime_poly.NUFFT_GROUP + 2
                halves = [(j0 + k, z[k:k + NUFFT_BLOCK]) for j0, z in want
                          for k in range(0, z.size, NUFFT_BLOCK)]
                assert len(halves) == 2 * len(want) - 1
                for workers, switch in ((1, interval), (2, interval),
                                        (4, interval), (5, 1e-6)):
                    monkeypatch.setattr(prime_poly, "_pool_workers",
                                        lambda: workers)
                    sys.setswitchinterval(switch)
                    got = [(j0, z.copy()) for j0, z in iter_poly_blocks(
                        spec, self.table, grid, rotated=rotated)]
                    assert [j0 for j0, _ in got] == [j0 for j0, _ in halves]
                    for (_, z), (_, ref) in zip(got, halves):
                        assert z.dtype == ref.dtype
                        assert np.array_equal(z.view(float), ref.view(float))
        finally:
            sys.setswitchinterval(interval)

    def _held_while_read(self, monkeypatch, workers, rotated):
        # a block keeps its values while the consumer holds it, the workers
        # running ahead meanwhile; closing the stream at any block, or a
        # failed transform, joins the pool.  8 transforms wrap the ring of
        # workers + 2 output slots at every worker count; 5 workers run on
        # a short switch interval, more threads than cores trading the
        # interpreter lock as often as they can
        monkeypatch.setattr(prime_poly, "_pool_workers", lambda: workers)
        spec = PolySpec(m=0, sigma=0.8, theta=0.7, X=1e4)
        span = TGrid.for_span(1e6, 1e4)
        grid = TGrid(t0=span.t0, count=15 * NUFFT_BLOCK + 777, delta=span.delta)
        halves = [(j0 + k, z[k:k + NUFFT_BLOCK])
                  for j0, z in self._serial(spec, grid, rotated)
                  for k in range(0, z.size, NUFFT_BLOCK)]
        assert len(halves) == 16
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if workers == 5 else interval)
        try:
            got = []
            for j0, p in iter_poly_blocks(spec, self.table, grid, rotated=rotated):
                time.sleep(0.005)
                got.append((j0, p.copy()))
            assert [j0 for j0, _ in got] == [j0 for j0, _ in halves]
            for (_, p), (_, ref) in zip(got, halves):
                assert np.array_equal(p, ref)
            for stop in range(len(halves)):
                blocks = iter_poly_blocks(spec, self.table, grid, rotated=rotated)
                for _ in range(stop + 1):
                    next(blocks)
                blocks.close()
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        name = "irfft" if rotated else "fft"
        fft, calls = getattr(np.fft, name), []

        def flaky(*args, **kwargs):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise FloatingPointError(f"{name} failed")
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, flaky)
        with pytest.raises(FloatingPointError, match=f"{name} failed"):
            list(iter_poly_blocks(spec, self.table, grid, rotated=rotated))
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 4, 5])
    def test_rotated_output_grids_held_while_read(self, monkeypatch, workers):
        self._held_while_read(monkeypatch, workers, rotated=True)

    @pytest.mark.parametrize("workers", [1, 2, 4, 5])
    def test_complex_output_slots_held_while_read(self, monkeypatch, workers):
        self._held_while_read(monkeypatch, workers, rotated=False)

    def test_workers_capped(self, monkeypatch):
        # one thread per CPU, but never more than MAX_POOL_WORKERS; no pool
        before = threading.active_count()
        for cpus, want in ((1, 1), (64, prime_poly.MAX_POOL_WORKERS)):
            monkeypatch.setattr(prime_poly.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            assert prime_poly._pool_workers() == want
        assert prime_poly.MAX_POOL_WORKERS == 4
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_close_after_first_block_joins_pool(self, monkeypatch, workers):
        monkeypatch.setattr(prime_poly, "_pool_workers", lambda: workers)
        before = threading.active_count()
        for rotated in (False, True):
            blocks = iter_poly_blocks(PolySpec(m=0, sigma=0.8, theta=0.0, X=1e5),
                                      self.table, self._grid(1e5), rotated=rotated)
            j0, _ = next(blocks)
            assert j0 == 0 and threading.active_count() > before
            blocks.close()
            assert threading.active_count() == before

    def test_block_error_reaches_consumer(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(threading.get_ident())
            raise FloatingPointError("fft failed")

        monkeypatch.setattr(prime_poly, "_pool_workers", lambda: 2)
        monkeypatch.setattr(np.fft, "fft", broken)
        before = threading.active_count()
        spec = PolySpec(m=0, sigma=0.8, theta=0.0, X=1e5)
        with pytest.raises(FloatingPointError, match="fft failed"):
            list(iter_poly_blocks(spec, self.table, self._grid(1e5)))
        assert calls and threading.get_ident() not in calls
        assert threading.active_count() == before

    @pytest.mark.parametrize("rotated", [False, True])
    def test_phase_error_in_a_later_head_joins_pool(self, monkeypatch, rotated):
        # a grid whose second group of transforms passes the 2^28-turn
        # phase limit (TGrid itself does not check it): the ValueError
        # from that head reaches the consumer after the first blocks, and
        # the pool is joined (no worker ever waits for an output grid, so
        # shutting it down is all the clean-up there is)
        monkeypatch.setattr(prime_poly, "_pool_workers", lambda: 2)
        spec = PolySpec(m=0, sigma=0.8, theta=0.7, X=1e4)
        delta = TGrid.for_span(1e6, 1e4).delta
        limit = (prime_poly.PHASE_TURNS - 1) * 2 * math.pi / math.log(9973.0)
        t0 = math.floor(limit - 2 * NUFFT_BLOCK * delta)
        grid = TGrid(t0=float(t0), count=2 * NUFFT_BLOCK * 12, delta=delta)
        before = threading.active_count()
        seen = []
        with pytest.raises(ValueError, match="too large for exact reduction"):
            for j0, _ in iter_poly_blocks(spec, self.table, grid, rotated=rotated):
                seen.append(j0)
        assert seen and len(seen) < 24
        assert threading.active_count() == before

    def test_phases_on_consumer_thread(self, monkeypatch):
        threads = []
        reduce = prime_poly.phase_mod_two_pi

        def spy(t, omega):
            threads.append(threading.get_ident())
            return reduce(t, omega)

        monkeypatch.setattr(prime_poly, "_pool_workers", lambda: 2)
        monkeypatch.setattr(prime_poly, "phase_mod_two_pi", spy)
        spec = PolySpec(m=0, sigma=0.8, theta=0.0, X=1e5)
        span = TGrid.for_span(1e6, 1e5)
        count = 2 * NUFFT_BLOCK * (prime_poly.NUFFT_GROUP + 1) + 777
        grid = TGrid(t0=span.t0, count=count, delta=span.delta)
        blocks = list(iter_poly_blocks(spec, self.table, grid))
        assert len(blocks) == 2 * prime_poly.NUFFT_GROUP + 3
        # the step table, a head for each of the two groups of transforms
        # and the short last transform's own phase: 4 calls, not one per
        # block or per transform
        assert len(threads) == 4
        assert set(threads) == {threading.get_ident()}


# Warm kernel passes, in a child whose glibc mmap threshold is pinned at
# its 128 KB default (setting it turns off the dynamic threshold), so
# every array over 128 KB is mapped afresh and faulted in.  Prints, per
# pass, the minor faults per block outside numpy's FFT calls (whose own
# scratch, 2n doubles per call, is counted on the calling thread and
# left out), as the slope between a 16- and a 48-block pass, which
# cancels what each pass allocates once.  The passes: the rotated and
# the complex NUFFT stream at X = 1e4, a 3-angle theta sweep over that
# complex stream (measure_exceedance_poly_multi), and criterion 6's
# complex GEMM pass (exp_moment_trimmed at X = 31).
FAULT_SCRIPT = """
import json
import resource
import threading
import numpy as np
from zel.moments import exp_moment_trimmed
from zel.prime_poly import NUFFT_BLOCK, PolySpec, PrimeTable, TGrid, iter_poly_blocks
from zel.tails import measure_exceedance_poly_multi

def faults(who):
    return resource.getrusage(who).ru_minflt

in_fft, lock = [0], threading.Lock()     # workers add to in_fft at once
def counted(fft):
    def run(*args, **kwargs):
        before = faults(resource.RUSAGE_THREAD)
        try:
            return fft(*args, **kwargs)
        finally:
            with lock:
                in_fft[0] += faults(resource.RUSAGE_THREAD) - before
    return run
np.fft.fft = counted(np.fft.fft)
np.fft.irfft = counted(np.fft.irfft)

table = PrimeTable.build(10_000)

span = TGrid.for_span(1e6, 1e4)

def nufft(rotated):
    spec = PolySpec(m=0, sigma=0.8, theta=0.7, X=1e4)
    def run(blocks):
        grid = TGrid(t0=span.t0, count=blocks * NUFFT_BLOCK, delta=span.delta)
        drawn = sum(1 for _ in iter_poly_blocks(spec, table, grid, rotated=rotated))
        assert drawn == blocks
    return run

def sweep(blocks):
    specs = [PolySpec(m=0, sigma=0.8, theta=a, X=1e4) for a in (0.0, 0.7, 2.0)]
    grid = TGrid(t0=span.t0, count=blocks * NUFFT_BLOCK, delta=span.delta)
    measure_exceedance_poly_multi(specs, table, grid, [0.5, 1.0])

def trimmed(blocks):
    # its half-spacing refinement holds blocks * NUFFT_BLOCK points
    spec = PolySpec(m=1, sigma=0.5, theta=0.0, X=31.0)
    span = TGrid.for_span(1e6, 31.0)
    grid = TGrid(t0=span.t0, count=blocks * NUFFT_BLOCK // 2, delta=span.delta)
    exp_moment_trimmed(spec, table, grid, 2.0, 20.0)

def per_block(run):
    def outside_fft(blocks):
        in_fft[0] = 0
        before = faults(resource.RUSAGE_SELF)
        run(blocks)
        return faults(resource.RUSAGE_SELF) - before - in_fft[0]
    outside_fft(16)
    short = outside_fft(16)
    return (outside_fft(48) - short) / 32

print(json.dumps({"rotated_nufft": per_block(nufft(True)),
                  "complex_nufft": per_block(nufft(False)),
                  "theta_sweep": per_block(sweep),
                  "complex_gemm": per_block(trimmed)}))
"""


@functools.cache
def faults_per_block():
    """FAULT_SCRIPT's per-block fault counts, from one child run."""
    src = str(Path(prime_poly.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "MALLOC_MMAP_THRESHOLD_": "131072"}
    out = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    return json.loads(out)


GLIBC_ONLY = pytest.mark.skipif(platform.system() != "Linux"
                                or platform.libc_ver()[0] != "glibc",
                                reason="page-fault counts of glibc's allocator")


@GLIBC_ONLY
def test_rotated_nufft_pass_is_fault_stable():
    """A warm rotated NUFFT pass allocates nothing per block: under 20
    minor page faults per block outside numpy's FFT, whatever glibc's mmap
    threshold.  Each worker holds its half grid, spread chunk and
    amplitude chunk for the pass, and the output goes to held grids.
    With a fresh spread-values array, bincount grid and output per block
    it took about 300 per block at X = 1e4.
    """
    per_block = faults_per_block()["rotated_nufft"]
    assert per_block < 20, f"{per_block:.0f} minor faults per block"


@GLIBC_ONLY
@pytest.mark.parametrize("stream", ["complex_nufft", "theta_sweep", "complex_gemm"])
def test_complex_pass_is_fault_stable(stream):
    """Complex blocks, like rotated ones, are views into buffers held for
    the pass: a warm complex NUFFT pass (X = 1e4), a 3-angle theta sweep
    over it and criterion 6's complex GEMM pass (X = 31) each take under
    20 minor page faults per block outside numpy's FFT.  With a fresh
    array per block on both paths they took about 300, and the sweep,
    with fresh (3 x block) rotated rows per block, about 385.
    """
    per_block = faults_per_block()[stream]
    assert per_block < 20, f"{stream}: {per_block:.0f} minor faults per block"


class TestLambdaSum:
    def test_two_terms(self):
        got = lambda_sum(0, 2.0, 3, 0.0)
        expect = math.log(2) / (4 * math.log(2)) + math.log(3) / (9 * math.log(3))
        assert got.imag == 0.0
        assert got.real == pytest.approx(expect, rel=1e-15)

    def test_prime_power_inclusion(self):
        # X=4 picks up n=4 with Lambda(4)=log 2 and (log 4)^{m+1} denominator
        m, sg = 1, 2.0
        base = lambda_sum(m, sg, 3, 0.0)
        with4 = lambda_sum(m, sg, 4, 0.0)
        contrib = math.log(2) / (4 ** sg * math.log(4) ** (m + 1))
        assert (with4 - base).real == pytest.approx(contrib, rel=1e-14)

    def test_direct_small_sum(self):
        vm = von_mangoldt_table(30)
        m, sg, t = 2, 1.3, 2.25
        expect = sum(
            vm[n] * n ** -sg * complex(math.cos(t * math.log(n)),
                                       -math.sin(t * math.log(n)))
            / math.log(n) ** (m + 1)
            for n in range(2, 31) if vm[n] > 0)
        got = lambda_sum(m, sg, 30, t)
        assert abs(got - expect) < 1e-13

    def test_tail_bound_sigma_two(self):
        # increments beyond X are controlled by the absolute series tail
        a = lambda_sum(1, 2.0, 10 ** 4, 5.0)
        b = lambda_sum(1, 2.0, 10 ** 5, 5.0)
        vm = von_mangoldt_table(10 ** 5)
        n = np.arange(10 ** 4 + 1, 10 ** 5 + 1)
        tail = float(np.sum(vm[10 ** 4 + 1:] / n ** 2.0
                            / np.log(n) ** 2))
        assert abs(b - a) <= tail * (1 + 1e-12)

    def test_empty_below_two(self):
        assert lambda_sum(1, 0.75, 1.5, 0.0) == 0j


class TestMomentInequality:
    def test_splitting_bound(self):
        """Empirical 2k-th moments of |sum a(p) p^{-1/2-it}| stay under
        4 k! (sum a(p)^2/p)^k on a desk-scale window."""
        table = PrimeTable.build(100)
        spec = PolySpec(m=1, sigma=0.5, theta=0.0, X=31)
        g = TGrid.for_span(1e5, 31)
        n = table.upto(31)
        base = float(np.sum(table.weights(1, 0.5, 31) ** 2))
        acc = np.zeros(3)
        for _, z in iter_poly_blocks(spec, table, g):
            a2 = np.abs(z) ** 2
            acc += [a2.sum(), (a2 ** 2).sum(), (a2 ** 3).sum()]
        for k in (1, 2, 3):
            emp = acc[k - 1] / g.count
            assert emp <= 4 * math.factorial(k) * base ** k, k
