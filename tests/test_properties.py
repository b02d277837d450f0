"""Property tests: phase reduction, exceedance monotonicity and counts,
moment power sums,
chunking, block lengths, grid exactness and the grids the CLI builds.

Hypothesis runs derandomized with a bounded example count, so every run
draws the same cases and the suite stays deterministic.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zel import cli, moments, prime_poly, tails
from zel.emit import NonFiniteOutput
from zel.prime_poly import (BLOCK_ROWS, CHUNK_COLS, NUFFT_BLOCK, PolySpec,
                            PrimeTable, TGrid, dyadic_floor,
                            iter_poly_blocks, max_spacing, phase_mod_two_pi,
                            sieve)
from zel.tails import measure_exceedance_poly_multi

from grid_helpers import poly_eval_batch, t_array

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
PRIMES = sieve(100_000).tolist()
TABLE = PrimeTable.build(10_000)


@PROPERTY
@given(num=st.integers(0, 10 ** 7 * 4096), p=st.sampled_from(PRIMES))
def test_phase_matches_mpmath(num, p):
    t = num / 4096.0                 # dyadic lattice, exact in double
    omega = math.log(p)
    with mpmath.workdps(50):
        x = mpmath.mpf(t) * mpmath.mpf(omega)
        two_pi = 2 * mpmath.pi
        ref = float(x - two_pi * mpmath.nint(x / two_pi))
    diff = abs(float(phase_mod_two_pi(t, omega)) - ref)
    # both land in [-pi, pi]; wrap-adjacent values may differ by a turn
    assert min(diff, abs(diff - 2.0 * math.pi)) < 5e-15


@PROPERTY
@given(sigma=st.sampled_from([0.5, 0.6, 0.8]),
       theta=st.floats(0.0, 2.0 * math.pi),
       vs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8, unique=True))
def test_exceedance_counts_nonincreasing_in_v(sigma, theta, vs):
    spec = PolySpec(m=0, sigma=sigma, theta=theta, X=31.0)
    grid = TGrid.for_span(1e3, 31.0)
    v = sorted(vs)
    counts = measure_exceedance_poly_multi([spec], TABLE, grid,
                                           v)[0].exceed_counts
    assert np.all(np.diff(counts) <= 0)
    values = poly_eval_batch(spec, TABLE, grid)
    assert counts.tolist() == [int(np.sum(values > x)) for x in v]


@PROPERTY
@given(v=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6,
                  unique=True).map(sorted),
       picks=st.lists(st.one_of(st.integers(0, 5), st.floats(allow_nan=False)),
                      max_size=64),
       nan_at=st.none() | st.integers(0, 64))
@example(v=[0.5, 1.0], picks=[], nan_at=None)                   # empty block
@example(v=[0.5], picks=[0, 0.7, 0.2, math.inf], nan_at=None)   # one level
@example(v=[-1.0, 0.0, 2.0], picks=[0, -5.0, -math.inf, -1.0],
         nan_at=None)                                           # all <= v[0]
@example(v=[0.0, 1.0], picks=[math.inf, -math.inf, 0, 1, 0.5, 1.0],
         nan_at=None)                                           # +-inf, ties
@example(v=[-1.0, 0.0, 2.0], picks=[-5.0, 0], nan_at=1)         # NaN below v[0]
def test_exceed_counts_match_per_level_oracle(v, picks, nan_at):
    # an int pick i is the level v[i % len(v)] itself: a tie
    values = np.array([v[p % len(v)] if isinstance(p, int) else p
                       for p in picks], dtype=float)
    if nan_at is not None:
        values = np.insert(values, min(nan_at, values.size), math.nan)
        with pytest.raises(NonFiniteOutput, match="nan"):
            tails._exceed_counts(values, np.array(v))
        return
    counts = tails._exceed_counts(values, np.array(v))
    assert counts.dtype == np.int64
    assert counts.tolist() == [np.count_nonzero(values > x) for x in v]


@PROPERTY
@given(ks=st.sets(st.integers(1, 9), min_size=1).map(sorted),
       first=st.sampled_from([0, 1]),
       p=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=301))
@example(ks=[6], first=1, p=[0.5, -1.25, 2.0, -0.75])        # a gap below k
@example(ks=[1, 6], first=0, p=[-2.0, 1.5, 0.25])            # odd length
@example(ks=[1, 2, 3], first=1, p=[1.5])                     # length 1
@example(ks=[9], first=0, p=[-3.0, 3.0, -2.5, 2.5, 1.0, -1.0])
@example(ks=[1, 3, 5, 7, 8], first=1,                        # square, then
         p=[0.5, -1.25, 2.0, -0.75, 1.5, -3.0, 0.25])        # two products
def test_power_sums_match_fsum_oracle(ks, first, p):
    p = np.array(p)
    # scratch longer than the block and full of NaN: only [:p.size] is used
    scratch = (np.full(p.size + 7, math.nan), np.full(p.size + 7, math.nan))
    sums = {k: ([], []) for k in ks}
    moments._add_power_sums(moments._power_plan(sums), first, p, scratch)
    for k in ks:
        for (got,), vals in zip(sums[k], (p[first::2], p)):
            want = math.fsum((vals ** k).tolist())
            scale = math.fsum((np.abs(vals) ** k).tolist())
            assert abs(got - want) <= 1e-13 * scale, (k, got, want)


def _chunked(spec, grid, v, chunk_cols):
    """(Z over the grid, exceedance counts at v) at CHUNK_COLS = chunk_cols."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prime_poly, "CHUNK_COLS", chunk_cols)
        z = np.concatenate([b for _, b in iter_poly_blocks(spec, TABLE, grid)])
        counts = measure_exceedance_poly_multi([spec], TABLE, grid,
                                               v)[0].exceed_counts
    return z, counts


@settings(PROPERTY, max_examples=15)
@given(t0=st.integers(1, 10 ** 7), count=st.integers(1, 40_000),
       X=st.sampled_from([3.0, 31.0, 100.0]),
       theta=st.floats(0.0, 2.0 * math.pi),
       vs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5, unique=True))
@example(t0=10 ** 7, count=40_000, X=100.0, theta=0.7, vs=[-0.5, 1.0])
def test_blocks_independent_of_chunk_cols(t0, count, X, theta, vs):
    # the pinned example spans 40 columns of BLOCK_ROWS rows
    spec = PolySpec(m=1, sigma=0.5, theta=theta, X=X)
    grid = TGrid(t0=float(t0), count=count, delta=dyadic_floor(max_spacing(X)))
    v = sorted(vs)
    z_ref, counts_ref = _chunked(spec, grid, v, CHUNK_COLS)
    for chunk_cols in (1, 3):
        z, counts = _chunked(spec, grid, v, chunk_cols)
        assert np.max(np.abs(z - z_ref)) <= 1e-10
        assert counts.tolist() == counts_ref.tolist()


def _with_block_lengths(spec, grid, v, rows, block):
    """(Z over the grid, exceedance counts at v) at BLOCK_ROWS = rows and
    NUFFT_BLOCK = block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prime_poly, "BLOCK_ROWS", rows)
        mp.setattr(prime_poly, "NUFFT_BLOCK", block)
        z = np.concatenate([b for _, b in iter_poly_blocks(spec, TABLE, grid)])
        counts = measure_exceedance_poly_multi([spec], TABLE, grid,
                                               v)[0].exceed_counts
    return z, counts


@settings(PROPERTY, max_examples=15)
@given(t0=st.integers(1, 10 ** 7), count=st.integers(1, 40_000),
       X=st.sampled_from([31.0, 1e4]),
       theta=st.floats(0.0, 2.0 * math.pi),
       vs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5, unique=True))
@example(t0=10 ** 7, count=40_000, X=1e4, theta=0.7, vs=[-0.5, 1.0])
def test_blocks_independent_of_block_lengths(t0, count, X, theta, vs):
    # X = 31 (11 primes) takes the GEMM path, X = 1e4 (1229) the NUFFT path
    spec = PolySpec(m=1, sigma=0.5, theta=theta, X=X)
    grid = TGrid(t0=float(t0), count=count, delta=dyadic_floor(max_spacing(X)))
    v = sorted(vs)
    z_ref, counts_ref = _with_block_lengths(spec, grid, v, BLOCK_ROWS, NUFFT_BLOCK)
    for rows, block in ((7, 1 << 8), (100, 1 << 12)):
        z, counts = _with_block_lengths(spec, grid, v, rows, block)
        assert np.max(np.abs(z - z_ref)) <= 1e-10
        assert counts.tolist() == counts_ref.tolist()


@PROPERTY
@given(T=st.integers(1, 10 ** 7), X=st.sampled_from([3.0, 31.0, 1e4, 1e5]),
       refine=st.integers(1, 8),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_grid_times_exact_on_dyadic_lattice(T, X, refine, fracs):
    grid = TGrid.for_span(float(T), X, refine=refine)
    delta = Fraction(grid.delta)
    assert delta.denominator & (delta.denominator - 1) == 0     # dyadic
    js = sorted({0, grid.count - 1, *(int(f * (grid.count - 1)) for f in fracs)})
    for j in js:
        assert Fraction(grid.t(j)) == T + j * delta
    j0 = js[len(js) // 2]
    part = t_array(grid, j0, min(j0 + 64, grid.count))
    assert [Fraction(t) for t in part] == [T + (j0 + i) * delta
                                           for i in range(part.size)]


# Reference copies of the earlier, narrower grid rules: a spacing
# numerator < 2^24 and denominator <= 2^24 beside the exactness test, and
# a 2^-13 floor on the eta spacing T/count.  Every grid they accepted must
# come out the same under TGrid's one lattice rule.

def _old_dyadic_floor(dmax):
    k = 0
    while math.floor(dmax * 2.0 ** k) < 2 ** 11:
        k += 1
    return math.floor(dmax * 2.0 ** k) / 2.0 ** k


def _old_grid(t0, count, delta):
    """(t0, count, delta) if the old TGrid accepted it, else None."""
    num, den = delta.as_integer_ratio()
    if (num >= 2 ** 24 or den > 2 ** 24 or t0 * den != round(t0 * den)
            or (t0 + count * delta) * den >= 2 ** 53):
        return None
    return t0, count, delta


def _old_for_span(T, X, refine):
    delta = _old_dyadic_floor(_TWO_PI / (3.0 * math.log(X)) / refine)
    if (2.0 * T + delta) * math.log(X) >= (2 ** 28 - 1) * _TWO_PI:
        return None
    return _old_grid(T, math.ceil(T / delta), delta)


def _old_eta_grid(T, count):
    if not T / count >= 2.0 ** -13:
        return None
    return _old_grid(T, count, _old_dyadic_floor(T / count))


class _Built(Exception):
    """Carries the grid cmd_tail built, in place of the eta evaluation."""


def _cli_eta_grid(T, count):
    """The grid `zel tail --route eta` builds."""
    def capture(m, sigma, theta, grid, V):
        raise _Built(grid)

    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Built) as built:
        mp.setattr(cli, "measure_exceedance_eta", capture)
        cli.main(["tail", "--route", "eta", "--sigma", "0.75", "--m", "1",
                  "--T", repr(T), "--count", str(count), "--V", "1"])
    return built.value.args[0]


def _assert_exact(grid, fracs):
    delta = Fraction(grid.delta)
    js = {0, 1, grid.count // 3, grid.count - 1,
          *(int(f * (grid.count - 1)) for f in fracs)}
    for j in sorted(j for j in js if j < grid.count):
        assert Fraction(grid.t(j)) == Fraction(grid.t0) + j * delta, j


_TWO_PI = 2.0 * math.pi
# T = n + frac/2^bits: mostly on the grids' 2^-10..2^-14 lattices, and
# the rest off them, so both outcomes are drawn
_T_ON_LATTICE = st.builds(
    lambda n, frac, bits: n + (frac % 2 ** bits) / 2.0 ** bits,
    st.integers(0, 10 ** 8), st.integers(0, 2 ** 16), st.integers(0, 16))


@settings(PROPERTY, max_examples=200)
@given(T=_T_ON_LATTICE, X=st.sampled_from([3.0, 31.0, 1e4, 1e5, 1e7]),
       refine=st.integers(1, 8), count=st.integers(1, 100_000),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=4))
@example(T=1e8, X=31.0, refine=1, count=6, fracs=[])
@example(T=1.0, X=3.0, refine=8, count=8192, fracs=[])
def test_grids_the_old_rules_accepted_are_unchanged(T, X, refine, count, fracs):
    old = _old_for_span(T, X, refine) if T > 0 else None
    if old is not None:
        grid = TGrid.for_span(T, X, refine=refine)
        assert (grid.t0, grid.count, grid.delta) == old
        _assert_exact(grid, fracs)
    old = _old_eta_grid(T, count) if T > 0 else None
    if old is not None:
        grid = _cli_eta_grid(T, count)
        assert (grid.t0, grid.count, grid.delta) == old
        _assert_exact(grid, fracs)


@settings(PROPERTY, max_examples=200)
@given(num_bits=st.integers(1, 40), k=st.integers(0, 40),
       count=st.integers(1, 10 ** 6), data=st.data())
def test_wide_exact_grids_accepted(num_bits, k, count, data):
    # odd numerators up to 40 bits over 2^-k units up to 2^-40: the old
    # widths (< 2^24 and <= 2^24) refused most of these
    num = data.draw(st.integers(2 ** (num_bits - 1), 2 ** num_bits - 1)) | 1
    room = 2 ** 53 - 1 - count * num
    if room < 0:
        with pytest.raises(ValueError, match="exact-double dyadic range"):
            TGrid(t0=0.0, count=count, delta=num / 2.0 ** k)
        return
    # |t0| counts against the same 2^53 units, for t0 of either sign
    t0 = data.draw(st.integers(-room, room)) / 2.0 ** k
    grid = TGrid(t0=t0, count=count, delta=num / 2.0 ** k)
    _assert_exact(grid, data.draw(st.lists(st.floats(0.0, 1.0), max_size=4)))
