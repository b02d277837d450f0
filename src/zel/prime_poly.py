"""Prime Dirichlet polynomials P(t) = Re e^{-i theta} sum_{p<=X} p^{-sigma-it} (log p)^{-m}.

Pointwise values, a streaming batch kernel for long uniform t-grids, and
the von Mangoldt partial sums sum_{2<=n<=X} Lambda(n) n^{-sigma-it} (log n)^{-m-1}
used as the short-interval approximation to the iterated integrals.

Phase discipline.  On a grid covering [T, 2T] with T = 1e7 the raw phase
t*log p reaches ~2e8 rad, where one double ULP is ~3e-8 rad; two routes
that round t*log p differently disagree by ~Sigma w_p * 3e-8, far above
the 1e-10 batch-vs-pointwise contract.  So (a) grid spacings are dyadic
rationals and grid start times are representable on the same dyadic
lattice, making every t_j = t0 + j*delta exact in double precision, and
(b) every phase is reduced mod 2 pi from the exact Dekker two-product of
t and log p with a three-part Cody-Waite 2 pi (residual ~1e-15 rad).

The batch kernel has two paths, chosen by prime count alone; both yield
the same (j_start, Z) stream, or the (j_start, P) stream of one rotation,
in blocks of NUFFT_BLOCK points.  Every block, complex or rotated, on
either path, is a view into a buffer held for the pass and is valid until
the next block is drawn; a consumer copies what must outlive that.

GEMM path (fewer than NUFFT_MIN_PRIMES primes).  It factors
e^{-i t_j omega} = e^{-i t_c omega} * e^{-i k*B*delta*omega} * e^{-i row*delta*omega}
over j = (c + k)*B + row, c the first column of a chunk of
CHUNK_COLS = NUFFT_BLOCK / B columns, and evaluates each chunk as one
GEMM, (columns x primes) @ (primes x B), whose C-order result is already
in grid order.  All three factors come from exact phases of lattice
times: the chunk head (primes values per chunk, the heads of CHUNK_COLS
chunks reduced in one call), the step table (CHUNK_COLS x primes) and
the row factors (primes x B, weights folded in), the last two reduced
once per pass.  A column factor is one product of a head and a step
row, so no error accumulates along the grid.  For Z the GEMM is complex.
For the rotated real values P = Re e^{-i theta} Z the rotation rides in
the heads, U' = e^{-i theta} U, and Re(U'V) = [Re U', Im U'] @
[Re V; -Im V] is one real GEMM of half the flops.  Either GEMM writes
into one buffer per pass (a fresh 0.5-1 MB array per block costs
~260-300 minor page faults, as glibc trims the heap top and faults it
back in).  Cost O(primes * points).

NUFFT path (the Odlyzko-Schonhage idea as a type-1 nonuniform FFT).  A
transform of up to span = 2 * NUFFT_BLOCK points centred at grid point c
has Z_{c+k} = sum_p a_p e^{-i k x_p} with a_p = w_p e^{-i t_c omega_p}
and x_p = delta*omega_p; it is yielded as two blocks.  Each a_p is
spread onto a 3/2 upsampled periodic grid of n = 3 span / 2 points with
the exponential-of-semicircle kernel of width ES_WIDTH = 18 and shape
ES_BETA (Barnett-Magland-af Klinteberg, SISC 41, 2019), one numpy FFT
follows, and each output is divided by the kernel's Fourier transform.
Weights carry (-1)^m, m the fine index, so output k sits at n/2 + k.
(beta, chosen by a scan against the GEMM path at 9,592 primes, sits
within ~1e-14 sum w_p of it; per output point the FFT takes ~30% less
time than at 2x upsampling with 2^16-point transforms.)  The kernel
sits at u_p = x_p n/(2 pi) in fine-grid units, formed from the exact
two-product x_p = hi + lo in double-double arithmetic, the factor 3 of
n through a second two-product (_fine_position).  Rounding u_p to a
double adds up to 2 pi k ulp(u_p)/n to each phase, growing with |k|:
against the GEMM path that measured 1e-11 for u_p in plain doubles and
7e-11 for np.mod(-x_p, 2 pi) placement at sum w_p = 70.  Slots, kernel
values and deconvolution factors depend only on x_p, so they are built
once per pass.  The amplitudes come from exact phases as the GEMM
path's column factors do: a_p is a group head e^{-i t_c omega_p}, one
exact phase per NUFFT_GROUP transforms, times a row of the step table
e^{-i r span delta omega_p}, reduced once per pass; a short last
transform has its own exact phase.  For the rotated real values
P = Re e^{-i theta} Z the rotation rides in the amplitudes,
b_p = e^{-i theta} a_p, as it rides in U' on the GEMM path, and P is the
Hermitian case of the transform: conj(b_p) spreads straight into the
n/2 + 1 slots of a half grid, a fine index past n/2 mirrored to n - m
with b_p in place of its conjugate (the plan builds those slots and
weights once), and one real-output FFT of n points (np.fft.irfft),
its output k also at n/2 + k, replaces the complex FFT at half its
work.  Those blocks sit within ~4e-15 sum w_p of Re e^{-i theta} of the
complex ones.  No step of the pass is a matrix product: one large
enough for a threaded BLAS wakes a helper thread that spins on a core
the pool's workers need.  Cost O(points log span + primes * ES_WIDTH
per transform), the FFT term halved for P.  The transforms run on a
pool of one thread per CPU the process may use, at most
MAX_POOL_WORKERS, workers + 1 of them in flight: the caller's thread
reduces the heads, a worker spreads, FFTs (numpy's FFT releases the
GIL) and deconvolves, and the blocks come back strictly in j order.
Each worker holds its fine grid and a chunk of spread values for the
pass, and transform i writes into slot i mod (workers + 2) of a ring
(n doubles a slot for P, span complex values for Z), so a pass
allocates nothing per block (numpy's FFT allocates its own scratch, 2n
doubles per call); each worker adds ~6 MB of peak memory, and the ring
one more slot.  Each transform is the same sequence of numpy operations
on the same inputs as a serial loop's, so the stream is bit-identical
at every worker count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

SIEVE_LIMIT = 100_000_000       # hard cap for prime enumeration
NUFFT_MIN_PRIMES = 300          # prime count from which the NUFFT path beats GEMM
NUFFT_BLOCK = 1 << 16           # grid points per block on both paths (a power of two)
NUFFT_GROUP = 4                 # NUFFT transforms per exact amplitude head
SPREAD_CHUNK = 1024             # primes per chunk of a NUFFT spread
BLOCK_ROWS = 1024               # rows (consecutive grid points) per GEMM column
CHUNK_COLS = NUFFT_BLOCK // BLOCK_ROWS  # GEMM columns per yielded chunk
ES_WIDTH = 18                   # ES spreading kernel width, fine-grid points
ES_BETA = 2.06 * ES_WIDTH       # ES shape for 3/2 upsampling
ES_NODES = 64                   # Gauss-Legendre nodes for the kernel transform
MAX_POOL_WORKERS = 4            # NUFFT pool threads at most (~6 MB RSS each)

# three-part Cody-Waite split of 2 pi; k*C1 and k*C2 are exact for k < 2^29
_TWO_PI = 2.0 * math.pi
_CW_1 = float.fromhex("0x1.921fb40000000p+2")
_CW_2 = float.fromhex("0x1.4442d00000000p-22")
_CW_3 = float.fromhex("0x1.8469898cc5170p-46")
# 1/(2 pi) as a double-double
_INV_TWO_PI_HI = float.fromhex("0x1.45f306dc9c883p-3")
_INV_TWO_PI_LO = float.fromhex("-0x1.6b01ec5417056p-57")
_PI_LO = 1.2246467991473532e-16  # pi - float(pi)
_SPLITTER = 134217729.0         # 2^27 + 1, Veltkamp
# k * _CW_1 is exact only while k fits in 28 bits (_CW_1 carries 25)
PHASE_TURNS = 2 ** 28


def _two_product(a, b):
    """(hi, lo) with hi + lo == a*b exactly (Dekker, FMA-free)."""
    p = a * b
    ah = a * _SPLITTER
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLITTER
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _turns(phase):
    """Whole turns round(phase / 2 pi), checked against PHASE_TURNS."""
    k = np.round(phase * (1.0 / _TWO_PI))
    if np.max(np.abs(k), initial=0.0) >= PHASE_TURNS:
        raise ValueError("phase t*omega too large for exact reduction (>= 2^28 * 2 pi)")
    return k


def phase_mod_two_pi(t, omega, omega_lo=None):
    """t*omega reduced mod 2 pi to ~1e-15 rad, omega + omega_lo when given.

    Exact only while t*omega rounds to fewer than PHASE_TURNS = 2^28 whole
    turns, |t*omega| < ~1.69e9 rad; from 2^28 turns on it raises
    ValueError.  A double-double omega (the zeta backend's prime logs)
    removes the t * ulp(omega) floor, to hold 1e-12 at |t| ~ 1e4.

    Broadcasts over ndarray inputs.  The pointwise evaluators and every
    phase of the batch kernel come through here, which is what makes them
    agree to 1e-10 on long grids.
    """
    t = np.asarray(t, dtype=float)
    hi, lo = _two_product(t, np.asarray(omega, dtype=float))
    k = _turns(hi)
    if omega_lo is not None:
        lo = lo + t * np.asarray(omega_lo, dtype=float)
    return ((hi - k * _CW_1) - k * _CW_2) + (lo - k * _CW_3)


# ---------------------------------------------------------------------------
# primes


def sieve(limit: int) -> np.ndarray:
    """Primes <= limit, ascending int64.  Odd-only boolean sieve."""
    limit = int(limit)
    if limit > SIEVE_LIMIT:
        raise ValueError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT}")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit == 2:
        return np.array([2], dtype=np.int64)
    # comp[i] marks 2i+3
    size = (limit - 1) // 2
    comp = np.zeros(size, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not comp[(p - 3) // 2]:
            comp[(p * p - 3) // 2:: p] = True
    odds = 2 * np.flatnonzero(~comp).astype(np.int64) + 3
    return np.concatenate((np.array([2], dtype=np.int64), odds))


def von_mangoldt_table(limit: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= limit (entries 0 and 1 are 0)."""
    limit = int(limit)
    out = np.zeros(limit + 1)
    ps = sieve(limit)
    q = ps
    while q.size:                   # q = p^k over the p with p^k <= limit
        out[q] = np.log(ps[:q.size].astype(float))
        q = q * ps[:q.size]
        q = q[q <= limit]
    return out


@dataclass
class PrimeTable:
    """Sieved primes with their logs; the one source of the weights w_p."""

    limit: int
    primes: np.ndarray
    logs: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        if not 3 <= limit <= SIEVE_LIMIT:
            raise ValueError(f"prime table limit must be in [3, {SIEVE_LIMIT}]")
        ps = sieve(limit)
        return cls(limit=int(limit), primes=ps, logs=np.log(ps.astype(float)))

    def upto(self, x: float) -> int:
        """Index bound: primes[:upto(x)] are the primes <= x."""
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))

    def weights(self, m: int, sigma: float, x: float | None = None) -> np.ndarray:
        """p^-sigma (log p)^-m for p <= x (default: the whole table).

        ValueError when a weight passes the double range ((log 2)^-m at
        large m), without a RuntimeWarning on the way.
        """
        lg = self.logs if x is None else self.logs[:self.upto(x)]
        with np.errstate(over="ignore"):
            w = np.exp(-float(sigma) * lg) * lg ** (-float(m))
        if not np.isfinite(w).all():
            raise ValueError(
                f"weights p^-sigma (log p)^-m overflow a double at m={m}")
        return w


# ---------------------------------------------------------------------------
# specs and grids


@dataclass(frozen=True)
class PolySpec:
    """Prime polynomial parameters: sum_{p<=X} p^-sigma (log p)^-m, angle theta."""

    m: int
    sigma: float
    theta: float
    X: float

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"--m must be >= 0, got {self.m}")
        if not 0.5 <= self.sigma < 1.0:
            raise ValueError(f"--sigma must be in [1/2, 1), got {self.sigma}")
        if not 3 <= self.X < math.inf:
            raise ValueError(f"--X must be finite and >= 3, got {self.X}")
        if not math.isfinite(self.theta):
            raise ValueError(f"--theta must be finite, got {self.theta}")


def max_spacing(X: float) -> float:
    """Grid-resolution rule: delta <= 2 pi / (3 log X)."""
    return _TWO_PI / (3.0 * math.log(X))


def dyadic_floor(dmax: float) -> float:
    """Largest n/2^k <= dmax at the least k >= 0 with n >= 2^11 (grid
    spacing): a 12-bit n for dmax < 2^11, the integer floor from 2^11 up."""
    if not dmax > 0:
        raise ValueError("spacing must be positive")
    if dmax >= 2 ** 11:
        return float(math.floor(dmax))
    frac, e = math.frexp(dmax)          # dmax = frac 2^e, 1/2 <= frac < 1
    return math.ldexp(math.floor(math.ldexp(frac, 12)), e - 12)


def check_phase_range(t_max: float, omega_max: float, what: str) -> None:
    """ValueError unless every phase t*omega with |t| <= t_max and
    omega <= omega_max rounds to fewer than PHASE_TURNS whole turns.

    The bound, PHASE_TURNS - 1 turns, sits half a turn inside where
    phase_mod_two_pi's rounded turn count reaches PHASE_TURNS, so a range
    accepted here never fails there; what names the inputs in the
    message.  Callers check before they build a prime table or a grid.
    """
    top, limit = abs(t_max) * omega_max, (PHASE_TURNS - 1) * _TWO_PI
    if not top < limit:
        raise ValueError(
            f"{what}: phases t*omega up to {top:.4g} pass the exact-reduction "
            f"limit (2^28 - 1) * 2 pi = {limit:.4g}")


@dataclass(frozen=True)
class TGrid:
    """Uniform grid t_j = t0 + j * delta, j = 0..count-1.

    t0 and delta sit on one 2^-k lattice, k from the finer of the two,
    and (|t0| + count*delta) 2^k must stay below 2^53: then every t_j is
    exact in double precision (see module docstring).  This is the one
    lattice rule for every grid.
    """

    t0: float
    count: int
    delta: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        # in exact rationals: den passes the double range below 2^-1023;
        # t0, j*delta and t0 + j*delta (j < count) are whole multiples of
        # 2^-k, fewer than 2^53 of them in magnitude: exact doubles
        t0, delta = Fraction(self.t0), Fraction(self.delta)
        den = max(t0.denominator, delta.denominator)
        k = den.bit_length() - 1
        if (abs(t0) + self.count * delta) * den >= 2 ** 53:
            raise ValueError(
                f"--T {self.t0!r} with {self.count} points at spacing {self.delta!r} "
                f"exceeds the exact-double dyadic range (2^53 units of 2^-{k})")

    @classmethod
    def for_span(cls, T: float, X: float, *, refine: int = 1) -> "TGrid":
        """Cover [T, 2T] at the spacing rule for X (refine halves delta).

        delta is dyadic_floor(2 pi/(3 log X) / refine), so refine=2 halves
        delta exactly; count*delta - T < delta.  Every phase t log p on the
        grid stays below (2T + delta) log X; a span past check_phase_range
        is rejected here, before any prime table or kernel block is built;
        T need not sit on delta's lattice, and a grid TGrid rejects names
        refine too when refine > 1.
        """
        if not refine >= 1:
            raise ValueError(f"--refine must be >= 1, got {refine}")
        if not T > 0:
            raise ValueError("T must be positive")
        delta = dyadic_floor(max_spacing(X) / refine)
        check_phase_range(2.0 * T + delta, math.log(X), f"--T {T:g}, --X {X:g}")
        try:
            return cls(t0=float(T), count=math.ceil(T / delta), delta=delta)
        except ValueError as exc:
            raise ValueError(f"{exc} at --refine {refine}" if refine > 1
                             else exc) from None

    def t(self, j: int) -> float:
        return self.t0 + j * self.delta


# ---------------------------------------------------------------------------
# evaluation


def _spec_arrays(spec: PolySpec, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    if table.limit < spec.X:
        raise ValueError(f"table limit {table.limit} below spec X {spec.X}")
    n = table.upto(spec.X)
    if n == 0:
        raise ValueError("no primes <= X")
    return table.logs[:n], table.weights(spec.m, spec.sigma, spec.X)


def poly_eval(spec: PolySpec, table: PrimeTable, t: float) -> float:
    """P(t) = sum_{p<=X} p^-sigma (log p)^-m cos(t log p + theta)."""
    omegas, w = _spec_arrays(spec, table)
    return float(np.dot(w, np.cos(phase_mod_two_pi(t, omegas) + spec.theta)))


def rotated_real(z: np.ndarray, theta, out: np.ndarray | None = None) -> np.ndarray:
    """Re e^{-i theta} z = cos(theta) Re z + sin(theta) Im z in one pass over
    the contiguous 1-D complex z: z's shape for one angle, one row per angle
    for a sequence of angles (an (n, 2) @ (2, len(z)) product), written
    into out when given (a contiguous float array of that shape)."""
    cs = np.array([[math.cos(a), math.sin(a)] for a in np.atleast_1d(theta)])
    p = np.matmul(cs, z.view(float).reshape(-1, 2).T,
                  out=None if out is None else out.reshape(len(cs), -1))
    return p if np.ndim(theta) else p[0]


def iter_poly_blocks(spec: PolySpec, table: PrimeTable, grid: TGrid, *,
                     rotated: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (j_start, Z) with Z[i] = sum_p w_p e^{-i t_{j_start+i} log p}.

    Blocks arrive in j order, partition the grid and hold at most
    NUFFT_BLOCK points (1 MB, so reducers re-read them from L2).  P(t) is
    rotated_real(Z, theta); |Z| feeds the trimmed-set machinery.  From
    NUFFT_MIN_PRIMES primes on the NUFFT path runs, below it the GEMM
    path; see the module docstring.  Peak memory is
    O(primes * (BLOCK_ROWS + CHUNK_COLS) + NUFFT_BLOCK) on the GEMM path
    and O(primes * (ES_WIDTH + NUFFT_GROUP) + workers * NUFFT_BLOCK) on
    the NUFFT path, never O(primes * count).

    rotated=True yields float64 blocks of P = Re e^{-i theta} Z at
    theta = spec.theta instead, with e^{-i theta} folded in before any
    sum: one real GEMM on the GEMM path, one real-output FFT from a
    Hermitian half grid per two blocks on the NUFFT path.  Every block,
    complex or rotated, is a view into a buffer held for the pass, valid
    only until the next one is drawn; copy what must outlive it.
    """
    omegas, w = _spec_arrays(spec, table)
    path = _gemm_blocks if omegas.size < NUFFT_MIN_PRIMES else _nufft_blocks
    yield from path(omegas, w, grid, spec.theta if rotated else None)


def _gemm_blocks(omegas: np.ndarray, w: np.ndarray, grid: TGrid,
                 theta: float | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The GEMM path of iter_poly_blocks: one GEMM per chunk.

    Column k of the chunk whose first column starts at the lattice time
    t_c is U = e^{-i t_c omega} e^{-i k B delta omega}, B = rows: a head
    per chunk (primes values) times row k of the step table (CHUNK_COLS x
    primes), both from exact phases, the table reduced once per pass and
    the heads of CHUNK_COLS chunks at a time in one call.  theta None
    gives Z from a complex GEMM.  Otherwise e^{-i theta} rides in the
    heads, U' = e^{-i theta} U, and each chunk is Re e^{-i theta} Z from
    one real GEMM, [Re U', Im U'] @ [Re V; -Im V], as U's interleaved
    doubles against V's rows interleaved to match.  Either GEMM writes
    into the one output buffer of the pass.
    """
    rows = min(BLOCK_ROWS, grid.count)
    n_cols = -(-grid.count // rows)
    width = min(CHUNK_COLS, n_cols)

    # V: (P, rows); row phases j0*delta*omega, weights folded in
    row_t = np.arange(rows, dtype=float) * grid.delta
    vmat = w[:, None] * np.exp(-1j * phase_mod_two_pi(row_t[None, :], omegas[:, None]))
    # step table: (width, P); column offsets k*rows*delta, on the lattice
    step_t = np.arange(width, dtype=float) * (rows * grid.delta)
    steps = np.exp(-1j * phase_mod_two_pi(step_t[:, None], omegas[None, :]))
    ucols = lhs = np.empty_like(steps)
    turn = 1.0
    if theta is not None:
        vmat = np.stack((vmat.real, -vmat.imag), axis=1).reshape(-1, rows)
        turn = complex(math.cos(theta), -math.sin(theta))
        lhs = ucols.view(float)
    out = np.empty((width, rows), dtype=vmat.dtype)

    span = CHUNK_COLS * CHUNK_COLS       # columns per group of heads
    for col in range(0, n_cols, CHUNK_COLS):
        if col % span == 0:
            # heads t0 + c*rows*delta of the group's chunks, exact on the lattice
            cs = np.arange(col, min(col + span, n_cols), CHUNK_COLS, dtype=float)
            t_cs = grid.t0 + (cs * rows) * grid.delta
            heads = np.exp(-1j * phase_mod_two_pi(t_cs[:, None], omegas[None, :]))
            heads *= turn
        size = min(CHUNK_COLS, n_cols - col)
        np.multiply(steps[:size], heads[col % span // CHUNK_COLS],
                    out=ucols[:size])
        chunk = np.matmul(lhs[:size], vmat, out=out[:size])
        j0 = col * rows
        yield j0, chunk.reshape(-1)[:grid.count - j0]


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """ES kernel exp(beta (sqrt(1 - z^2) - 1)) for |z| <= 1.

    Written as exp(-beta z^2 / (1 + sqrt(1 - z^2))), which has no
    cancellation near z = 0; rounding can put z a few ulps past 1, where
    the kernel is ~e^-beta either way.
    """
    root = np.sqrt(np.maximum((1.0 - z) * (1.0 + z), 0.0))
    return np.exp(-ES_BETA * z * z / (1.0 + root))


def _fine_position(delta: float, omegas: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel centres u = delta * omegas * n / (2 pi) on a fine grid of
    n = 3 * 2^k points, as a double-double (u_hi, u_lo).

    x = delta * omegas is the exact two-product x_hi + x_lo, 1/(2 pi) a
    double-double; the factor 3 goes through a second two-product and
    2^k is exact, so u_hi + u_lo carries u to ~2^-100 relative.  Rounding
    u to one double shifts output k's phase by up to 2 pi k ulp(u)/n.
    """
    scale = n // 3
    x_hi, x_lo = _two_product(delta, omegas)
    p, e = _two_product(x_hi, _INV_TWO_PI_HI)
    lo = e + x_hi * _INV_TWO_PI_LO + x_lo * _INV_TWO_PI_HI
    hi, e = _two_product(p, 3.0)
    return scale * hi, scale * (e + 3.0 * lo)


def _nufft_plan(delta: float, omegas: np.ndarray, span: int, *,
                real: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                             tuple[np.ndarray, ...]]:
    """Spreading slots and weights, deconvolution factors and mirrored
    entries for one pass.

    A transform has span outputs on a fine grid of n = 3 span / 2 points,
    span a power of two.  slots (int32) and weights are (primes, ES_WIDTH):
    amplitude c_p adds c_p * weight to the complex fine-grid point at index
    slot.  Each weight carries (-1)^m, m its fine index, so output k of
    either grid's FFT sits at index n/2 + k.  real=True gives those of the
    Hermitian half grid (_half_grid_spread), whose few mirrored entries,
    (prime, slot, weight) arrays, add conj(c_p) * weight instead; those
    arrays are empty for the full grid.
    The factors divide output k in [-span/2, span/2), stored at
    k + span/2 as the output's dtype; they are 1/psi_hat (_es_transform).
    """
    n = 3 * span // 2
    u_hi, u_lo = _fine_position(delta, omegas, n)
    base = np.floor(u_hi)
    frac = (u_hi - base) + u_lo
    offsets = np.arange(1 - ES_WIDTH // 2, ES_WIDTH // 2 + 1)
    kern = _es_kernel((offsets - frac[:, None]) * (2.0 / ES_WIDTH))
    base = base.astype(np.int64) % n
    idx = base[:, None] + offsets
    kern[idx % 2 == 1] *= -1.0          # (-1)^m: output k at index n/2 + k
    # the rows whose kernel wraps past 0 or n, or on the half grid reaches
    # n/2 (past it, fine indices are mirrored)
    near = np.flatnonzero((base < ES_WIDTH)
                          | (base >= (n // 2 if real else n) - ES_WIDTH))
    idx[near] %= n
    mirrored = (np.empty(0, int), np.empty(0, int), np.empty(0))
    if real:
        mirrored = _half_grid_spread(idx, kern, n, near)
    slots = idx.astype(np.int32)

    psi_hat = _es_transform(span)
    # the output's dtype: a cast to complex takes a 128 KB buffer per call
    deconv = np.empty(span, float if real else complex)
    np.divide(1.0, psi_hat[:0:-1], out=deconv[:span // 2])
    np.divide(1.0, psi_hat[:-1], out=deconv[span // 2:])
    return slots, kern, deconv, mirrored


def _es_transform(span: int) -> np.ndarray:
    """psi_hat(k/n) for k = 0 .. span/2 on the fine grid of n = 3 span / 2
    points, from ES_NODES/2 Gauss-Legendre nodes: within ~4e-15 of the
    exact transform at every k.

    psi_hat(k/n) = W int_0^1 phi(z) cos(k theta_z) dz, theta_z = pi W z / n,
    even in k and z, so only the nonnegative half of the nodes.  By angle
    addition, cos((qR + r) theta) = cos(qR theta) cos(r theta)
    - sin(qR theta) sin(r theta): 2 (Q + R) cosines per node, not span/2,
    contracted by einsum, not a matrix product (a threaded BLAS would
    wake a helper thread that spins on the core the pool's workers need).
    The terms are as large as psi_hat(0), so double rounding leaves
    ~eps |g|_2 absolute in each sum: under 2e-15 of psi_hat in the first
    3/4 of the q rows, but up to 2e-14 in the last quarter, where
    psi_hat falls from 7% to 0.7% of psi_hat(0).  Those rows run in long
    double (80 bits on x86; a platform whose long double is a double
    keeps the 2e-14 there).
    """
    n = 3 * span // 2
    nodes, wts = (a[ES_NODES // 2:] for a in np.polynomial.legendre.leggauss(ES_NODES))
    count = span // 2 + 1
    rows = math.isqrt(count - 1) + 1
    q_rows = -(-count // rows)
    psi_hat = np.empty((q_rows, rows))
    for dtype, qs in ((np.float64, slice(0, 3 * q_rows // 4)),
                      (np.longdouble, slice(3 * q_rows // 4, q_rows))):
        z = nodes.astype(dtype)
        theta = z * ((dtype(math.pi) + dtype(_PI_LO)) * ES_WIDTH / n)
        q = np.arange(q_rows)[qs, None] * (rows * theta)
        r = np.arange(rows)[:, None] * theta
        g = ES_WIDTH * wts.astype(dtype) * _es_kernel(z)
        outer = np.concatenate((np.cos(q) * g, -np.sin(q) * g), axis=1)
        inner = np.concatenate((np.cos(r), np.sin(r)), axis=1)
        psi_hat[qs] = np.einsum("qz,rz->qr", outer, inner)
    return psi_hat.reshape(-1)[:count]


def _half_grid_spread(idx: np.ndarray, kern: np.ndarray, n: int,
                      near: np.ndarray) -> tuple[np.ndarray, ...]:
    """Turn the fine indices idx and weights kern, in place, into the
    slots and weights that spread conjugate rotated amplitudes
    c_p = conj(b_p) straight into the n/2 + 1 slots of a Hermitian half
    grid, and return the mirrored entries; only the rows in near have a
    fine index at 0, n/2 or past n/2.

    Re sum_m g_m e^{-2 pi i k m/n}, g the fine grid of the b_p, is the
    real inverse transform of H_m = (c_m + conj(c_{n-m}))/2 with c =
    conj(g), halved in neither end slot (0 and n/2, whose imaginary parts
    an inverse real FFT discards).  So a fine index m <= n/2 adds
    c_p kern / 2 to slot m, and one past n/2 adds conj(c_p) kern / 2 to
    slot n - m, no fold pass needed.  kern arrives with the plan's (-1)^m
    signs.  Halving is exact, so each slot sum is that of the complex
    fine grid up to rounding order.

    The mirrored entries, kernels across n/2 (x_p near pi, past the
    spacing rule) or wrapped past 0 (x_p within ES_WIDTH/2 fine points of
    it: 5 at TGrid.for_span(1e6, 1e4, refine=1024)), come back as (prime,
    slot, weight) arrays, with weight 0 in their place in the main table.
    """
    weights = np.multiply(kern, 0.5, out=kern)
    rows = idx[near]
    slot = np.minimum(rows, n - rows)
    part = weights[near]
    part[(slot == 0) | (slot == n // 2)] *= 2.0
    r, c = np.nonzero(rows > n // 2)
    mirrored = (near[r], slot[r, c], part[r, c])
    part[r, c] = 0.0
    weights[near] = part
    idx[near] = slot
    return mirrored


def _pool_workers() -> int:
    """Threads for the NUFFT blocks: one per CPU this process may run on,
    at most MAX_POOL_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), MAX_POOL_WORKERS)
    return min(os.cpu_count() or 1, MAX_POOL_WORKERS)


def _nufft_buffers(primes: int, n: int, real: bool) -> tuple[np.ndarray, ...]:
    """One worker's buffers for a pass: its complex fine grid (n/2 + 1
    points for the half grid, n for the full one), the spread values and
    the amplitudes of one chunk of SPREAD_CHUNK primes."""
    chunk = min(SPREAD_CHUNK, primes)
    return (np.empty(n // 2 + 1 if real else n, dtype=complex),
            np.empty((chunk, ES_WIDTH), dtype=complex), np.empty(chunk, dtype=complex))


def _spread(head: np.ndarray, step: np.ndarray, plan: tuple,
            held: tuple[np.ndarray, ...]) -> np.ndarray:
    """The held fine grid, zeroed, with the amplitudes c_p = head * step
    spread in by one np.add.at per chunk of SPREAD_CHUNK primes, the values
    written through the held buffer's .real and .imag views (complex times
    real weights would take numpy's 128 KB cast buffer per call)."""
    slots, weights, _, mirrored = plan
    fine, vals, amp = held
    fine.fill(0.0)
    chunk = len(amp)
    for i in range(0, len(head), chunk):
        m = min(chunk, len(head) - i)
        c = np.multiply(head[i:i + m], step[i:i + m], out=amp[:m])
        wts, v = weights[i:i + m], vals[:m]
        np.multiply(c.real[:, None], wts, out=v.real)
        np.multiply(c.imag[:, None], wts, out=v.imag)
        np.add.at(fine, slots[i:i + m].reshape(-1), v.reshape(-1))
    rows, s, wts = mirrored
    np.add.at(fine, s, np.conj(head[rows] * step[rows]) * wts)
    return fine


def _nufft_transform(head: np.ndarray, step: np.ndarray, size: int, plan: tuple,
                     held: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """One transform of size <= span points from its amplitudes head *
    step, as a view into the ring slot out: Z for a complex slot of span
    points, P = Re Z for a real one of n doubles.  They spread into the
    held fine grid, np.fft.fft runs in place (or np.fft.irfft of the half
    grid into out), and outputs k at n/2 + k times deconv go into out.
    Pure numpy on arrays no other thread writes, so any thread may run
    it; numpy's FFT releases the GIL.
    """
    deconv = plan[2]
    span = deconv.size
    n, h = 3 * span // 2, size // 2
    outputs = slice(n // 2 - h, n // 2 - h + size)
    fine = _spread(head, step, plan, held)
    if out.dtype == complex:
        out = out[:size]
        np.fft.fft(fine, out=fine)
    else:
        fine = np.fft.irfft(fine, n, norm="forward", out=out)
        out = out[outputs]
    return np.multiply(fine[outputs], deconv[span // 2 - h:span // 2 - h + size],
                       out=out)


def _nufft_amplitudes(omegas: np.ndarray, w: np.ndarray, grid: TGrid, span: int,
                      theta: float | None) -> Iterator[tuple[int, int, np.ndarray,
                                                             np.ndarray]]:
    """(j0, size, head, step) per transform of the pass, in j order: its
    amplitudes are head * step, a_p = w_p e^{-i t_c omega_p} for theta
    None, else conj(e^{-i theta} a_p), which spread into the half grid.

    A full transform i = g G + r (span points, G = NUFFT_GROUP) is
    centred at c = j0 + span/2, so t_c is the centre of transform g G
    plus r span delta.  head is e^{-i theta} w e^{-i t omega} (or its
    conjugate) at that first centre, one exact phase per group, and step
    is row r of the table e^{-i r span delta omega} (or its conjugate),
    its G rows reduced once per pass; row 0 is exactly 1.  A short last
    transform is centred on its own points, with its own exact phase as
    head and row 0 as step.
    """
    sign = -1j if theta is None else 1j
    tw = w if theta is None else w * complex(math.cos(theta), math.sin(theta))

    def turned(phase):                  # tw e^{sign phase}, one fresh array
        e = np.multiply(phase, sign)
        return np.multiply(np.exp(e, out=e), tw, out=e)

    group = max(1, min(NUFFT_GROUP, grid.count // span))
    lag = np.arange(group, dtype=float)[:, None] * (span * grid.delta)
    steps = np.multiply(phase_mod_two_pi(lag, omegas[None, :]), sign)
    np.exp(steps, out=steps)
    for i, j0 in enumerate(range(0, grid.count, span)):
        size = min(span, grid.count - j0)
        if size < span:
            t_c = grid.t(j0 + size // 2)
            yield j0, size, turned(phase_mod_two_pi(t_c, omegas)), steps[0]
            continue
        if i % group == 0:
            head = turned(phase_mod_two_pi(grid.t(j0 + span // 2), omegas))
        yield j0, size, head, steps[i % group]


def _nufft_blocks(omegas: np.ndarray, w: np.ndarray, grid: TGrid,
                  theta: float | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The NUFFT path of iter_poly_blocks: one type-1 NUFFT per transform
    of span = 2 NUFFT_BLOCK points, yielded as two blocks.

    A transform of L <= span points starting at j0 is centred at grid
    point c = j0 + L//2, so t_c is exact and
    Z_{c+k} = sum_p a_p e^{-i k x_p} for k in [-L//2, L - L//2).
    theta None gives Z, otherwise Re e^{-i theta} Z from the half grid;
    either way transform i (_nufft_transform) writes into slot
    i mod (workers + 2) of one ring of output slots.

    The amplitudes' phases are reduced here, on the caller's thread
    (_nufft_amplitudes); the transforms run on a pool of _pool_workers()
    threads, each with its own buffers (_nufft_buffers, ~6 MB) held for
    the pass.  At most workers + 1 transforms are in flight while the
    consumer reads one, so no two live transforms share a slot, no
    worker waits for one, and a slot is written again only once the
    consumer has drawn past both blocks of its last transform.
    Transforms come back in j order, each bit-identical to a serial
    loop's.  Closing the generator cancels the transforms not yet
    started and joins the pool.
    """
    from concurrent.futures import ThreadPoolExecutor   # kept out of import (~4 ms)

    block = NUFFT_BLOCK
    span = 2 * block
    n = 3 * span // 2
    real = theta is not None
    plan = _nufft_plan(grid.delta, omegas, span, real=real)
    workers = _pool_workers()
    # one slot per transform in flight and one being read
    ring = np.empty((workers + 2, n if real else span), float if real else complex)
    held = threading.local()

    def transform(i, size, head, step):
        if not hasattr(held, "bufs"):       # the worker's first transform
            held.bufs = _nufft_buffers(omegas.size, n, real)
        return _nufft_transform(head, step, size, plan, held.bufs,
                                ring[i % len(ring)])

    pool = ThreadPoolExecutor(workers, thread_name_prefix="zel-nufft")
    try:
        jobs = ((j0, pool.submit(transform, i, size, head, step))
                for i, (j0, size, head, step) in enumerate(_nufft_amplitudes(
                    omegas, w, grid, span, theta)))
        ahead = deque(itertools.islice(jobs, workers + 1))
        while ahead:
            j0, job = ahead.popleft()
            z = job.result()
            ahead.extend(itertools.islice(jobs, 1))
            yield j0, z[:block]
            if z.size > block:
                yield j0 + block, z[block:]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# von Mangoldt partial sums


def lambda_sum(m: int, sigma: float, X: float, t: float,
               table: PrimeTable | None = None) -> complex:
    """sum_{2<=n<=X} Lambda(n) n^{-sigma-it} (log n)^{-m-1}.

    Prime powers p^k contribute k^{-m-1} (log p)^{-m} p^{-k(sigma+it)}.
    sigma may exceed 1 here (unlike PolySpec); useful as the sigma>1
    Dirichlet-series side of the iterated-integral checks.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if X < 2:
        return 0j
    if table is None or table.limit < X:
        table = PrimeTable.build(int(X))
    acc = 0j
    k = 1
    while 2.0 ** k <= X:
        n = table.upto(X ** (1.0 / k))
        if n > 0:
            lg = table.logs[:n]
            amp = np.exp(-k * sigma * lg) * lg ** (-float(m)) / float(k) ** (m + 1)
            acc += complex(np.dot(amp, np.exp(-1j * phase_mod_two_pi(t, k * lg))))
        k += 1
    return acc
