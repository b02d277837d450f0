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
in blocks of NUFFT_BLOCK points.

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
[Re V; -Im V] is one real GEMM of half the flops, written into one
buffer per pass (fresh ~512 KB arrays per block cost ~260 minor page
faults each, as glibc trims the heap top and faults it back in).  Cost
O(primes * points).

NUFFT path (the Odlyzko-Schonhage idea as a type-1 nonuniform FFT).  A
block of up to NUFFT_BLOCK points centred at grid point c has
Z_{c+k} = sum_p a_p e^{-i k x_p} with a_p = w_p e^{-i t_c omega_p} from an
exact phase and x_p = delta*omega_p.  Each a_p is spread onto a 2x
upsampled periodic grid of n = 2 * NUFFT_BLOCK points
with the exponential-of-semicircle kernel of width ES_WIDTH
(Barnett-Magland-af Klinteberg, SISC 41, 2019), one numpy FFT follows,
and each output is divided by the kernel's Fourier transform.  The kernel
sits at u_p = x_p n/(2 pi) in fine-grid units, formed from the exact
two-product x_p = hi + lo in double-double arithmetic.  Rounding u_p
to a double adds up to 2 pi k ulp(u_p)/n to each phase, growing with |k|:
against the GEMM path that measured 1e-11 for u_p in plain doubles and
7e-11 for np.mod(-x_p, 2 pi) placement at sum w_p = 70, where the
double-double placement differs by ~7e-14.  Indices, kernel values and
deconvolution factors depend only on x_p, so they are built once per pass.
For the rotated real values P = Re e^{-i theta} Z the rotation rides in
the amplitudes, b_p = e^{-i theta} a_p, as it rides in U' on the GEMM
path, and P is the Hermitian case of the transform: the b_p spread
straight into the n/2 + 1 slots of a half grid, a fine index past n/2
mirrored to n - m with its imaginary weight negated (the plan builds
those slots and weights once), and one real-output FFT of n points
(np.fft.irfft) replaces the complex FFT, at half its work.  Those blocks
sit within ~7e-16 sum w_p of Re e^{-i theta} of the complex ones.
No step of the pass is a matrix product: one large enough for a threaded
BLAS wakes a helper thread that spins on a core the pool's workers need.
Cost O(points log NUFFT_BLOCK + primes * ES_WIDTH per block), the FFT
term halved for P.  The blocks run on a pool of one thread per CPU the
process may use, at most MAX_POOL_WORKERS (each adds ~10 MB of peak
memory), workers + 1 of them in flight: the caller's thread reduces each
block-centre phase and forms the amplitudes, a worker spreads, FFTs
(numpy's FFT releases the GIL) and deconvolves, and the blocks come back
strictly in j order.  Each block is the same sequence of numpy
operations on the same inputs as a serial loop's, so the stream is
bit-identical at every worker count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

SIEVE_LIMIT = 100_000_000       # hard cap for prime enumeration
NUFFT_MIN_PRIMES = 450          # prime count from which the NUFFT path beats GEMM
NUFFT_BLOCK = 1 << 16           # grid points per block on both paths (a power of two)
BLOCK_ROWS = 1024               # rows (consecutive grid points) per GEMM column
CHUNK_COLS = NUFFT_BLOCK // BLOCK_ROWS  # GEMM columns per yielded chunk
ES_WIDTH = 16                   # ES spreading kernel width, fine-grid points
ES_BETA = 2.30 * ES_WIDTH       # ES shape for 2x upsampling
ES_NODES = 64                   # Gauss-Legendre nodes for the kernel transform
MAX_POOL_WORKERS = 4            # NUFFT pool threads at most (~10 MB RSS each)

# three-part Cody-Waite split of 2 pi; k*C1 and k*C2 are exact for k < 2^29
_TWO_PI = 2.0 * math.pi
_CW_1 = float.fromhex("0x1.921fb40000000p+2")
_CW_2 = float.fromhex("0x1.4442d00000000p-22")
_CW_3 = float.fromhex("0x1.8469898cc5170p-46")
# 1/(2 pi) as a double-double
_INV_TWO_PI_HI = float.fromhex("0x1.45f306dc9c883p-3")
_INV_TWO_PI_LO = float.fromhex("-0x1.6b01ec5417056p-57")
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
            raise ValueError(f"m must be >= 0, got {self.m}")
        if not 0.5 <= self.sigma < 1.0:
            raise ValueError(f"sigma must be in [1/2, 1), got {self.sigma}")
        if not 3 <= self.X < math.inf:
            raise ValueError(f"X must be finite and >= 3, got {self.X}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


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

    t0 must sit on delta's 2^-k lattice, and (|t0| + count*delta) 2^k
    stay below 2^53: then every t_j is exact in double precision (see
    module docstring).  This is the one lattice rule for every grid.
    """

    t0: float
    count: int
    delta: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        # in exact rationals: den passes the double range below 2^-1023
        t0, delta = Fraction(self.t0), Fraction(self.delta)
        k = delta.denominator.bit_length() - 1
        if (t0 * delta.denominator).denominator != 1:
            raise ValueError(
                f"--T {self.t0!r} is off the 2^-{k} lattice of the grid spacing "
                f"{self.delta!r}: T must be a multiple of 2^-{k}")
        # then t0, j*delta and t0 + j*delta (j < count) are whole multiples
        # of 2^-k, fewer than 2^53 of them in magnitude: exact doubles
        if (abs(t0) + self.count * delta) * delta.denominator >= 2 ** 53:
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
        a grid TGrid rejects names refine too when refine > 1.
        """
        if not refine >= 1:
            raise ValueError(f"refine must be >= 1, got {refine}")
        if not T > 0:
            raise ValueError("T must be positive")
        delta = dyadic_floor(max_spacing(X) / refine)
        check_phase_range(2.0 * T + delta, math.log(X), f"T={T:g}, X={X:g}")
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
    and O(primes * ES_WIDTH + workers * NUFFT_BLOCK) on the NUFFT path,
    never O(primes * count).

    rotated=True yields float64 blocks of P = Re e^{-i theta} Z at
    theta = spec.theta instead, with e^{-i theta} folded in before any
    sum: one real GEMM on the GEMM path, one real-output FFT from a
    Hermitian half grid per block on the NUFFT path.  A rotated block is
    only valid until the next one is drawn, which may overwrite it in
    place; copy what must outlive it.  Complex blocks are fresh arrays.
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
    gives Z from a complex GEMM, a fresh array per chunk.  Otherwise
    e^{-i theta} rides in the heads, U' = e^{-i theta} U, and each chunk
    is Re e^{-i theta} Z from one real GEMM, [Re U', Im U'] @
    [Re V; -Im V], as U's interleaved doubles against V's rows
    interleaved to match, written into the one buffer of the pass.
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
    ucols = np.empty_like(steps)
    turn = 1.0
    if theta is not None:
        vmat = np.stack((vmat.real, -vmat.imag), axis=1).reshape(-1, rows)
        turn = complex(math.cos(theta), -math.sin(theta))
        out = np.empty((width, rows))

    span = CHUNK_COLS * CHUNK_COLS       # columns per group of heads
    for col in range(0, n_cols, CHUNK_COLS):
        if col % span == 0:
            # heads t0 + c*rows*delta of the group's chunks, exact on the lattice
            cs = np.arange(col, min(col + span, n_cols), CHUNK_COLS, dtype=float)
            t_cs = grid.t0 + (cs * rows) * grid.delta
            heads = np.exp(-1j * phase_mod_two_pi(t_cs[:, None], omegas[None, :]))
            heads *= turn
        size = min(CHUNK_COLS, n_cols - col)
        u = np.multiply(steps[:size], heads[col % span // CHUNK_COLS],
                        out=ucols[:size])
        if theta is None:
            chunk = u @ vmat
        else:
            chunk = np.matmul(u.view(float), vmat, out=out[:size])
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


def _nufft_plan(delta: float, omegas: np.ndarray, block: int, *,
                real: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spreading slots, kernel values and deconvolution factors for one pass.

    The per-prime frequencies are x = delta * omegas = x_hi + x_lo
    exactly; the fine grid has n = 2 * block points.  slots index the
    fine grid viewed as interleaved (re, im) doubles, so one real
    bincount spreads complex amplitudes; real=True gives the slots and
    (re, im) weights of the Hermitian half grid (_half_grid_spread).
    The factors divide output k in [-block/2, block/2), stored at
    k + block/2; they are 1/psi_hat from 32 Gauss-Legendre nodes, within
    ~2e-15 of the exact transform.
    """
    n = 2 * block
    x_hi, x_lo = _two_product(delta, omegas)
    # kernel centre u = x n / (2 pi) in fine-grid units, as a double-double;
    # n is a power of two, so scaling by it is exact
    p, e = _two_product(x_hi, _INV_TWO_PI_HI)
    u_hi = n * p
    u_lo = n * (e + x_hi * _INV_TWO_PI_LO + x_lo * _INV_TWO_PI_HI)
    base = np.floor(u_hi)
    frac = (u_hi - base) + u_lo
    offsets = np.arange(1 - ES_WIDTH // 2, ES_WIDTH // 2 + 1)
    kern = _es_kernel((offsets - frac[:, None]) * (2.0 / ES_WIDTH))
    idx = (base.astype(np.int64)[:, None] + offsets) % n
    if real:
        slots, kern = _half_grid_spread(idx, kern, n)
    else:
        slots = (2 * idx[:, :, None] + np.arange(2)).reshape(-1)

    # psi_hat(k/n) = W int_0^1 phi(z) cos(pi k W z / n) dz, even in k; the
    # integrand is even in z, so only the nonnegative half of the nodes.
    # einsum, not a matrix product: a (block/2 + 1) x 32 product is large
    # enough for a threaded BLAS to wake a helper thread, which then spins
    # on the core the pool's workers need.  Keep arg one 8 MB temporary:
    # freeing it raises glibc's dynamic mmap threshold, so the blocks'
    # 1-2.4 MB arrays are reused from the heap instead of being mapped and
    # faulted in afresh (built in small pieces instead, it cost a
    # 9,592-prime, 5.5M-point pass 10-16x the minor page faults)
    z, wts = (a[ES_NODES // 2:] for a in np.polynomial.legendre.leggauss(ES_NODES))
    k = np.arange(block // 2 + 1)
    arg = np.outer(k * (math.pi * ES_WIDTH / n), z)
    psi_hat = ES_WIDTH * np.einsum("kz,z->k", np.cos(arg, out=arg),
                                   wts * _es_kernel(z))
    inv = 1.0 / psi_hat
    return slots, kern, np.concatenate((inv[:0:-1], inv[:-1]))


def _half_grid_spread(idx: np.ndarray, kern: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots and (re, im) weights that spread rotated amplitudes b_p
    straight into the n/2 + 1 slots of a Hermitian half grid.

    Re sum_m g_m e^{-2 pi i k m/n}, g the fine grid of the b_p, is the
    real inverse transform of H_m = (c_m + conj(c_{n-m}))/2 with c =
    conj(g), halved in neither end slot (0 and n/2, whose imaginary parts
    an inverse real FFT discards).  So a fine index m <= n/2 adds
    conj(b_p) kern / 2 to slot m, and one past n/2 adds b_p kern / 2 to
    slot n - m: the mirror negates the imaginary weight, and no fold
    pass is needed.  Every weight also carries
    (-1)^m, which moves output k to index n/2 + k, so a block is one
    contiguous slice.  Halving and signs are exact, so each slot sum is
    that of the complex fine grid up to rounding order.

    weights is (primes, 2, ES_WIDTH), a row of re and a row of im weights
    per prime, so a block's product with its (re, im) amplitude pairs
    runs along rows; with the pairs innermost it took 4x as long.
    """
    # in place where it can be: each (primes x ES_WIDTH) temporary is
    # mapped afresh and faulted in page by page
    slots = np.empty((len(kern), 2, kern.shape[1]), dtype=np.int64)
    slot = np.subtract(n, idx, out=slots[:, 0])
    mirrored = slot < n // 2
    np.minimum(slot, idx, out=slot)
    end = (slot == 0) | (slot == n // 2)
    weights = np.empty(slots.shape)
    re, im = weights[:, 0], weights[:, 1]
    # (-1)^m: m = idx alternates in parity along each row
    np.multiply(kern, np.where(idx[:, :1] % 2, -0.5, 0.5), out=re)
    re[:, 1::2] *= -1.0
    re[end] *= 2.0
    np.negative(re, out=im)
    np.copyto(im, re, where=mirrored)
    np.multiply(slot, 2, out=slot)
    np.add(slot, 1, out=slots[:, 1])
    return slots.reshape(-1), weights


def _pool_workers() -> int:
    """Threads for the NUFFT blocks: one per CPU this process may run on,
    at most MAX_POOL_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), MAX_POOL_WORKERS)
    return min(os.cpu_count() or 1, MAX_POOL_WORKERS)


def _nufft_block(a: np.ndarray, size: int, slots: np.ndarray, kern: np.ndarray,
                 deconv: np.ndarray) -> np.ndarray:
    """Z over one block of size points from its amplitudes a: spread, FFT
    and deconvolve.  Pure numpy on arrays nothing else writes, so any
    thread may run it; numpy's FFT releases the GIL."""
    block = deconv.size
    n, h = 2 * block, size // 2
    fine = np.bincount(slots, (a[:, None] * kern).view(float).reshape(-1),
                       minlength=2 * n).view(complex)
    np.fft.fft(fine, out=fine)
    lo = block // 2 - h
    z = np.concatenate((fine[n - h:], fine[:size - h]))
    z *= deconv[lo:lo + size]
    return z


def _nufft_real_block(b: np.ndarray, size: int, slots: np.ndarray,
                      weights: np.ndarray, deconv: np.ndarray) -> np.ndarray:
    """P = Re Z over one block from rotated amplitudes b = e^{-i theta} a:
    spread into the half grid, one real-output FFT of n points, deconvolve.
    A view into the FFT's output; thread-safe as _nufft_block is."""
    block = deconv.size
    h = size // 2
    half = np.bincount(slots, (b.view(float).reshape(-1, 2, 1) * weights).reshape(-1),
                       minlength=2 * block + 2).view(complex)
    p = np.fft.irfft(half, 2 * block, norm="forward")[block - h:block - h + size]
    lo = block // 2 - h
    p *= deconv[lo:lo + size]
    return p


def _nufft_blocks(omegas: np.ndarray, w: np.ndarray, grid: TGrid,
                  theta: float | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The NUFFT path of iter_poly_blocks: one type-1 NUFFT per block.

    A block of L <= NUFFT_BLOCK points starting at j0 is centred at grid
    point c = j0 + L//2, so t_c is exact and
    Z_{c+k} = sum_p a_p e^{-i k x_p} for k in [-L//2, L - L//2).
    theta None gives Z (_nufft_block).  Otherwise the amplitudes are
    b_p = e^{-i theta} a_p, with e^{-i theta} from math as on the GEMM
    path, and each block is Re Z from the half grid (_nufft_real_block).

    The amplitudes of each block are formed here, on the caller's thread
    (every phase_mod_two_pi call stays on it), and the block runs on a
    pool of _pool_workers() threads with workers + 1 blocks in flight;
    blocks come back in j order, each bit-identical to a serial loop's.
    Closing the generator cancels the blocks not yet started and joins
    the pool.
    """
    from concurrent.futures import ThreadPoolExecutor   # ~4 ms kept out of import

    block = NUFFT_BLOCK
    real = theta is not None
    slots, kern, deconv = _nufft_plan(grid.delta, omegas, block, real=real)
    run = _nufft_real_block if real else _nufft_block
    turn = complex(math.cos(theta), -math.sin(theta)) if real else 1.0
    starts = range(0, grid.count, block)
    workers = _pool_workers()
    pool = ThreadPoolExecutor(workers, thread_name_prefix="zel-nufft")

    def submit(j0):
        size = min(block, grid.count - j0)
        a = w * np.exp(-1j * phase_mod_two_pi(grid.t(j0 + size // 2), omegas))
        if real:
            a *= turn
        return pool.submit(run, a, size, slots, kern, deconv)

    try:
        ahead = deque(map(submit, starts[:workers + 1]))
        for j0 in starts:
            z = ahead.popleft().result()
            nxt = j0 + (workers + 1) * block
            if nxt < grid.count:
                ahead.append(submit(nxt))
            yield j0, z
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
