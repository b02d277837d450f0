"""Branch-tracked log zeta and its iterated integrals.

zeta(s) is evaluated by Euler-Maclaurin summation over n < 0.57|t| + 25,
with n^{-it} built per t from one grow-only table of the primes, their
double-double logs and each composite's least prime factor, filled one
dyadic block of n at a time.  The logs come from a vectorised table-driven
log, within 2^-128 |log p| of log p; its leading two doubles are a
40-digit Decimal log's, bit for bit, at every prime below 57,000,024
(all an admitted t can need).  The same table holds numpy's float log of
every n below its sieve limit, so the amplitudes n^-alpha of a call are
one product and one exp, exp(-alpha log n), in one fresh buffer, for a
point and a grid alike.  One head and one generator of B_2k terms,
each carried from the last by its ratio with its remainder bound, serve
one point and an (alpha x t) grid.  log zeta carries the branch fixed by
horizontal continuation from the far right half-plane, where the
Dirichlet series pins log zeta near 0: a walk at fixed t steps alpha
down from 10 to sigma, each step small enough that arg zeta moves by
under pi/2, and keeps every accepted point with the whole turns its
branch value adds to the principal log.  Any alpha the walk covers then
reads its branch off the nearest point above it.

s_0 takes many t at once: `_zeta_block` runs the same sum over an
(alpha x t) grid as one real GEMM, and `_s0_block` walks every t down one
alpha ladder, handing any t that fails a check of the walk to the per-t
walk.  zeta and the eta route stay per point.  On top of that sit

    eta_tilde(m, sigma, t) = (1/(m-1)!) Int_sigma^inf (a-sigma)^{m-1}
                              log zeta(a+it) da,

the real-axis constants c_m(sigma) = i^m J_m(sigma) and b_m =
Im c_m(1/2)/pi, and the iterated argument integrals

    s_m(t) = Int_0^t s_{m-1}(u) du + b_m,    s_0 = arg zeta(1/2+it)/pi,

whose m=1 case obeys the unconditional identity pi s_1(t) =
Re eta_tilde(1, 1/2, t).  As d/dt i^m eta_tilde(m, 1/2, t) =
i^{m-1} eta_tilde(m-1, 1/2, t), it extends to every m >= 1 as

    pi s_m(t) = Im(i^m eta_tilde(m, 1/2, t)) - sum_{k=1..m} d_k t^{m-k}/(m-k)!,
    d_k = -sgn(t) pi 2^{-k}/k! Im(i^{k+1}),

with d_k from the branch Im log zeta(a +- i0) = -+pi on (1/2, 1).  s_m
uses it for m >= 2; m = 1 stays a quadrature of s_0, an independent check.

The one accuracy setting splits the horizontal integral at S = max(3,
sigma): Gauss-Legendre panels on the left (one zeta evaluation per node
against the value's own branch walk), and the von Mangoldt series over
the prime powers n <= 1e5 on the right, with Int_S^inf (a-sigma)^{m-1}
n^-a da = e^{-S log n} sum_j (S-sigma)^{m-1-j} (m-1)! / ((m-1-j)!
(log n)^{j+1}).  Against a cut at 2e6 the cut moves the value by at most
3.5e-13, 9.0e-13 and 1.2e-12 for m = 1, 2, 3 (sigma = 1/2, t = 0: every
term positive).  The series' phases t log n for n <= 1000 come from the
double-double prime logs, so they stay exact at every t that
check_phase_range accepts.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import threading
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .prime_poly import (_two_product, check_phase_range, phase_mod_two_pi,
                         von_mangoldt_table)
from .quadrature import integrate_adaptive

_TWO_PI = 2.0 * math.pi
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)      # i^m, exact


class ZetaPoleError(ValueError):
    """zeta requested at (or a path crossing) the pole s = 1."""


class NearZeroOnPath(RuntimeError):
    """Branch continuation could not resolve a step: |zeta| collapsed or
    the argument moved too fast near alpha (a zero or the pole sits on or
    near the path)."""

    def __init__(self, alpha: float, t: float, detail: str = ""):
        super().__init__(
            f"branch walk unresolved near alpha={alpha:.6g} at t={t:.6g}"
            + (f": {detail}" if detail else ""))


class ZetaAccuracyWarning(UserWarning):
    """Certified Euler-Maclaurin remainder exceeded the working target."""


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta

def _bernoulli_over_factorial(count: int) -> list[float]:
    """a_k = B_{2k}/(2k)! for k = 1..count, exact rationals rounded once.

    From (x/2) cosh(x/2) = sinh(x/2) * (x/2) coth(x/2) at x^{2k}:
    sum_{j<=k} a_j / (4^{k-j} (2(k-j)+1)!) = 1/(4^k (2k)!), a_0 = 1.
    """
    a = [Fraction(1)]
    for k in range(1, count + 1):
        a.append(Fraction(1, 4 ** k * math.factorial(2 * k)) - sum(
            a[j] / (4 ** (k - j) * math.factorial(2 * (k - j) + 1)) for j in range(k)))
    return [float(x) for x in a[1:]]


_B2K = _bernoulli_over_factorial(30)

_EM_TARGET = 1e-10                  # certified remainder over |zeta| => warned
_EM_SETTLED = 1e-17                 # remainder under this of |zeta|: terms stop
_ZETA_FLOOR = 1e-12                 # |zeta| below this on a walk => flagged
_STEP_ARG = 0.5 * math.pi           # a walk step moves arg zeta by under this
_TURN_DRIFT = 1e-8                  # summed increments vs whole turns, at most
_MEMO_CAP = 1 << 20
# zeta, and so eta values (they need zeta(a + it) for every a >= sigma),
# stop here.  Left of the strip the main sum's terms n^-a outgrow zeta
# and cancel in double precision: against mpmath at t = 10, 2.8e-12 lost
# at a = -3, 5.9e-10 at -5 and 1.1e2 (relative) at -15, all unwarned.
ETA_SIGMA_MIN = -3.0


# ---------------------------------------------------------------------------
# prime logs

# a priori bound on |H + L + X - log p| / log p for `_table_logs`
_TABLE_LOG_ERR = 2.0 ** -128


def _two_sum(a, b):
    """(s, e) with s + e == a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_mul(ah, al, bh, bl):
    """(ah + al)(bh + bl) as a double-double, to about 2^-104 relative."""
    p, e = _two_product(ah, bh)
    e = e + (ah * bl + al * bh)
    hi = p + e
    return hi, e - (hi - p)


def _dd_add(ah, al, bh, bl):
    """(ah + al) + (bh + bl) as a double-double, for terms of one sign."""
    s, e = _two_sum(ah, bh)
    e = e + (al + bl)
    hi = s + e
    return hi, e - (hi - s)


@lru_cache(maxsize=1)
def _log_constants() -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The log table as a (3, 129) array, and 1/3, 1/5, ..., 1/13 as
    double-doubles; built on first use (about 0.3 ms), not at import."""
    table = np.array([float.fromhex(h) for h in _LOG_TABLE_HEX.split()])
    inverses = [(1 / k, float(Fraction(1, k) - Fraction(1 / k)))
                for k in range(3, 15, 2)]
    return table.reshape(129, 3).T, inverses


def _table_logs(primes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log p for integers 2 <= p < 2^44 as three doubles (H, L, X), with
    H + L + X within _TABLE_LOG_ERR |log p| of log p, L the nearest double
    to L + X and H the nearest to the sum unless it lies near a tie.

    Tang's table-driven log (ACM TOMS 16, 1990) carried in Dekker's
    double-double arithmetic (Numer. Math. 18, 1971).  Write p = m 2^e with
    m in [1, 2), take c = 1 + j/128 nearest m, and s = (m - c)/(m + c),
    |s| <= 2^-9, as three doubles: the quotient of two integers below
    2^53, each remainder exact.  Then

        log p = e log 2 + log c + 2s + 2s^3 P(s^2),  P(z) = sum_k z^k/(2k+3),

    with P in double-double to z^5 and log 2 and log c read as three
    doubles each.  The thirteen parts are summed exactly into two doubles
    and a third that carries the rounding, and split once more into
    (H, L, X).  The bound: 2s^3 P is under 2^-27.5 and off by at most
    27u^2 = 2^-101.2 relative (u = 2^-53: three double-double products at
    7u^2, the last Horner sum at 3u^2, the parts of s and 1/3 it drops at
    3u^2); the rest (the tail past z^5, the tables, the third double's
    sums) is under 2^-137.  That is 2^-128.8 absolute, under 2^-128 of
    log p >= log 2.  Against 60-digit logs the primes below 1e6 give at
    most 2^-135.3, and (H, L) is bit for bit the double-double of a
    40-digit Decimal log at all 3,394,436 primes below 57,000,024, every
    prime a t that check_phase_range admits can need.
    """
    table, inverses = _log_constants()
    p = np.asarray(primes, dtype=float)
    frac, e = np.frexp(p)
    e -= 1                                      # p = m 2^e, m = 2 frac
    j = np.rint(256.0 * frac) - 128.0           # c = 1 + j/128
    cp = np.ldexp(128.0 + j, e)                 # 128 c 2^e
    num, den = 128.0 * p - cp, 128.0 * p + cp   # s = num/den, both exact
    s = [num / den]
    rem = num
    for _ in range(2):                          # Dekker: rem - s_k den exact
        ph, pl = _two_product(s[-1], den)
        rem = (rem - ph) - pl
        s.append(rem / den)
    z = _dd_mul(s[0], s[1], s[0], s[1])
    q = inverses[-1]
    for inv in inverses[-2::-1]:
        q = _dd_add(*_dd_mul(*q, *z), *inv)
    w = _dd_mul(*_dd_mul(s[0], s[1], *z), *q)  # atanh s - s
    e = e.astype(float)
    t = table[:, j.astype(np.int64)]
    l2 = table[:, 128]
    a0, a1 = _two_product(e, l2[0])
    a2, a3 = _two_product(e, l2[1])
    hi = mid = low = 0.0
    for x in (a0, t[0], 2 * s[0], 2 * w[0], a1, a2, t[1], 2 * s[1],
              2 * w[1], a3, e * l2[2], t[2], 2 * s[2]):
        hi, x = _two_sum(hi, x)
        mid, x = _two_sum(mid, x)
        low = low + x
    hi, mid = _two_sum(hi, mid)
    lo, rest = _two_sum(mid, low)
    return hi, lo, rest


class _FactorTable:
    """Grow-only primes, their double-double logs and composite factors,
    and the float logs of every n below the sieve limit.

    The composites c are one (3, count) int array of (c, c // spf(c),
    spf(c)), ascending in c, with spf(c) the least prime factor.  The
    sieve limit doubles on growth (under 0.1 us per n), but a prime is
    logged only once it falls below a requested n, one `_table_logs` batch
    per growth (about 0.6 ms and 1 us per prime), and t often spans a
    narrow range.  The float logs of n (numpy's log, for the amplitudes
    n^-alpha) fill up to the sieve limit on the first request past them,
    only the new n logged.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._limit = 2
        self._primes = np.empty(0, dtype=np.int64)
        self._logs = np.empty((2, 0))
        self._composites = np.empty((3, 0), dtype=np.int64)
        self._log_n = np.empty(0)

    def _sieve_to(self, limit: int) -> None:
        spf = np.arange(limit, dtype=np.int64)
        for d in range(math.isqrt(limit - 1), 1, -1):   # least divisor last
            spf[d * d:: d] = d
        n = np.arange(limit, dtype=np.int64)
        self._primes = np.flatnonzero(spf == n)[2:]     # past 0 and 1
        c = np.flatnonzero(spf < n)
        self._composites = np.stack((c, c // spf[c], spf[c]))
        self._limit = limit

    def below(self, n: int):
        """(primes < n, their logs as (hi, lo) rows, composites < n)."""
        with self._lock:
            if self._limit < n:
                self._sieve_to(max(n, 2 * self._limit))
            count = int(np.searchsorted(self._primes, n))
            done = self._logs.shape[1]
            if count > done:
                logs = _table_logs(self._primes[done:count])[:2]
                self._logs = np.concatenate((self._logs, logs), axis=1)
            comp = self._composites
            return (self._primes[:count], self._logs[:, :count],
                    comp[:, :np.searchsorted(comp[0], n)])

    def log_n(self, n: int) -> np.ndarray:
        """log k for k = 1..n-1 as float64, read-only."""
        with self._lock:
            if self._limit < n:
                self._sieve_to(max(n, 2 * self._limit))
            done = len(self._log_n)
            if done < n - 1:                        # holds k < self._limit
                more = np.log(np.arange(done + 1, self._limit, dtype=float))
                self._log_n = np.concatenate((self._log_n, more))
                self._log_n.flags.writeable = False
            return self._log_n[:n - 1]


_factor_table = _FactorTable()


def _unit_power_columns(N: int, ts) -> np.ndarray:
    """u[n, ...] = n^{-i ts} for n = 1..N-1 (row 0 is 0), phase-exact; a
    scalar t gives a vector, a 1-D ts one column per t.  A t past
    check_phase_range for n = N-1 raises ValueError before any sieve.

    Primes get reduced phases from their double-double logs.  Composites
    are filled one dyadic block [2^e, 2^(e+1)) at a time: c // spf(c) <=
    c/2 and spf(c) <= sqrt(c) both lie below c's block, so each block is
    one gather, multiply and scatter of rows u[c // p] * u[p], and phase
    error stays at rounding level instead of growing like t * ulp(log n).
    The multiply is written out over real and imaginary parts, rounding
    like a scalar complex multiply (numpy's vectorised one may not).
    """
    ts = np.asarray(ts, dtype=float)
    u = np.empty((N,) + ts.shape, dtype=complex)
    u[0] = 0.0
    u[1] = 1.0
    if N > 2:
        t_max = float(np.max(np.abs(ts)))
        check_phase_range(t_max, math.log(N - 1), f"t={t_max:g}, n<={N - 1}")
        primes, (lhi, llo), comp = _factor_table.below(N)
        col = (-1,) + (1,) * ts.ndim
        u[primes] = np.exp(-1j * phase_mod_two_pi(
            ts, lhi.reshape(col), llo.reshape(col)))
        re, im = u.real, u.imag
        # block ends: the composites below 8, 16, ..., 2^bit_length(N) > N - 1
        ends = np.searchsorted(comp[0], 2 ** np.arange(3, N.bit_length() + 1))
        for lo, hi in itertools.pairwise([0, *ends.tolist()]):
            c, cof, p = comp[:, lo:hi]
            ar, ai, br, bi = re[cof], im[cof], re[p], im[p]
            re[c] = ar * br - ai * bi
            im[c] = ar * bi + ai * br
    return u


@lru_cache(maxsize=1)
def _unit_powers(N: int, t: float) -> np.ndarray:
    """u[n] = n^{-it} for n = 1..N-1 (u[0] = 0), read-only, phase-exact:
    `_unit_power_columns` at one t.  All zeta calls of one branch walk
    share t, hence the one-entry cache."""
    u = _unit_power_columns(N, t)
    u.flags.writeable = False
    return u


def _em_terms(t_abs: float) -> int:
    return int(0.57 * t_abs) + 25       # N: the main sum runs over n < N


def _em_head(s, alphas, u, N: int):
    """(sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2, N^{-s}) from u[n] =
    n^{-it}, n <= N, for a scalar s or an (A, T) grid (alphas an (A, 1)
    column): the amplitudes times u's (re, im) doubles, one real product.
    The amplitudes n^-alpha are exp(-alpha log n), one product and one exp
    in a single fresh buffer, from the factor table's held logs of n."""
    amps = np.multiply(_factor_table.log_n(N), -alphas)
    np.exp(amps, out=amps)
    main = (amps @ u[1:N].view(np.float64).reshape(N - 1, -1)).view(complex)
    npow = N ** -alphas * u[N]
    if isinstance(s, complex):      # numpy scalars are slower, and warn
        main, npow = complex(main[0]), complex(npow)
    return main + npow * N / (s - 1) + 0.5 * npow, npow


def _em_corrections(s, npow, N: int, alphas):
    """(T_k, |T_k|, R_k) for k = 1, 2, ... while `_B2K` (read per call)
    holds a_{k+1}: T_k = a_k (s)_{2k-1} N^{-s-2k+1}, a_k = B_2k/(2k)!,
    T_{k+1} = T_k (a_{k+1}/a_k)(s+2k-1)(s+2k)/N^2 (Rubinstein 2005, sec. 3),
    and R_k = |T_{k+1}| |s+2k+1|/(alpha+2k+1) bounds what T_1..T_k leave."""
    a = _B2K
    term = a[0] * s * npow / N
    for k in range(1, len(a)):
        j = 2 * k
        nxt = term * (a[k] / a[k - 1]) * ((s + (j - 1)) * (s + j)) / (N * N)
        rem = abs(nxt) * abs(s + (j + 1)) / (alphas + (j + 1))
        yield term, abs(term), rem
        term = nxt


def _em_zeta(sigma: float, t: float) -> complex:
    s = complex(sigma, t)
    N = _em_terms(abs(t))
    acc, npow = _em_head(s, sigma, _unit_powers(N + 1, t), N)
    prev = bound = math.inf
    for term, mag, rem in _em_corrections(s, npow, N, sigma):
        if mag > prev:
            break                                   # asymptotic tail turned
        acc += term
        prev, bound = mag, rem
        if bound < _EM_SETTLED * abs(acc):
            break
    if not bound <= _EM_TARGET * max(abs(acc), 1e-300):
        warnings.warn(
            f"certified remainder {bound:.2e} at s={s:.6g} exceeds target",
            ZetaAccuracyWarning, stacklevel=3)
    return acc


def _zeta_block(alphas, ts) -> tuple[np.ndarray, np.ndarray]:
    """zeta(alpha + it) over the grid alphas x ts, and where the certified
    remainder meets `_em_zeta`'s target; both (alphas, ts) arrays.

    `_em_zeta` on a whole grid, warning about nothing: N comes from the
    block's largest |t|, and a mask stops each point where `_em_zeta` would.
    """
    alphas = np.asarray(alphas, dtype=float)[:, None]
    ts = np.asarray(ts, dtype=float)
    N = _em_terms(float(np.max(np.abs(ts))))
    s = alphas + 1j * ts
    acc, npow = _em_head(s, alphas, _unit_power_columns(N + 1, ts), N)
    prev = bound = np.full(s.shape, math.inf)
    live = np.ones(s.shape, dtype=bool)
    for term, mag, rem in _em_corrections(s, npow, N, alphas):
        live &= ~(mag > prev)                       # asymptotic tail turned
        acc = np.where(live, acc + term, acc)
        prev = mag
        bound = np.where(live, rem, bound)
        live &= ~(bound < _EM_SETTLED * np.abs(acc))
        if not live.any():
            break
    return acc, bound <= _EM_TARGET * np.maximum(np.abs(acc), 1e-300)


_memo: dict[tuple[float, float], complex] = {}
_memo_lock = threading.Lock()


def zeta(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin; 1e-12 relative for Re s >= -1, |Im s| <= 2e4.

    Frozen mpmath values up to t = 19999.9 match to 6.9e-15 (6.1e-15
    relative, the zero at 14.13 aside), phases stay exact at any t
    (`_unit_powers`), and the pole raises.  The warned
    remainder bounds truncation only: left of Re s = -1 the terms n^-sigma
    cancel unwarned, up to 3e-9 relative off the zero at -2 (2.6e-9 at
    -2.95 + 0.2i); at Re s <= ETA_SIGMA_MIN = -3 zeta raises ValueError.
    """
    s = complex(s)
    if s == 1:
        raise ZetaPoleError("zeta pole at s = 1")
    if not s.real > ETA_SIGMA_MIN:
        raise ValueError(f"zeta wants Re s > {ETA_SIGMA_MIN:g}, got {s}: further "
                         "left its Euler-Maclaurin sum cancels away its digits")
    key = (s.real, s.imag)
    with _memo_lock:
        hit = _memo.get(key)
    if hit is not None:
        return hit
    val = _em_zeta(s.real, s.imag)
    with _memo_lock:
        if len(_memo) < _MEMO_CAP:
            _memo[key] = val
    return val


def zeta_memo_size() -> int:
    with _memo_lock:
        return len(_memo)


# ---------------------------------------------------------------------------
# branch continuation


_PANEL_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 40              # step halvings before a walk gives up


def _turns(z_from: complex, z_to: complex) -> tuple[complex, int]:
    """Principal log(z_to/z_from) and the whole turns it carries: the
    principal log of z_from plus 2 pi i k, continued by that increment,
    is the principal log of z_to plus 2 pi i (k + turns)."""
    inc = cmath.log(z_to / z_from)
    return inc, round((cmath.phase(z_from) + inc.imag - cmath.phase(z_to))
                      / _TWO_PI)


class BranchTracker:
    """One branch walk at fixed t, queryable at any alpha it has covered.

    The walk descends from alpha = 10 to any requested sigma, accepting a
    step only when the principal log-increment log(z_next/z_prev) has
    |Im| < pi/2 (halving otherwise), so no winding slips through.  Each
    accepted point is kept as (alpha, zeta, k), k the whole turns by which
    the branch there exceeds the principal log.  The branch value at any
    covered alpha is then principal log + 2 pi i k', where k' adds to k of
    the walk point at or above alpha the turns of the principal increment
    from that point: one zeta evaluation per query, none at a walk point.
    """

    def __init__(self, t: float):
        self.t = t
        z = self._zeta_at(10.0)
        self._walk = [(10.0, z, 0)]     # (alpha, zeta, turns), descending
        self._val_low = cmath.log(z)    # |log zeta(10+it)| < 2^-9: principal

    def _zeta_at(self, alpha: float) -> complex:
        try:
            z = zeta(complex(alpha, self.t))
        except ZetaPoleError:
            raise NearZeroOnPath(alpha, self.t, "pole on path") from None
        if not cmath.isfinite(z):
            raise NearZeroOnPath(alpha, self.t, "pole on path")
        if abs(z) < _ZETA_FLOOR:
            raise NearZeroOnPath(alpha, self.t, f"|zeta| = {abs(z):.2e}")
        return z

    def extend(self, sigma: float) -> None:
        """Walk the continuation down to sigma (no-op if already there)."""
        low, z_low, k = self._walk[-1]
        step = 0.5
        while low > sigma + 1e-15:
            sub = min(step, low - sigma)
            depth = 0
            while True:
                a_next = low - sub
                if a_next == low:           # sub under half an ulp: no progress
                    raise NearZeroOnPath(low, self.t, "step collapse")
                z_next = self._zeta_at(a_next)
                inc, turns = _turns(z_low, z_next)
                if abs(inc.imag) < _STEP_ARG:
                    break
                sub *= 0.5
                depth += 1
                if depth > _MAX_SUBDIVISIONS:
                    raise NearZeroOnPath(a_next, self.t, "step collapse")
            self._val_low += inc
            low, z_low, k = a_next, z_next, k + turns
            self._walk.append((low, z_low, k))
            step = sub * 2.0 if depth == 0 else sub

    def log_at(self, alpha: float) -> complex:
        """Branch value of log zeta(alpha + it); walks on below the walk."""
        if alpha < self._walk[-1][0] - 1e-12:
            self.extend(alpha)
        # the lowest walk point at or above alpha (the top one above 10)
        i = bisect.bisect_right(self._walk, -alpha, key=lambda p: -p[0])
        a_near, z_near, k = self._walk[max(i - 1, 0)]
        if a_near == alpha:
            z = z_near
        else:
            z = self._zeta_at(alpha)
            k += _turns(z_near, z)[1]
        val = cmath.log(z) + _TWO_PI * 1j * k
        if alpha <= self._walk[-1][0] + 1e-12:
            drift = abs(self._val_low - val)
            if drift > _TURN_DRIFT:
                raise NearZeroOnPath(
                    alpha, self.t, f"walk/turns mismatch {drift:.2e}")
        return val


def log_zeta_branched(sigma: float, t: float) -> complex:
    """log zeta(sigma + it) on the continuation branch from the right."""
    tr = BranchTracker(float(t))
    tr.extend(sigma)
    return tr.log_at(sigma)


# ---------------------------------------------------------------------------
# iterated integrals


_ALPHA_SPLIT = 3.0                  # 6 would take 3.4x the zeta calls
_TAIL_TERMS = 100_000               # the series runs over prime powers n <= this
_NEAR_TERMS = 1000                  # phases of n <= this from double-double logs


@lru_cache(maxsize=1)
def _tail_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Lambda(n), log n) over the prime powers n <= _TAIL_TERMS, ascending
    in n, and log n as double-double (hi, lo) rows for the 193 with
    n <= 1000; 9,700 terms, built on first use rather than at import.

    log p^k = k log p from the factor table's prime logs, k times the high
    part taken as an exact two-product.
    """
    vm = von_mangoldt_table(_TAIL_TERMS)
    ns = np.flatnonzero(vm)
    primes, (lhi, llo), _ = _factor_table.below(_NEAR_TERMS + 1)
    # (p^k, k, index of p) over the prime powers p^k <= 1000, ascending
    _, k, i = np.array(sorted(
        (p ** k, k, i) for i, p in enumerate(primes.tolist())
        for k in range(1, _NEAR_TERMS.bit_length()) if p ** k <= _NEAR_TERMS)).T
    hi, lo = _two_product(k.astype(float), lhi[i])
    return vm[ns], np.log(ns.astype(float)), np.array((hi, lo + k * llo[i]))


def _lambda_tail(m: int, sigma: float, t: float, split: float) -> complex:
    """Int_split^inf (a-sigma)^{m-1}/(m-1)! * log zeta(a+it) da, termwise.

    log zeta = sum Lambda(n)/(log n) n^{-a-it} converges absolutely for
    a >= split >= 3; each term integrates in closed form.  The sum stops
    at n = _TAIL_TERMS, at a cost under 1.2e-12 for m <= 3.  t is
    checked against the exact phase range before anything is reduced.
    """
    check_phase_range(t, math.log(_NEAR_TERMS), f"t={t:g}, n<={_NEAR_TERMS}")
    lam, lg, near_logs = _tail_table()
    d = split - sigma
    # sum_j d^{m-1-j} / ((m-1-j)! L^{j+2}),  j = 0..m-1
    inner = np.zeros_like(lg)
    for j in range(m):
        inner += d ** (m - 1 - j) / math.factorial(m - 1 - j) / lg ** (j + 2)
    amp = lam * np.exp(-split * lg) * inner
    # past n = 1000 the terms carry under 4.1e-8 of sum(amp) for any m and
    # sigma (the most at m = 1), so cos and sin there run 6x faster in
    # float32, each off by under 2.5e-7: under 1e-14 of sum(amp) in all
    k = near_logs.shape[1]
    near = phase_mod_two_pi(t, *near_logs)
    far = t * lg[k:]
    far = (far - _TWO_PI * np.round(far / _TWO_PI)).astype(np.float32)
    re = amp[:k] @ np.cos(near) + amp[k:] @ np.cos(far)
    im = amp[:k] @ np.sin(near) + amp[k:] @ np.sin(far)
    return complex(re, -im)


def eta_tilde(m: int, sigma: float, t: float) -> complex:
    """(1/(m-1)!) Int_sigma^inf (a-sigma)^{m-1} log zeta(a+it) da, m >= 1.

    Quadrature against the branch walk (panels to 1e-10 relative) up to
    max(3, sigma), the series over n <= 1e5 beyond (module docstring).
    For m = 0 the integral degenerates; use log_zeta_branched directly.
    Past m = 171, (m-1)! passes the double range: ValueError.
    """
    if m < 1:
        raise ValueError("m must be >= 1; m=0 is log_zeta_branched")
    if m > 171:
        raise ValueError(f"m must be <= 171, got {m}: (m-1)! passes the "
                         f"double range")
    split = max(_ALPHA_SPLIT, sigma)
    tail = _lambda_tail(m, sigma, t, split)
    if split <= sigma:
        return tail
    tr = BranchTracker(float(t))
    tr.extend(sigma)
    fac = 1.0 / math.factorial(m - 1)

    def integrand(alphas):
        return np.array([(a - sigma) ** (m - 1) * fac * tr.log_at(float(a))
                         for a in alphas])

    head = integrate_adaptive(
        integrand, sigma, split,
        rel_tol=_PANEL_REL_TOL, abs_tol=1e-14, max_panels=2000)
    return head + tail


def _power_log_integral(m: int, c: float, upper: float) -> float:
    """Int_0^upper u^{m-1} log|u - c| du, exact antiderivative.

    F(u) = ((u^m - c^m)/m) log|u-c| - (1/m) sum_j c^{m-1-j} u^{j+1}/(j+1);
    the (u^m - c^m) factor absorbs the log singularity at u = c.
    """
    def F(u):
        if u == c:
            poly_log = 0.0
        else:
            poly_log = (u ** m - c ** m) / m * math.log(abs(u - c))
        ser = sum(c ** (m - 1 - j) * u ** (j + 1) / (j + 1) for j in range(m))
        return poly_log - ser / m

    return F(upper) - F(0.0)


@lru_cache(maxsize=128)
def _j_constant(m: int, sigma: float) -> float:
    """J_m(sigma) = (1/(m-1)!) Int_sigma^inf (a-sigma)^{m-1} log|zeta(a)| da.

    Real-axis route: on [sigma, split] integrate log|(a-1) zeta(a)|
    (smooth and positive through the pole since (a-1) zeta(a) -> 1) and
    subtract the closed-form integral of log|a-1|; beyond split use the
    von Mangoldt tail at t = 0.
    """
    split = max(_ALPHA_SPLIT, sigma)
    tail = _lambda_tail(m, sigma, 0.0, split).real
    fac = 1.0 / math.factorial(m - 1)

    def smooth_one(alpha):
        g = (alpha - 1.0) * zeta(complex(alpha, 0.0)).real if alpha != 1.0 \
            else 1.0
        return (alpha - sigma) ** (m - 1) * fac * math.log(abs(g))

    head = integrate_adaptive(
        lambda alphas: np.array([smooth_one(float(a)) for a in alphas]),
        sigma, split, rel_tol=_PANEL_REL_TOL, abs_tol=1e-14,
        breakpoints=(1.0,) if sigma < 1.0 < split else (),
        max_panels=2000)
    pole_part = fac * _power_log_integral(m, 1.0 - sigma, split - sigma)
    return head - pole_part + tail


def c_constant(m: int, sigma: float) -> complex:
    """c_m(sigma) = i^m J_m(sigma), the real-axis iterated integral."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _I_POW[m % 4] * _j_constant(m, float(sigma))


def b_constant(m: int) -> float:
    """b_m = Im c_m(1/2) / pi; exactly 0 for even m by construction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return c_constant(m, 0.5).imag / math.pi if m % 2 else 0.0


# ---------------------------------------------------------------------------
# argument integrals s_m


def _s0(t: float) -> float:
    return log_zeta_branched(0.5, t).imag / math.pi


# the per-t walk's own first steps from alpha = 10, then finer below 4.5
_S0_LADDER = (10.0, 9.5, 8.5, 6.5, 4.5, 3.5, 3.0, 2.5, 2.0, 1.75, 1.5,
              1.25, 1.0, 0.875, 0.75, 0.625, 0.5)
_BLOCK_CELLS = 1 << 18              # n^{-it} entries per block, 4 MB


def _s0_block(ts) -> np.ndarray:
    """s_0 at every t of a 1-D array, all t down one alpha ladder at once.

    A t takes its ladder value only when it passes the checks of
    `BranchTracker`: every step moves arg zeta by under pi/2, |zeta|
    stays at or above the floor, and the summed increments agree with the
    whole turns to 1e-8; its remainders must also meet their target.  Any
    other t (t = 0 too) goes to `_s0`, which halves steps, warns or raises
    as it always has.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape)
    done = ts != 0.0
    idx = np.flatnonzero(done)
    if idx.size:
        # columns per block from the most rows (N + 1) any block can take
        width = max(1, _BLOCK_CELLS // (_em_terms(np.max(np.abs(ts))) + 1))
        for j in range(0, idx.size, width):
            part = idx[j:j + width]
            z, ok = _zeta_block(_S0_LADDER, ts[part])
            with np.errstate(divide="ignore", invalid="ignore"):
                inc = np.log(z[1:] / z[:-1])
                phase = np.angle(z)
                turns = np.round((phase[:-1] + inc.imag - phase[1:])
                                 / _TWO_PI).sum(axis=0)
                val = np.log(z[-1]) + _TWO_PI * 1j * turns
                drift = np.abs(np.log(z[0]) + inc.sum(axis=0) - val)
                done[part] = ((np.abs(inc.imag) < _STEP_ARG).all(axis=0)
                              & (np.abs(z) >= _ZETA_FLOOR).all(axis=0)
                              & ok.all(axis=0) & (drift <= _TURN_DRIFT))
            out[part] = val.imag / math.pi
    for i in np.flatnonzero(~done).tolist():
        out[i] = _s0(float(ts[i]))
    return out


_NEAR_ZERO = 1e-6


def _zero_ordinate(a: float, b: float) -> float:
    """The zero of zeta(1/2 + it) in the step [a, b]: a secant in t, where
    zeta(1/2 + it) is analytic (a complex t evaluates zeta at 1/2 - Im t
    + i Re t), from a and b until successive iterates agree to about
    1 ulp, each one inside the step."""
    t0, t1 = complex(a), complex(b)
    f0, f1 = (zeta(complex(0.5 - t.imag, t.real)) for t in (t0, t1))
    for _ in range(60):
        dt = f1 * (t1 - t0) / (f1 - f0) if f1 != f0 else 0.0
        t0, t1, f0 = t1, t1 - dt, f1
        if not abs(t1 - 0.5 * (a + b)) <= 0.5 * (b - a):
            break
        if abs(dt) <= 2.0 * math.ulp(b):
            return t1.real
        f1 = zeta(complex(0.5 - t1.imag, t1.real))
    raise RuntimeError(f"secant on the step [{a:.17g}, {b:.17g}] did not "
                       f"settle inside it (last t = {t1:.6g})")


def _zero_ordinates(t_hi: float) -> list[float]:
    """Ordinates of the zeros of zeta(1/2 + it) in (0, t_hi), ascending:
    one scan of s_0 on the lattice 0.02 k, past t_hi, flags each step
    where s_0 moves by over 1/2, which must be a simple zero's +1, and
    `_zero_ordinate` locates that zero."""
    us = 0.02 * np.arange(1, int(t_hi / 0.02) + 2)
    jumps = np.diff(_s0_block(us))
    zeros = []
    for i in np.flatnonzero(np.abs(jumps) > 0.5).tolist():
        a, b = float(us[i]), float(us[i + 1])
        if round(jumps[i]) != 1:
            raise RuntimeError(f"s_0 moves by {jumps[i]:.3f} on the step "
                               f"[{a:.17g}, {b:.17g}], not by +1")
        zeros.append(_zero_ordinate(a, b))
    return [g for g in zeros if g < t_hi]


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """np.unique(x) for a 1-D float array: sorted, equal neighbours (0.0
    and -0.0 among them) kept once.  np.unique's first call imports
    numpy.ma, about 17 ms."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _s1(ts: np.ndarray) -> np.ndarray:
    """s_1 at every t of a 1-D array in one cumulative pass: the zero
    ordinates up to the largest |t| are located once, and s_0, smooth
    between them, is integrated in panels between the sorted edges {0,
    zero ordinates, requested |t|}.

    A panel ending within about 1e-9 of a zero would put Gauss nodes where
    |zeta| is under the walk's floor, so a |t| within _NEAR_ZERO of a zero
    g gives way to the edge g +- _NEAR_ZERO on its side; s_1 is linear
    between those two edges to _NEAR_ZERO^2/8 |s_0'|, about 1e-13 at t = 1e3.
    """
    ts = np.abs(ts)
    zeros = _zero_ordinates(float(ts.max(initial=0.0)) + _NEAR_ZERO)
    z = np.array([-np.inf, *zeros, np.inf])
    i = np.searchsorted(z, ts)
    g = np.where(ts - z[i - 1] < z[i] - ts, z[i - 1], z[i])
    near = np.abs(ts - g) < _NEAR_ZERO
    edges = _sorted_distinct(np.concatenate((
        [0.0], zeros, ts[~near],
        g[near] + np.copysign(_NEAR_ZERO, ts[near] - g[near]))))
    cum = np.cumsum([0.0] + [
        integrate_adaptive(_s0_block, lo, hi, rel_tol=_PANEL_REL_TOL,
                           abs_tol=1e-10, max_panels=2000)
        for lo, hi in itertools.pairwise(edges.tolist())])
    return np.interp(ts, edges, cum) + b_constant(1)


def _s_eta(m: int, t: float) -> float:
    """s_m(t) for m >= 2 through the eta identity."""
    if t == 0.0:
        return b_constant(m)
    poly = sum(-math.copysign(math.pi, t) * 0.5 ** k / math.factorial(k)
               * _I_POW[(k + 1) % 4].imag * t ** (m - k)
               / math.factorial(m - k) for k in range(1, m + 1))
    eta = _I_POW[m % 4] * eta_tilde(m, 0.5, t)
    return (eta.imag - poly) / math.pi


def s_m(m: int, t):
    """Iterated argument integral at t, a scalar (a float back) or a 1-D
    sequence (an array back); s_0 is arg zeta(1/2+it)/pi on the
    continuation branch, s_m = Int_0^t s_{m-1} + b_m for m >= 1.

    m = 0 walks every t down one block ladder (`_s0_block`).  m = 1
    integrates s_0 for all t in one pass (`_s1`): the zero ordinates,
    where s_0 jumps by +1, are located once by a secant on zeta(1/2 + it)
    and become quadrature panel edges.  m >= 2 comes from the eta
    identity (module docstring), one t at a time.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D sequence, "
                         f"got shape {ts.shape}")
    flat = ts.reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError(
            f"t must be finite, got {flat[~np.isfinite(flat)][0]}")
    if m == 0:
        if (flat == 0.0).any():
            raise NearZeroOnPath(1.0, 0.0, "pole on the t=0 path")
        vals = _s0_block(flat)
    elif m == 1:
        vals = _s1(flat)
    else:
        vals = np.array([_s_eta(m, u) for u in flat.tolist()])
    return float(vals[0]) if ts.ndim == 0 else vals


# log(1 + j/128) for j = 0..128 as three doubles each, every one rounded
# from what the ones before it leave of a 60-digit Decimal log; row 128 is
# log 2.  tests/test_zeta_core.py rebuilds it bit for bit.
_LOG_TABLE_HEX = """
    0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x1.fe02a6b106789p-8 -0x1.e44b7e3711ebfp-67 0x1.a567b6587df34p-121
    0x1.fc0a8b0fc03e4p-7 -0x1.83092c59642a1p-62 -0x1.52414fc416fc2p-116
    0x1.7b91b07d5b11bp-6 -0x1.5b602ace3a510p-60 0x1.dcd4f102a521dp-118
    0x1.f829b0e783300p-6 0x1.33e3f04f1ef23p-60 -0x1.814544147acc9p-114
    0x1.39e87b9febd60p-5 -0x1.5bfa937f551bbp-59 0x1.c8d57ae1e11bdp-114
    0x1.77458f632dcfcp-5 0x1.18d3ca87b9296p-59 0x1.63c9bf701b2a9p-116
    0x1.b42dd711971bfp-5 -0x1.eb9759c130499p-60 -0x1.6b5431d9cbf04p-116
    0x1.f0a30c01162a6p-5 0x1.85f325c5bbacdp-59 -0x1.0ece597165991p-113
    0x1.16536eea37ae1p-4 -0x1.79da3e8c22cdap-60 -0x1.b925bd6fa5998p-116
    0x1.341d7961bd1d1p-4 -0x1.b599f227becbbp-58 -0x1.15fbcbe26b491p-113
    0x1.51b073f06183fp-4 0x1.a49e39a1a8be4p-58 0x1.584bc9c7e09bcp-112
    0x1.6f0d28ae56b4cp-4 -0x1.906d99184b992p-58 -0x1.bf31af3e109afp-112
    0x1.8c345d6319b21p-4 -0x1.4a697ab3424a9p-61 -0x1.e547ecfe0df94p-115
    0x1.a926d3a4ad563p-4 0x1.942f48aa70ea9p-58 0x1.8f353ecfc45dap-113
    0x1.c5e548f5bc743p-4 0x1.5d617ef8161b1p-60 0x1.da7659abe370ep-114
    0x1.e27076e2af2e6p-4 -0x1.61578001e0162p-60 0x1.55db94ebc4018p-116
    0x1.fec9131dbeabbp-4 -0x1.5746b9981b36cp-58 -0x1.c4016e1d457eep-112
    0x1.0d77e7cd08e59p-3 0x1.9a5dc5e9030acp-57 -0x1.71dbd9a581398p-111
    0x1.1b72ad52f67a0p-3 0x1.483023472cd74p-58 -0x1.81887026f66adp-112
    0x1.29552f81ff523p-3 0x1.301771c407dbfp-57 -0x1.977b021b7c784p-111
    0x1.371fc201e8f74p-3 0x1.de6cb62af18a0p-58 -0x1.a2fc19b24ab16p-113
    0x1.44d2b6ccb7d1ep-3 0x1.9f4f6543e1f88p-57 -0x1.f3be9a8337458p-111
    0x1.526e5e3a1b438p-3 -0x1.746ff8a470d3ap-57 0x1.a6dbcc63b5444p-111
    0x1.5ff3070a793d4p-3 -0x1.bc60efafc6f6ep-58 -0x1.1406554719540p-113
    0x1.6d60fe719d21dp-3 -0x1.caae268ecd179p-57 -0x1.c825cda7da31dp-114
    0x1.7ab890210d909p-3 0x1.be36b2d6a0608p-59 0x1.91ff852536204p-117
    0x1.87fa06520c911p-3 -0x1.bf7fdbfa08d9ap-57 -0x1.0a5aa8fb49481p-112
    0x1.9525a9cf456b4p-3 0x1.d904c1d4e2e26p-57 -0x1.89d9afa096184p-111
    0x1.a23bc1fe2b563p-3 0x1.93711b07a998cp-59 0x1.3f1f8db36c599p-114
    0x1.af3c94e80bff3p-3 -0x1.398cff3641985p-58 -0x1.a262591d1968bp-114
    0x1.bc286742d8cd6p-3 0x1.4fce744870f55p-58 -0x1.e1d3c235b937cp-115
    0x1.c8ff7c79a9a22p-3 -0x1.4f689f8434012p-57 0x1.a24ae3b2f53a1p-111
    0x1.d5c216b4fbb91p-3 0x1.6e443597e4d40p-57 0x1.c3c6ce7a257f4p-113
    0x1.e27076e2af2e6p-3 -0x1.61578001e0162p-59 0x1.55db94ebc4018p-115
    0x1.ef0adcbdc5936p-3 0x1.48637950dc20dp-57 -0x1.eb052d7b3cbe3p-111
    0x1.fb9186d5e3e2bp-3 -0x1.caaae64f21acbp-57 -0x1.35f6dfd3ddd52p-111
    0x1.0402594b4d041p-2 -0x1.28ec217a5022dp-57 -0x1.0dddc4cf9a1f9p-111
    0x1.0a324e27390e3p-2 0x1.7dcfde8061c03p-56 0x1.c51bc06b5f7c1p-113
    0x1.1058bf9ae4ad5p-2 0x1.89fa0ab4cb31dp-58 -0x1.eb31a74640ec7p-116
    0x1.1675cababa60ep-2 0x1.ce63eab883717p-61 0x1.1f833e82521e1p-119
    0x1.1c898c16999fbp-2 -0x1.0e5c62aff1c44p-60 -0x1.e623be88a509bp-115
    0x1.22941fbcf7966p-2 -0x1.76f5eb09628afp-56 -0x1.a168b2a9642c4p-111
    0x1.2895a13de86a3p-2 0x1.7ad24c13f040ep-56 0x1.62d6a3aacbe58p-110
    0x1.2e8e2bae11d31p-2 -0x1.8f4cdb95ebdf9p-56 -0x1.864244294826fp-111
    0x1.347dd9a987d55p-2 -0x1.4dd4c580919f8p-57 0x1.ee510a580b3b3p-111
    0x1.3a64c556945eap-2 -0x1.c68651945f97cp-57 0x1.beb7a3cee7e03p-111
    0x1.404308686a7e4p-2 -0x1.0bcfb6082ce6dp-56 -0x1.9ea6f9f60989cp-110
    0x1.4618bc21c5ec2p-2 0x1.f42decdeccf1dp-56 -0x1.77d446996da00p-111
    0x1.4be5f957778a1p-2 -0x1.259b35b04813dp-57 0x1.1eb953458673dp-112
    0x1.51aad872df82dp-2 0x1.3927ac19f55e3p-59 0x1.1d4f4f357cbfbp-115
    0x1.5767717455a6cp-2 0x1.526adb283660cp-56 -0x1.7f83a3e5e6736p-111
    0x1.5d1bdbf5809cap-2 0x1.4236383dc7fe1p-56 0x1.59f380b4a6b43p-112
    0x1.62c82f2b9c795p-2 0x1.7b7af915300e5p-57 0x1.7391362aee92cp-113
    0x1.686c81e9b14afp-2 -0x1.ddea0f7f58e3dp-57 0x1.2c96f6f68e19dp-111
    0x1.6e08eaa2ba1e4p-2 -0x1.cfb1b39ca3a0fp-56 -0x1.0fce95182c66ap-110
    0x1.739d7f6bbd007p-2 -0x1.8c76ceb014b04p-56 -0x1.0d2a910f7918bp-111
    0x1.792a55fdd47a2p-2 0x1.f057691fe9ed7p-56 -0x1.fa980f34439f2p-110
    0x1.7eaf83b82afc3p-2 0x1.92ce979ed2950p-56 0x1.0dc5832ff2fdcp-110
    0x1.842d1da1e8b17p-2 0x1.24ec519784676p-56 0x1.a23c11851c7cep-110
    0x1.89a3386c1425bp-2 -0x1.29639dfbbf0fbp-56 0x1.6cfff18ca06d0p-110
    0x1.8f11e873662c7p-2 0x1.f85da755a61a3p-56 -0x1.9a18d00d0fc6fp-110
    0x1.947941c2116fbp-2 -0x1.16cc8bae0bbe4p-56 -0x1.515b58cf688d8p-110
    0x1.99d958117e08bp-2 -0x1.a2b6889dc3e72p-57 -0x1.16d1238da82edp-115
    0x1.9f323ecbf984cp-2 -0x1.a92e513217f5cp-59 0x1.0c0cfa41ff669p-113
    0x1.a484090e5bb0ap-2 0x1.5fe535b875a75p-57 -0x1.a6c6290af394ap-111
    0x1.a9cec9a9a084ap-2 -0x1.cadec02b436afp-56 -0x1.420f701b88eccp-111
    0x1.af1293247786bp-2 0x1.133844a15dc28p-58 0x1.87134125f21c2p-115
    0x1.b44f77bcc8f63p-2 -0x1.cd04495459c78p-56 -0x1.c437eb152cbdep-110
    0x1.b9858969310fbp-2 0x1.663ec53e23bc4p-56 -0x1.8437e3152e77fp-110
    0x1.beb4d9da71b7cp-2 -0x1.0f3c590a887cap-59 -0x1.b495a7c83dffcp-113
    0x1.c3dd7a7cdad4dp-2 0x1.cecf052dea69bp-56 0x1.82ed46395f605p-110
    0x1.c8ff7c79a9a22p-2 -0x1.4f689f8434012p-56 0x1.a24ae3b2f53a1p-110
    0x1.ce1af0b85f3ebp-2 0x1.edf4af2ab4267p-56 0x1.2710c64600598p-110
    0x1.d32fe7e00ebd5p-2 0x1.877b232fafa37p-56 -0x1.73aa590050815p-115
    0x1.d83e7258a2f3ep-2 0x1.41456e8bb2511p-56 0x1.d4a129983048fp-113
    0x1.dd46a04c1c4a1p-2 -0x1.0467656d8b892p-56 0x1.fe9f50684ce6cp-112
    0x1.e24881a7c6c26p-2 0x1.cbd8f45954a46p-58 0x1.b1500f7c5d938p-113
    0x1.e744261d68788p-2 -0x1.c825c90c344b9p-58 -0x1.2fed79c755684p-114
    0x1.ec399d2468cc0p-2 0x1.75cee53f35397p-58 -0x1.3dda340d7c50ap-118
    0x1.f128f5faf06edp-2 -0x1.328df13bb38c3p-56 0x1.d73d592445d0ap-110
    0x1.f6123fa7028acp-2 0x1.8515b0f2db341p-56 0x1.2195120a66058p-110
    0x1.faf588f78f31fp-2 -0x1.328260d8abca0p-57 -0x1.392b321d10e7bp-112
    0x1.ffd2e0857f498p-2 0x1.565f40d9321afp-56 0x1.23719bce9f534p-111
    0x1.02552a5a5d0ffp-1 -0x1.cb1cb51408c00p-56 -0x1.cb91b47473b3dp-112
    0x1.04bdf9da926d2p-1 0x1.97f304022c9dfp-55 0x1.a9b423911c3c4p-109
    0x1.0723e5c1cdf40p-1 0x1.395e58e2445bbp-55 -0x1.49a90b4515bdep-109
    0x1.0986f4f573521p-1 -0x1.1b8095ac02f01p-55 0x1.c089f89ad131cp-115
    0x1.0be72e4252a83p-1 -0x1.259da11330801p-55 0x1.a6d90d9beefcdp-110
    0x1.0e44985d1cc8cp-1 -0x1.22a3442d2d384p-58 0x1.a3f759ee145b4p-112
    0x1.109f39e2d4c97p-1 -0x1.0e09b27a4373ap-60 -0x1.b7d38320cdf03p-117
    0x1.12f719593efbcp-1 0x1.4c048c671f435p-55 0x1.6893b2757f501p-110
    0x1.154c3d2f4d5eap-1 -0x1.59c33171a6876p-55 0x1.53b4e8cc3cd07p-114
    0x1.179eabbd899a1p-1 -0x1.00e7c6417e0b4p-55 -0x1.e54e3904f3714p-109
    0x1.19ee6b467c96fp-1 -0x1.9d1a11443f10cp-56 -0x1.5477c38afc9eap-111
    0x1.1c3b81f713c25p-1 -0x1.0dac1c4c810e9p-55 0x1.f8efe9846f366p-109
    0x1.1e85f5e7040d0p-1 0x1.ef62cd2f9f1e3p-56 0x1.7cb9f293d205ep-110
    0x1.20cdcd192ab6ep-1 -0x1.b2bf0bc229014p-55 0x1.27a25206a44a1p-110
    0x1.23130d7bebf43p-1 -0x1.f48725e374d6ep-55 0x1.48e379bf983ebp-113
    0x1.2555bce98f7cbp-1 0x1.e021d6d6881e7p-56 0x1.084750a06eb30p-112
    0x1.2795e1289b11bp-1 -0x1.487c0c246978ep-57 -0x1.fe56c1467b5e6p-119
    0x1.29d37fec2b08bp-1 -0x1.bd1949a2d1982p-56 -0x1.28bcc0f82a9a6p-110
    0x1.2c0e9ed448e8cp-1 -0x1.1a158f3917586p-55 -0x1.dab7eb5720f7bp-109
    0x1.2e47436e40268p-1 0x1.0150861a4886bp-55 -0x1.db5a61ad75a6fp-110
    0x1.307d7334f10bep-1 0x1.fb590a1f566dap-57 -0x1.08f3fa47f6664p-111
    0x1.32b1339121d71p-1 0x1.902ab5b3d916bp-56 0x1.9c56e84cd18b7p-114
    0x1.34e289d9ce1d3p-1 0x1.6eb92d885ce4fp-57 -0x1.46d67110163eap-111
    0x1.37117b54747b6p-1 -0x1.d117edbdd9103p-56 -0x1.c1da9c99e4f60p-110
    0x1.393e0d3562a1ap-1 -0x1.58eef67f2483ap-55 0x1.c7b10b8be4f38p-111
    0x1.3b68449fffc23p-1 -0x1.41c484f9e9b26p-55 -0x1.7c524324c8d4ep-109
    0x1.3d9026a7156fbp-1 -0x1.6fef670bd4b62p-55 0x1.ed7013b2d2a96p-109
    0x1.3fb5b84d16f42p-1 0x1.6d3a754172aefp-55 -0x1.937b130cc534bp-112
    0x1.41d8fe84672aep-1 0x1.9192f30bd1806p-55 -0x1.0d58eede45763p-110
    0x1.43f9fe2f9ce67p-1 0x1.e9c9ee6d83b86p-55 0x1.6d8376ee985fdp-109
    0x1.4618bc21c5ec2p-1 0x1.f42decdeccf1dp-55 -0x1.77d446996da00p-110
    0x1.48353d1ea88dfp-1 0x1.cf57a2ecc07f4p-55 0x1.2c307bef9e0cep-110
    0x1.4a4f85db03ebbp-1 0x1.13dfa3d3761b6p-60 0x1.8b737b8c8ec58p-115
    0x1.4c679afccee3ap-1 -0x1.3a5c4c8b39e41p-55 0x1.8676c36226ef9p-109
    0x1.4e7d811b75bb1p-1 -0x1.8d3d9ea6e9ea9p-55 0x1.c34317af28812p-109
    0x1.50913cc01686bp-1 0x1.2f2ce96c2d5b1p-55 -0x1.2d0dc61275676p-112
    0x1.52a2d265bc5abp-1 -0x1.1883750ea4d0ap-57 -0x1.58412f6df095bp-112
    0x1.54b2467999498p-1 -0x1.5baaf5d2f09f4p-55 -0x1.a5dae8aa5423bp-110
    0x1.56bf9d5b3f399p-1 0x1.0471885cd8ff3p-55 -0x1.8c8faa739028fp-110
    0x1.58cadb5cd7989p-1 0x1.849792ec98458p-56 0x1.544f1806acad7p-110
    0x1.5ad404c359f2dp-1 -0x1.35955683f7196p-59 0x1.08b073c08af03p-117
    0x1.5cdb1dc6c1765p-1 -0x1.cc2470e8a3df4p-55 0x1.5ec04a15c651dp-109
    0x1.5ee02a9241675p-1 0x1.c358257f49082p-55 -0x1.0b39d60fb51b2p-112
    0x1.60e32f44788d9p-1 -0x1.ac1bb52fa589bp-56 0x1.50cd45f38dd6bp-110
    0x1.62e42fefa39efp-1 0x1.abc9e3b39803fp-56 0x1.7b57a079a1934p-111
"""
