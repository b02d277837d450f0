"""Moments of the prime polynomial by three independent routes.

For P(t) = Re e^{-i theta} sum_{p<=X} p^{-sigma-it} (log p)^{-m}, the k-th
moment (1/T) int_T^{2T} P(t)^k dt has a closed main term

    k! sum_{Omega(n)=k} f(n) g_X(n) n^{-sigma},

where f is the cosine-product mean (multiplicative, f(p^a) = 2^-a C(a, a/2),
zero on odd exponents) and g_X(p^a) = 1/(a! (log p)^{am}).  The sum is
k! times the w^k Taylor coefficient of the Bessel generating product
prod_{p<=X} I0(w p^-sigma (log p)^-m).  This module computes it exactly
from that product's I0 series cut at degree k, re-derives it as the
contour integral

    (k!/2 pi i) oint w^{-k-1} prod_{p<=X} I0(w p^-sigma (log p)^-m) dw,

and measures it empirically on a TGrid.  The three routes share no code
path past the prime table's weights (the exact route builds its own
series terms), so their agreement is a genuine cross-check.

Also here: the generating product itself in log form (with an analytic
prime-density tail for X past the sieve limit) and the trimmed exponential
moment that ties the product to a time average over {|Z(t)| <= W}.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .prime_poly import (NUFFT_BLOCK, PolySpec, PrimeTable, TGrid, _spec_arrays,
                         iter_poly_blocks, rotated_real)
from .quadrature import integrate_adaptive
from .special_fn import _i0_series, log_bessel_i0, log_i0_slope

__all__ = [
    "MomentResult",
    "exact_moment",
    "contour_moment",
    "empirical_moment",
    "bessel_product",
    "exp_moment_trimmed",
]

# limits of the exact and contour routes alike
MAX_CONTOUR_PRIMES = 100_000
MAX_CONTOUR_K = 170                 # 171! > 1.8e308 overflows a double

# working sets: complex entries per contour node chunk (4 MB), primes per
# log I0 batch of bessel_product, terms per dot product of a power sum
# (OpenBLAS splits a ddot past 10,000 terms over its threads, and the
# split moves its last bits with the thread count)
_CONTOUR_CELLS = 1 << 18
_HEAD_PRIMES = 8192
_DOT_TERMS = 8192

METHOD_EMPIRICAL = "empirical"
METHOD_EXACT = "exact_multiplicative"
METHOD_CONTOUR = "contour"


@dataclass(frozen=True)
class MomentResult:
    k: int
    value: float
    method: str
    err_estimate: float
    flags: tuple = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.method not in (METHOD_EMPIRICAL, METHOD_EXACT, METHOD_CONTOUR):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.err_estimate >= 0.0:
            raise ValueError("err_estimate must be >= 0")


def _check_budget(route: str, k: int, primes: int) -> None:
    """ValueError naming route past MAX_CONTOUR_K or MAX_CONTOUR_PRIMES."""
    if not 1 <= k <= MAX_CONTOUR_K:
        raise ValueError(
            f"{route} moments need 1 <= k <= {MAX_CONTOUR_K} (k! must fit in "
            f"a double), got k={k}")
    if primes > MAX_CONTOUR_PRIMES:
        raise ValueError(
            f"{primes} primes <= X exceeds the {route} budget {MAX_CONTOUR_PRIMES}")


# ---------------------------------------------------------------------------
# exact sum


def exact_moment(spec: PolySpec, k: int) -> MomentResult:
    """k! sum_{Omega(n)=k} f(n) g_X(n) n^{-sigma} as a Taylor coefficient.

    For even a, f(p^a) g_X(p^a) p^{-sigma a} = (w_p/2)^a / ((a/2)!)^2 with
    w_p = p^-sigma (log p)^-m, the x^a coefficient of I0(x w_p); odd a
    gives 0 on both sides.  So the sum is k! times the x^k coefficient of
    prod_p I0(x w_p), formed here as one product of the I0 series cut at
    degree k/2 in y = x^2.  Odd k is exactly zero.  err_estimate is 0
    (exact up to float rounding), independent of spec.theta by
    construction; a moment past the double range raises RuntimeError.

    The weights carry 2^e, 2^ek <= k! < 2^(e+1)k, an exact scaling that
    keeps the coefficient >= 4e-104 (p = 2's own term, as w_2 >= 1/2),
    where moment / k! would reach subnormals (1/170! ~ 1e-307).
    """
    table = PrimeTable.build(int(spec.X))
    _check_budget("exact", k, table.primes.size)
    if k % 2:
        return MomentResult(k=k, value=0.0, method=METHOD_EXACT, err_estimate=0.0)

    half = k // 2
    e = math.floor(math.log2(math.factorial(k)) / k)
    w = table.weights(spec.m, spec.sigma) * 2.0 ** e
    coef = np.zeros(half + 1)
    coef[0] = 1.0
    # inf or nan (0 * inf) past the double range is caught below
    with np.errstate(over="ignore", invalid="ignore"):
        # row p: (w_p/2)^{2j} / (j!)^2 for j = 0..k/2
        series = np.ones((w.size, half + 1))
        j = np.arange(1, half + 1)
        series[:, 1:] = np.cumprod(np.outer(0.25 * w * w, 1.0 / (j * j)), axis=1)
        for row in series:
            coef = np.convolve(coef, row)[:half + 1]
    value = math.ldexp(float(math.factorial(k)), -e * k) * float(coef[half])
    if not math.isfinite(value):
        raise RuntimeError(
            f"exact moment for k={k}, X={spec.X:g} is not finite: the moment "
            "passes the double range (max 1.798e+308)")
    return MomentResult(k=k, value=value, method=METHOD_EXACT, err_estimate=0.0)


# ---------------------------------------------------------------------------
# contour integration


def _saddle_radius(c: np.ndarray, k: int) -> float:
    """Solve R L'(R) = k, L(R) = sum_p log I0(R c_p), by Newton in s = log R.

    With x_p = R c_p and g(x) = x I1(x)/I0(x) (log_i0_slope), the excess
    f(s) = sum_p g(x_p) - k has f'(s) = sum_p (x_p^2 - g_p^2) > 0, from
    I1' = I0 - I1/x, and grows without bound.  R0 = max(k / sum c,
    sqrt(2k / sum c^2)) is below the root, as g(x) <= min(x, x^2/2), so
    it opens the bracket at any weight scale and the first iterate with
    f > 0 closes it; a Newton step leaving the bracket is replaced by
    bisection.
    """
    def excess(s: float) -> tuple[float, float]:
        x = math.exp(s) * c
        g = log_i0_slope(x)
        return float(np.sum(g)) - k, float(np.dot(x - g, x + g))

    with np.errstate(over="ignore"):    # sum c^2 = inf still bounds: R0 >= 0
        s = lo = math.log(max(k / float(np.sum(c)),
                              math.sqrt(2.0 * k / float(np.dot(c, c)))))
    hi = math.inf
    for _ in range(100):            # 6-9 steps from R0 in practice
        f, slope = excess(s)
        if f == 0.0:
            return math.exp(s)
        if f > 0.0:
            hi = s
        else:
            lo = s
        step = s - f / slope
        if abs(step - s) <= 1e-12:  # converging quadratically: R exact to roundoff
            return math.exp(step)
        s = step if lo < step < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"contour saddle solve for k={k} stalled near R={math.exp(s)}")


def _contour_sum(c: np.ndarray, k: int, radius: float, n_nodes: int) -> complex:
    """Trapezoid value of (k!/2 pi i) oint w^{-k-1} prod I0(w c_p) dw.

    The nodes go in chunks of at most _CONTOUR_CELLS node-prime entries
    (one node at least), so a chunk's series temporaries stay near 4 MB
    each at any X.  At X = 31 a chunk holds 23,831 nodes, and no k up to
    MAX_CONTOUR_K doubles past 2,720, so those sums are one chunk.
    """
    phis = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    node_chunk = max(1, _CONTOUR_CELLS // max(1, c.size))
    total = 0j
    for j0 in range(0, n_nodes, node_chunk):
        phi = phis[j0:j0 + node_chunk]
        z = (radius * np.exp(1j * phi))[:, None] * c[None, :]
        log_f = np.sum(np.log(_i0_series(z)), axis=1)
        total += complex(np.sum(np.exp(log_f - 1j * k * phi)))
    # k!/R^k exactly rounded: k! and R^k alone overflow past k ~ 150 at X = 31
    try:
        scale = float(Fraction(math.factorial(k)) / Fraction(radius) ** k)
    except OverflowError:           # the moment itself is past the double range
        scale = math.inf
    return scale * total / n_nodes


def contour_moment(spec: PolySpec, k: int, table: PrimeTable) -> MomentResult:
    """Moment via the circle integral of the I0 generating product.

    The radius solves the saddle condition R L'(R) = k; periodic
    trapezoid nodes double from max(64, 8k) until successive values agree
    to 1e-12 relative.  Odd k comes out at roundoff scale because the
    integrand is even in w.  A non-finite doubled sum (a moment past the
    double range) raises RuntimeError.
    """
    _, c = _spec_arrays(spec, table)
    _check_budget("contour", k, c.size)
    radius = _saddle_radius(c, k)
    flags = ()

    # roundoff floor of the quadrature sum, for the odd-k cancellation
    # case, in log form: the peak k! e^L(R) / R^k may pass the double range
    log_floor = (math.lgamma(k + 1) - k * math.log(radius) + math.log(1e-15)
                 + float(np.sum(log_bessel_i0(radius * c))))

    n_nodes = max(64, 8 * k)
    prev = _contour_sum(c, k, radius, n_nodes)
    while True:
        n_nodes *= 2
        cur = _contour_sum(c, k, radius, n_nodes)
        if not cmath.isfinite(cur):
            raise RuntimeError(
                f"contour sum for k={k}, X={spec.X:g} is not finite at "
                f"{n_nodes} nodes: the moment passes the double range "
                "(max 1.798e+308)")
        delta = abs(cur - prev)
        if delta <= 1e-12 * abs(cur) or math.log(delta) <= log_floor:
            break
        if n_nodes >= 1 << 17:
            flags = flags + ("node_limit",)
            break
        prev = cur
    return MomentResult(k=k, value=float(cur.real), method=METHOD_CONTOUR,
                        err_estimate=float(delta + abs(cur.imag)), flags=flags)


# ---------------------------------------------------------------------------
# empirical grid averages


def _pass_rows(spec: PolySpec, table: PrimeTable, grid: TGrid, reduce, *,
               rotated: bool = False) -> list[list]:
    """[reduce(Z) per block] for each pass of grid's half-spacing
    refinement (rotated: P = Re e^{-i theta} Z), first over grid, then
    over its midpoint grid.

    The refinement's points t0 + i delta/2 are the grid's own points t_j
    and their midpoints t_j + delta/2, so they come as two passes of the
    one kernel: over grid, then over TGrid(t0 + delta/2, count, delta).
    Each block is a view valid until the next is drawn (iter_poly_blocks),
    so reduce must not keep it; a pass's stream, and with it its output
    buffer, ends with its own list, before the next pass allocates one.
    ValueError unless the midpoint grid is exact: TGrid's rule, and
    t0 + delta/2 not rounded.
    """
    half = grid.delta / 2
    mids = TGrid(grid.t0 + half, grid.count, grid.delta)
    if Fraction(mids.t0) != Fraction(grid.t0) + Fraction(half):
        raise ValueError(f"--T {grid.t0!r} + {half!r} rounds: no exact midpoints")
    return [[reduce(z) for _, z in iter_poly_blocks(spec, table, g, rotated=rotated)]
            for g in (grid, mids)]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b, the exact sum (fsum) of dot products of at most _DOT_TERMS
    terms each (one np.vecdot over the full rows, one np.dot over the
    rest), so that no BLAS thread count moves a bit of it."""
    full = a.size - a.size % _DOT_TERMS
    parts = np.vecdot(a[:full].reshape(-1, _DOT_TERMS),
                      b[:full].reshape(-1, _DOT_TERMS)).tolist()
    parts.append(float(np.dot(a[full:], b[full:])))
    return math.fsum(parts)


def _power_sums(p: np.ndarray, ks: tuple,
                scratch: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """[sum p^k for k in ks].

    sum p^k is the dot product p^ceil(k/2) . p^floor(k/2) (np.sum(p) at
    k = 1), taken in rows (_dot).  The chain p^2 = np.square(p), then
    p^j = p^(j-1) p, keeps its two latest powers in the two scratch
    buffers, of at least p.size doubles each, which the caller reuses for
    every block: ceil(max(ks)/2) - 1 products per block and no new
    block-sized arrays at any k.
    """
    sums = {}
    lo, hi = None, p                    # p^(j-1), p^j
    for j in range(1, (max(ks) + 1) // 2 + 1):
        if j == 2:
            lo, hi = p, np.square(p, out=scratch[0][:p.size])
        elif j > 2:
            lo, hi = hi, np.multiply(hi, p, out=scratch[j % 2][:p.size])
        for k in (2 * j - 1, 2 * j):
            if k in ks:
                b = lo if k % 2 else hi     # None at k = 1
                sums[k] = float(np.sum(hi)) if b is None else _dot(hi, b)
    return [sums[k] for k in ks]


def empirical_moment(spec: PolySpec, table: PrimeTable, grid: TGrid,
                     ks) -> list[MomentResult]:
    """Grid averages of P(t)^k over the TGrid span, one result per k in ks.

    Two rotated kernel passes, over the grid's points and over their
    midpoints (_pass_rows), reduce each block to its power sums
    (_power_sums): the grid's average sums the first pass's rows, the
    half-spacing refinement's sums both passes' rows, each by fsum.  Each
    sum is the dot product, in rows of _DOT_TERMS, of two powers from a
    chain (a square, then products) over a whole contiguous block, in two
    buffers held for the call, so no block allocates a block-sized array
    and no BLAS thread count moves a bit.  The midpoints take one lattice
    bit more than an integer T, so a grid within 2x of TGrid's 2^53 range
    raises ValueError (`zel moments` grids at integer T sit over 1,000x
    inside it up to the phase limit).
    err_estimate = |half-spacing refinement delta| + X^{2k}/T.  The second
    term is the standard main-term error shape with constant 1; it is a
    reporting convention, not a certified bound.
    """
    ks = tuple(ks)
    if not ks or min(ks) < 1:
        raise ValueError(f"ks must be a nonempty list of orders >= 1, got {ks}")
    span = grid.count * grid.delta
    log_shapes = {k: 2 * k * math.log(spec.X) - math.log(span) for k in ks}
    if log_shapes[max(ks)] > 700.0:
        raise OverflowError(
            f"error shape X^(2k)/T overflows for --k {max(ks)}, --X {spec.X:g}")
    scratch = (np.empty(NUFFT_BLOCK), np.empty(NUFFT_BLOCK))
    rows, mid_rows = _pass_rows(spec, table, grid,
                                lambda p: _power_sums(p, ks, scratch), rotated=True)
    out = []
    # per k: its block sums over the grid and over the midpoints
    for k, here, mids in zip(ks, zip(*rows), zip(*mid_rows)):
        value = math.fsum(here) / grid.count
        refined = math.fsum(here + mids) / (2 * grid.count)
        err = abs(refined - value) + math.exp(log_shapes[k])
        out.append(MomentResult(k=k, value=value, method=METHOD_EMPIRICAL,
                                err_estimate=err))
    return out


# ---------------------------------------------------------------------------
# Bessel generating product and the trimmed exponential moment


def _density_tail_log_i0(m: int, sigma: float, x: float, lo: float,
                         hi: float) -> float:
    """int_lo^hi log I0(x t^-sigma (log t)^-m) dt/log t, u = log t.

    Prime-density surrogate for sum over primes in (lo, hi]; the density
    dt/log t is accurate to well under a percent at desk scales, far inside
    the asymptotic windows this feeds.
    """
    def f(u: np.ndarray) -> np.ndarray:
        arg = x * np.exp(-sigma * u) * u ** (-float(m))
        return log_bessel_i0(arg) * np.exp(u) / u

    u_lo, u_hi = math.log(lo), math.log(hi)
    # crossover of the I0 argument past 1 marks the curvature change
    brk = []
    if sigma > 0 and x > 1:
        u_star = math.log(x) / sigma
        if u_lo < u_star < u_hi:
            brk.append(u_star)
    return integrate_adaptive(f, u_lo, u_hi, rel_tol=1e-9, nodes=24,
                              breakpoints=brk, max_panels=4000)


def bessel_product(spec: PolySpec, table: PrimeTable, x: float) -> float:
    """log prod_{p<=X} I0(x p^-sigma (log p)^-m).

    Exact (fsum of log I0 terms) over the sieved primes; for X past
    table.limit the remaining prime mass is integrated against dt/log t.
    The log I0 terms come in batches of _HEAD_PRIMES primes, all fed to
    one fsum, so the temporaries stay near 64 KB each at any X.  As log I0
    is elementwise (its series stops early only where the terms left round
    away) and fsum exact, the head has the bits of one batch over every
    prime.
    """
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    head_x = min(spec.X, float(table.limit))
    w = table.weights(spec.m, spec.sigma, head_x)
    if w.size == 0:
        raise ValueError("no primes <= X in the table")
    head = math.fsum(itertools.chain.from_iterable(
        log_bessel_i0(x * w[i:i + _HEAD_PRIMES]).tolist()
        for i in range(0, w.size, _HEAD_PRIMES)))
    if spec.X > table.limit:
        head += _density_tail_log_i0(spec.m, spec.sigma, x,
                                     float(table.limit), spec.X)
    return head


def exp_moment_trimmed(spec: PolySpec, table: PrimeTable, grid: TGrid,
                       x: float, W: float) -> tuple[float, float]:
    """log of (1/count) sum over {|Z(t_j)| <= W} of exp(x P(t_j)).

    Returns (grid value, half-spacing refinement value) from two complex
    kernel passes, at the grid's points and at their midpoints
    (_pass_rows), each block reduced to (max, sum exp(x P - max)) over its
    kept points: the grid's value combines the first pass's rows, the
    refinement's both passes' rows.  Each normalizer is its grid's FULL
    count, mirroring the (1/T) integral over the trimmed set: at x = 0
    this is exactly the log measure fraction of the trimmed set, and the
    un-logged quantity is monotone nondecreasing in W by set inclusion.
    Per-block log-sum-exp, so large x W never overflows.  Each complex
    block is reduced in buffers held for the call (fresh |Z|, P, mask and
    exponential arrays per block cost ~240 minor page faults a block).
    Its midpoints bound the grid as empirical_moment's do: within 2x of
    2^53 units, ValueError.
    """
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not W > 0.0:
        raise ValueError(f"W must be positive, got {W}")
    mod, scaled, tmp = np.empty((3, NUFFT_BLOCK))
    mask = np.empty(NUFFT_BLOCK, dtype=bool)

    def log_sum_exp(z: np.ndarray) -> tuple[float, float] | None:
        """(max, sum exp(x P - max)) over |Z| <= W, None if no point is kept."""
        n = z.size
        # x P on |Z| <= W, -inf elsewhere (and where |Z| is NaN)
        p = rotated_real(z, spec.theta, out=scaled[:n])
        p *= x
        kept = np.less_equal(np.abs(z, out=mod[:n]), W, out=mask[:n])
        np.copyto(p, -math.inf, where=np.logical_not(kept, out=kept))
        top = float(p.max())
        if not top > -math.inf:
            return None
        e = np.subtract(p, top, out=tmp[:n])
        return top, float(np.sum(np.exp(e, out=e)))

    rows, mid_rows = _pass_rows(spec, table, grid, log_sum_exp)
    out = []
    for blocks, count in ((rows, grid.count), (rows + mid_rows, 2 * grid.count)):
        acc = [r for r in blocks if r is not None]
        if not acc:
            raise ValueError(f"trimmed set is empty at W={W}")
        top = max(m for m, _ in acc)
        total = math.fsum(s * math.exp(m - top) for m, s in acc)
        out.append(top + math.log(total) - math.log(count))
    return out[0], out[1]
