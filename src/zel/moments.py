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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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
    """Trapezoid value of (k!/2 pi i) oint w^{-k-1} prod I0(w c_p) dw."""
    phis = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    node_chunk = max(1, (1 << 22) // max(1, c.size))
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


def _half_spacing_blocks(spec: PolySpec, table: PrimeTable, grid: TGrid, *,
                         rotated: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (first, Z) blocks of the half-spacing refinement of grid
    (rotated: P = Re e^{-i theta} Z, valid until the next block).

    Refined point i is t0 + i delta/2, so base point j is refined point
    2j and Z[first::2] are a block's base points; first follows the
    global index, since blocks may start at odd indices.
    """
    half = TGrid(t0=grid.t0, count=2 * grid.count, delta=grid.delta / 2)
    for j0, z in iter_poly_blocks(spec, table, half, rotated=rotated):
        yield j0 % 2, z


def _power_plan(sums: dict) -> tuple:
    """Per power j = 1..ceil(kmax/2) of a pass, the sums that p^j feeds:
    (odd, base, refined) for each order k in (2j - 1, 2j) that sums
    holds, odd telling k = 2j - 1, base and refined sums[k]'s lists."""
    return tuple(tuple((k % 2 == 1, *sums[k]) for k in (2 * j - 1, 2 * j)
                       if k in sums)
                 for j in range(1, (max(sums) + 1) // 2 + 1))


def _add_power_sums(plan: tuple, first: int, p: np.ndarray,
                    scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """Append sum p^k over p[first::2] and over p to each k's lists in
    plan (_power_plan).

    sum p^k is the dot product p^ceil(k/2) . p^floor(k/2) (np.sum(p) at
    k = 1).  The chain p^2 = np.square(p), then p^j = p^(j-1) p, keeps
    its two latest powers in the two scratch buffers, of at least p.size
    doubles each, which the caller reuses for every block of a pass:
    ceil(kmax/2) - 1 products per block and no new arrays at any k.
    """
    lo, hi = None, p                    # p^(j-1), p^j
    for j, feeds in enumerate(plan, 1):
        if j == 2:
            lo, hi = p, np.square(p, out=scratch[0][:p.size])
        elif j > 2:
            lo, hi = hi, np.multiply(hi, p, out=scratch[j % 2][:p.size])
        for odd, base, refined in feeds:
            b = lo if odd else hi
            if b is None:               # k = 1
                base.append(float(np.sum(hi[first::2])))
                refined.append(float(np.sum(hi)))
            else:
                base.append(float(np.dot(hi[first::2], b[first::2])))
                refined.append(float(np.dot(hi, b)))


def empirical_moment(spec: PolySpec, table: PrimeTable, grid: TGrid,
                     ks) -> list[MomentResult]:
    """Grid averages of P(t)^k over the TGrid span, one result per k in ks.

    One kernel pass over the half-spacing refinement, whose GEMM path
    yields P itself, feeds every power sum of both grids; each sum is one
    dot product of two powers from a chain (a square, then products) in
    two buffers held for the pass (fresh arrays per block, for the powers
    or the GEMM's output, cost ~100-260 minor page faults a block).  Which
    sums each power feeds is planned once per pass (_power_plan).
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
            f"error shape X^(2k)/T overflows for k={max(ks)}, X={spec.X}")
    # per k: block sums over the base grid and over the refinement
    sums = {k: ([], []) for k in ks}
    plan = _power_plan(sums)
    scratch = (np.empty(NUFFT_BLOCK), np.empty(NUFFT_BLOCK))
    for first, p in _half_spacing_blocks(spec, table, grid, rotated=True):
        _add_power_sums(plan, first, p, scratch)
    out = []
    for k in ks:
        value = math.fsum(sums[k][0]) / grid.count
        refined = math.fsum(sums[k][1]) / (2 * grid.count)
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
    """
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    head_x = min(spec.X, float(table.limit))
    w = table.weights(spec.m, spec.sigma, head_x)
    if w.size == 0:
        raise ValueError("no primes <= X in the table")
    head = math.fsum(log_bessel_i0(x * w).tolist())
    if spec.X > table.limit:
        head += _density_tail_log_i0(spec.m, spec.sigma, x,
                                     float(table.limit), spec.X)
    return head


def _add_log_sum_exp(parts: tuple, first: int, scaled: np.ndarray,
                     tmp: np.ndarray) -> None:
    """Append (max, sum exp(scaled - max)) over scaled[first::2] to parts[0]
    and over scaled to parts[1], skipping all-trimmed (-inf) blocks; the
    exponentials go to tmp, of at least scaled.size doubles."""
    for acc, vals in zip(parts, (scaled[first::2], scaled)):
        top = float(vals.max())
        if top > -math.inf:
            e = np.subtract(vals, top, out=tmp[:vals.size])
            acc.append((top, float(np.sum(np.exp(e, out=e)))))


def exp_moment_trimmed(spec: PolySpec, table: PrimeTable, grid: TGrid,
                       x: float, W: float) -> tuple[float, float]:
    """log of (1/count) sum over {|Z(t_j)| <= W} of exp(x P(t_j)).

    Returns (grid value, half-spacing refinement value) from one kernel
    pass over the refinement.  Each normalizer is its grid's FULL count,
    mirroring the (1/T) integral over the trimmed set: at x = 0 this is
    exactly the log measure fraction of the trimmed set, and the un-logged
    quantity is monotone nondecreasing in W by set inclusion.  Per-block
    log-sum-exp, so large x W never overflows.  Each block is reduced in
    buffers held for the pass (fresh |Z|, P, mask and exponential arrays
    per block cost ~240 minor page faults a block).
    """
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not W > 0.0:
        raise ValueError(f"W must be positive, got {W}")
    # per grid: (block max, block sum of exp(scaled - block max))
    parts = ([], [])
    mod, scaled, tmp = np.empty((3, NUFFT_BLOCK))
    mask = np.empty(NUFFT_BLOCK, dtype=bool)
    for first, z in _half_spacing_blocks(spec, table, grid):
        n = z.size
        # x P on |Z| <= W, -inf elsewhere (and where |Z| is NaN)
        p = rotated_real(z, spec.theta, out=scaled[:n])
        p *= x
        kept = np.less_equal(np.abs(z, out=mod[:n]), W, out=mask[:n])
        np.copyto(p, -math.inf, where=np.logical_not(kept, out=kept))
        _add_log_sum_exp(parts, first, p, tmp)
    out = []
    for acc, count in zip(parts, (grid.count, 2 * grid.count)):
        if not acc:
            raise ValueError(f"trimmed set is empty at W={W}")
        top = max(m for m, _ in acc)
        total = math.fsum(s * math.exp(m - top) for m, s in acc)
        out.append(top + math.log(total) - math.log(count))
    return out[0], out[1]
