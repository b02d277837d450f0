"""Exceedance measurement, saddle solvers, and predicted tail exponents.

The measured object is the fraction of grid points where the rotated value
Re e^{-i theta} F(sigma + it) exceeds V, with F either the prime polynomial
(streamed through the batch kernel) or the iterated integral itself (one
quadrature per grid point, desk-scale grids only).  Counting takes one
pass per block to keep the values above the lowest level, then
binary-searches only those in the sorted V grid (in a tail they are a
few percent); a NaN among them aborts the run (NonFiniteOutput).  Block
counts are integers, so the reduction is deterministic in any order.

Predictions come in four families, one per asymptotic law:

    critical_poly   2m 4^m V^2 (log V)^{2m} / (1 - (log V^2/log X)^m)
    critical_eta    2m 4^m V^2 (log V)^{2m}
    strip_poly      A_m(sigma) V^{1/(1-sigma)} (log V)^{(m+sigma)/(1-sigma)}
    strip_eta       same exponent as strip_poly

each with its error window R evaluated with constant 1 and advisory
range flags for the unnamed constants a_1..a_6, all read as the one
ceiling RANGE_CEILING = 0.01 (never branched on).
The critical_poly denominator carries the power m while the related
saddle equation carries 2m; the mismatch is intentional and neither
form is folded into the other.

The saddle solvers invert

    V = 2x/(8m (2 log x)^{2m}) (1 - (log x^2/log X)^{2m})      (critical)
    V = sigma^{m/sigma} G(sigma) x^{1/sigma-1}
        / (sigma (log x)^{m/sigma+1})                           (strip)

for x on [3, 1e12] by a geometric scan for the rising-branch sign change
followed by safeguarded Newton.  Both curves rise and fall (the critical
bracket dies at x = sqrt(X); the strip curve dips before its stationary
point), so the scan keeps the LAST upcrossing, which is the branch the
closed-form approximations describe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .emit import NonFiniteOutput
from .prime_poly import (NUFFT_BLOCK, PrimeTable, TGrid, iter_poly_blocks,
                         max_spacing, rotated_real)
from .special_fn import a_constant, g_constant
from .zeta_core import (ETA_SIGMA_MIN, NearZeroOnPath, check_eta_phase_range,
                        eta_tilde, log_zeta_branched)

__all__ = [
    "TailPrediction",
    "ExceedanceCurve",
    "FAMILIES",
    "measure_exceedance_poly_multi",
    "measure_exceedance_eta",
    "eta_values",
    "solve_saddle_critical",
    "solve_saddle_strip",
    "predict_tail",
]

FAMILIES = ("critical_poly", "critical_eta", "strip_poly", "strip_eta")

MAX_ETA_GRID = 100_000          # each eta point costs a quadrature
SADDLE_LO = 3.0
SADDLE_HI = 1e12
RANGE_CEILING = 0.01            # a_1..a_6; advisory flags only


@dataclass(frozen=True)
class TailPrediction:
    """Predicted log-measure: fraction ~ exp(-exponent), window on (1+R)."""

    exponent: float
    family: str
    error_window: float
    validity: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.exponent > 0.0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")
        if not self.error_window >= 0.0:
            raise ValueError("error_window must be >= 0")


@dataclass(frozen=True)
class ExceedanceCurve:
    """Per-V exceedance fractions on a fixed grid.

    excluded_count reports grid points dropped by the eta route when the
    continuation path strayed too near a zero.
    """

    V_grid: np.ndarray
    measure_fraction: np.ndarray
    exceed_counts: np.ndarray
    flags: tuple = ()
    excluded_count: int = 0

    def __post_init__(self):
        v = self.V_grid
        if v.ndim != 1 or v.size == 0 or not np.all(np.diff(v) > 0):
            raise ValueError("V_grid must be strictly ascending")
        if self.measure_fraction.shape != v.shape \
                or self.exceed_counts.shape != v.shape:
            raise ValueError("curve arrays must match V_grid")
        if np.any(np.diff(self.exceed_counts) > 0):
            raise ValueError("exceedance must be nonincreasing in V")
        if np.any((self.measure_fraction < 0) | (self.measure_fraction > 1)):
            raise ValueError("fractions must lie in [0, 1]")


def _check_v_grid(V_grid) -> np.ndarray:
    v = np.asarray(V_grid, dtype=float)
    if v.ndim == 1 and not np.isfinite(v).all():
        raise ValueError(f"--V must be finite, got {v[~np.isfinite(v)][0]}")
    if v.ndim != 1 or v.size == 0 or not np.all(np.diff(v) > 0):
        raise ValueError(f"--V must be 1-d and strictly ascending, got {v.tolist()}")
    return v


def _exceed_counts(values: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per level V_j, how many values are > V_j (v ascending).

    Only values above v[0] can count, and in a tail they are a few
    percent, so only those are binary-searched.  NaN fails `<= v[0]` and
    so reaches the check, which raises NonFiniteOutput (exit code 3)
    rather than count it above every level.

    Values go in slices of 8192, so each temporary stays under 64 KB and
    is reused from the heap.  Whole-block temporaries (two 64 KB masks
    and ~110 KB each of values and indices per 65536-point block) cost a
    theta sweep 70-120 minor page faults per block wherever glibc's heap
    layout let them grow and trim its top on every call.
    """
    hist = np.zeros(v.size + 1, dtype=np.int64)
    for lo in range(0, values.size, 8192):
        part = values[lo:lo + 8192]
        top = part[~(part <= v[0])]
        if np.isnan(top).any():
            raise NonFiniteOutput("nonfinite value nan in an exceedance block")
        # strict exceedance: side='left' puts ties at V_j on the non-exceeding side
        hist += np.bincount(np.searchsorted(v, top, side="left"),
                            minlength=v.size + 1)
    return np.cumsum(hist[::-1])[::-1][1:]


def measure_exceedance_poly_multi(specs, table: PrimeTable, grid: TGrid,
                                  V_grid) -> list[ExceedanceCurve]:
    """Fraction of grid points with P(t) > V, per V and per spec, in one pass.

    Specs differ only in theta.  One spec draws the rotated stream, P
    itself at about half the kernel's work; a theta sweep draws the
    complex blocks, whose Re and Im serve every rotation (rotated into one
    buffer held for the pass), so it too costs one kernel pass.  Each block
    is valid until the next is drawn, so its counts are taken at once.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one spec")
    base = specs[0]
    for s in specs[1:]:
        if (s.m, s.sigma, s.X) != (base.m, base.sigma, base.X):
            raise ValueError("specs in one pass must share (m, sigma, X)")
    if grid.delta > max_spacing(base.X) * (1.0 + 1e-12):
        raise ValueError(
            f"grid spacing {grid.delta} violates the rule for X={base.X}")
    v = _check_v_grid(V_grid)
    counts = np.zeros((len(specs), v.size), dtype=np.int64)
    if len(specs) == 1:
        for _, p in iter_poly_blocks(base, table, grid, rotated=True):
            counts[0] += _exceed_counts(p, v)
    else:
        thetas = [s.theta for s in specs]
        rows = np.empty(len(specs) * NUFFT_BLOCK)
        for _, z in iter_poly_blocks(base, table, grid):
            out = rows[:len(specs) * z.size]
            for i, p in enumerate(rotated_real(z, thetas, out=out)):
                counts[i] += _exceed_counts(p, v)
    return [ExceedanceCurve(V_grid=v.copy(),
                            measure_fraction=counts[i] / grid.count,
                            exceed_counts=counts[i].copy())
            for i in range(len(specs))]


def eta_values(m: int, sigma: float, ts) -> list[complex | None]:
    """eta_m(sigma + it) for each t in ts; m = 0 is the branched log zeta.

    None marks a t whose continuation path runs too close to a zero.  ts
    may be any iterable; more than MAX_ETA_GRID values, m < 0, a sigma
    at or below ETA_SIGMA_MIN (where zeta loses its digits), or a
    non-finite sigma or t raise ValueError before any value is evaluated
    (each one costs a quadrature).
    """
    ts = list(itertools.islice(ts, MAX_ETA_GRID + 1))
    if len(ts) > MAX_ETA_GRID:
        raise ValueError(
            f"more than {MAX_ETA_GRID} t values; the eta grid caps at "
            f"{MAX_ETA_GRID}")
    if m < 0:
        raise ValueError(f"--m must be >= 0, got {m}")
    if not math.isfinite(sigma):
        raise ValueError(f"--sigma must be finite, got {sigma}")
    if not sigma > ETA_SIGMA_MIN:
        raise ValueError(
            f"--sigma must be > {ETA_SIGMA_MIN:g} for eta values, got {sigma:g}: "
            f"further left zeta's Euler-Maclaurin sum cancels away its digits")
    for t in ts:
        if not math.isfinite(t):
            raise ValueError(f"--t must be finite, got {t}")
    out = []
    for t in ts:
        try:
            out.append(log_zeta_branched(sigma, t) if m == 0
                       else eta_tilde(m, sigma, t))
        except NearZeroOnPath:
            out.append(None)
    return out


def measure_exceedance_eta(m: int, sigma: float, theta: float, grid: TGrid,
                           V_grid) -> ExceedanceCurve:
    """Exceedance of Re e^{-i theta} eta_m(sigma + it) on a desk grid.

    Values come from eta_values.  Points whose continuation path runs too
    close to a zero are excluded and counted; more than 1% of them flags
    the whole curve.  Fractions keep the full grid count as denominator
    so exclusions can only lower the curve.  A grid past the exact phase
    range raises ValueError naming --T before any value is evaluated.
    """
    if not 0.5 <= sigma < math.inf:
        raise ValueError(f"--sigma must be finite and >= 1/2, got {sigma}")
    if not math.isfinite(theta):
        raise ValueError(f"--theta must be finite, got {theta}")
    v = _check_v_grid(V_grid)
    # zeta_core's own checks would name --t, the eta command's flag
    check_eta_phase_range(max(abs(grid.t0), abs(grid.t(grid.count - 1))),
                          f"--T {grid.t0:g}")
    ct, st = math.cos(theta), math.sin(theta)
    values = eta_values(m, sigma, map(grid.t, range(grid.count)))
    vals = [ct * e.real + st * e.imag for e in values if e is not None]
    excluded = len(values) - len(vals)
    counts = _exceed_counts(np.asarray(vals), v)
    flags = ()
    if excluded > 0.01 * grid.count:
        flags = ("exclusions_above_1pct",)
    return ExceedanceCurve(V_grid=v.copy(), measure_fraction=counts / grid.count,
                           exceed_counts=counts, flags=flags,
                           excluded_count=excluded)


# ---------------------------------------------------------------------------
# saddle solvers


def _solve_rising(g, gp, v_scale: float, label: str) -> float:
    """Root of g on the rising branch inside [SADDLE_LO, SADDLE_HI].

    Geometric scan (ratio sqrt 2) keeps the last minus-to-plus crossing,
    then safeguarded Newton: every iterate tightens the bisection bracket,
    and a Newton step is taken only when it stays inside.
    """
    xs = [SADDLE_LO]
    while xs[-1] < SADDLE_HI:
        xs.append(min(xs[-1] * math.sqrt(2.0), SADDLE_HI))
    gvals = [g(x) for x in xs]
    bracket = None
    for a, b, ga, gb in zip(xs, xs[1:], gvals, gvals[1:]):
        if ga <= 0.0 < gb:
            bracket = (a, b)
    if bracket is None:
        raise ValueError(
            f"no sign change for {label} saddle in [{SADDLE_LO}, {SADDLE_HI:g}]")
    lo, hi = bracket
    x = 0.5 * (lo + hi)
    for _ in range(200):
        val = g(x)
        if abs(val) <= 1e-13 * v_scale:
            return x
        if val > 0.0:
            hi = x
        else:
            lo = x
        d = gp(x)
        if d != 0.0:
            step = x - val / d
            x = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
    raise RuntimeError(f"{label} saddle iteration stalled near x={x}")


def solve_saddle_critical(V: float, X: float, m: int) -> float:
    """x solving V = 2x/(8m (2 log x)^{2m}) (1 - (log x^2/log X)^{2m}).

    The right side simplifies to (x (2 log x)^{-2m} - x (log X)^{-2m})/(4m),
    which rises, peaks, and dies at x = sqrt(X); the root returned is the
    rising-branch crossing.  Residual contract: |lhs - rhs| <= 1e-12 V.
    """
    if not V >= 3.0:
        raise ValueError(f"V must be >= 3, got {V}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not X >= V ** 4:
        raise ValueError(f"X must be >= V^4 = {V ** 4:g}, got {X}")
    inv_l2m = math.log(X) ** (-2.0 * m)

    def g(x: float) -> float:
        u = math.log(x)
        return (x * (2.0 * u) ** (-2.0 * m) - x * inv_l2m) / (4.0 * m) - V

    def gp(x: float) -> float:
        u = math.log(x)
        return ((2.0 * u) ** (-2.0 * m) * (1.0 - 2.0 * m / u) - inv_l2m) \
            / (4.0 * m)

    return _solve_rising(g, gp, V, "critical")


def solve_saddle_strip(V: float, sigma: float, m: int) -> float:
    """x solving V = sigma^{m/sigma} G(sigma) x^{1/sigma-1}
    / (sigma (log x)^{m/sigma+1}).

    The curve dips until log x = (m + sigma)/(1 - sigma) and rises after;
    the root returned is on the rising branch.  Residual <= 1e-12 V.
    """
    if not V >= 3.0:
        raise ValueError(f"V must be >= 3, got {V}")
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"sigma must be in (1/2, 1), got {sigma}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    coef = sigma ** (m / sigma) * g_constant(sigma) / sigma
    growth = 1.0 / sigma - 1.0
    logpow = m / sigma + 1.0

    def g(x: float) -> float:
        return coef * x ** growth * math.log(x) ** (-logpow) - V

    def gp(x: float) -> float:
        u = math.log(x)
        return coef * x ** (growth - 1.0) * u ** (-logpow) * (growth - logpow / u)

    return _solve_rising(g, gp, V, "strip")


# ---------------------------------------------------------------------------
# predictions


def _require(params: dict, family: str, *names: str) -> list:
    got = []
    for name in names:
        if name not in params or params[name] is None:
            raise ValueError(f"family {family} requires --{name}")
        got.append(params[name])
    return got


def _loglog(v: float) -> float:
    return math.log(math.log(v))


def predict_tail(family: str, V: float, params: dict) -> TailPrediction:
    """Predicted exponent E (fraction ~ exp(-E)) with its error window.

    params carries m plus, per family: X (critical_poly), T (critical_eta;
    optional elsewhere, enabling the T-dependent range flags), sigma (strip
    families); every law here is free of the rotation angle.  A given X
    must be finite and > 1, a given T finite and > e.  Validity flags are
    advisory range checks against RANGE_CEILING; values always return.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not math.isfinite(V):
        raise ValueError(f"--V must be finite, got {V}")
    if not V >= 3.0:
        raise ValueError(f"--V must be >= 3, got {V}")
    m = int(_require(params, family, "m")[0])
    T = params.get("T")
    if params.get("X") is not None and not 1.0 < params["X"] < math.inf:
        raise ValueError(f"--X must be finite and > 1, got {params['X']}")
    if T is not None and not math.e < T < math.inf:
        raise ValueError(f"--T must be finite and > e, got {T}")
    try:
        lv, llv = math.log(V), _loglog(V)
        flags: list[str] = []
        if family in ("critical_poly", "critical_eta"):
            if m < 1:
                raise ValueError(f"family {family} requires --m >= 1, got {m}")
            if params.get("sigma") not in (None, 0.5):
                raise ValueError(f"family {family} is pinned to --sigma 0.5")
            base = 2.0 * m * 4.0 ** m * V * V * lv ** (2 * m)
            if family == "critical_poly":
                X = float(_require(params, family, "X")[0])
                ratio = math.log(V ** 2) / math.log(X)
                denom = 1.0 - ratio ** m
                if denom <= 0.0:
                    raise ValueError(f"--X {X:g} too small: denominator {denom:g}")
                exponent = base / denom
                window = math.sqrt(llv / lv)
                if X < V ** 4:
                    flags.append("x_below_v4")
                if T is not None:
                    lt, llt = math.log(T), _loglog(T)
                    if V > RANGE_CEILING * math.sqrt(lt) / llt ** (m + 0.5):
                        flags.append("v_above_a2")
                    if math.log(X) > RANGE_CEILING / (V * V * lv ** (2 * m)) * lt:
                        flags.append("x_above_a3")
            else:
                exponent = base
                (T,) = _require(params, family, "T")
                lt, llt = math.log(T), _loglog(T)
                window = (V ** (2 * m + 1) * lv ** (2 * m * (m + 1)) / lt ** m
                          + math.sqrt(llv / lv))
                if V > RANGE_CEILING * (lt / llt ** (2 * m + 2)) ** (m / (2 * m + 1)):
                    flags.append("v_above_a1")
        else:
            if m < 0:
                raise ValueError(f"--m must be >= 0, got {m}")
            sigma = float(_require(params, family, "sigma")[0])
            if not 0.5 < sigma < 1.0:
                raise ValueError(
                    f"strip families need --sigma in (1/2, 1), got {sigma}")
            exponent = (a_constant(m, sigma) * V ** (1.0 / (1.0 - sigma))
                        * lv ** ((m + sigma) / (1.0 - sigma)))
            window = math.sqrt((1.0 + m * llv) / lv)
            if family == "strip_poly":
                X = float(_require(params, family, "X")[0])
                if X < V ** (4.0 * sigma / (1.0 - sigma)):
                    flags.append("x_below_strip_range")
                if T is not None:
                    lt = math.log(T)
                    # ceiling: log X <= a6 log T / (V^{1/(1-s)} (log V)^{(m+s)/(1-s)})
                    v_term = exponent / a_constant(m, sigma)
                    if math.log(X) > RANGE_CEILING * lt / v_term:
                        flags.append("x_above_a6")
                    if V > RANGE_CEILING * lt ** (1.0 - sigma) / _loglog(T) ** (m + 1):
                        flags.append("v_above_a5")
            elif T is not None:
                lt = math.log(T)
                if V > RANGE_CEILING * lt ** (1.0 - sigma) / _loglog(T) ** (m + 1):
                    flags.append("v_above_a4")
    except OverflowError:
        exponent = window = math.inf
    if not (exponent < math.inf and window < math.inf):
        raise ValueError(f"--V {V:g}, --m {m}: the {family} exponent "
                         f"passes the double range")
    return TailPrediction(exponent=exponent, family=family,
                          error_window=window, validity=tuple(flags))
