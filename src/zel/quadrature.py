"""Adaptive Gauss-Legendre panel quadrature.

Shared by the special-function constants and the horizontal log-zeta
integrals.  Panels are bisected greedily (worst error first) until the
summed panel-error estimate meets the tolerance; the error estimate per
panel is |GL(2n) - GL(n)|.  Explicit breakpoints let callers isolate
known trouble spots (the zeta pole at alpha = 1) so no panel straddles
them.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    if n not in _RULE_CACHE:
        _RULE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _RULE_CACHE[n]


def panel_estimates(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    nodes: int) -> tuple[float, float]:
    """(integral, error estimate) on one panel via GL(n) vs GL(2n)."""
    xs, ws = gauss_legendre_rule(nodes)
    x2, w2 = gauss_legendre_rule(2 * nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # no float() cast: integrands may be complex-valued
    coarse = half * np.dot(ws, f(mid + half * xs))
    fine = half * np.dot(w2, f(mid + half * x2))
    return fine, float(abs(fine - coarse))


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
                       rel_tol: float = 1e-10, abs_tol: float = 0.0,
                       breakpoints: Sequence[float] = (), nodes: int = 16,
                       max_panels: int = 4000) -> float:
    """Integrate a vectorized callable over [a, b].

    Tolerance is rel_tol * |integral estimate| + abs_tol on the summed
    panel-error estimates.  Breakpoints inside (a, b) become initial
    panel edges; GL nodes are interior so integrable endpoint
    singularities at the edges are never evaluated.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError(f"bad interval [{a}, {b}]")
    edges = [a]
    for p in sorted(set(float(x) for x in breakpoints)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    # heap of (-err, lo, hi, val); totals maintained incrementally
    heap: list[tuple[float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = panel_estimates(f, lo, hi, nodes)
        heapq.heappush(heap, (-err, lo, hi, val))
        total += val
        total_err += err

    n_panels = len(heap)
    while total_err > rel_tol * abs(total) + abs_tol:
        if n_panels >= max_panels:
            raise RuntimeError(
                f"quadrature stalled: {n_panels} panels, err {total_err:.3e}, "
                f"total {total:.6e}")
        neg_err, lo, hi, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # neg_err = -err
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            v, e = panel_estimates(f, seg[0], seg[1], nodes)
            heapq.heappush(heap, (-e, seg[0], seg[1], v))
            total += v
            total_err += e
        n_panels += 1
    return total


def integrate_fixed(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    nodes: int = 64) -> float:
    """Single-panel GL(n), for integrands known to be smooth."""
    xs, ws = gauss_legendre_rule(nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * np.dot(ws, f(mid + half * xs))
