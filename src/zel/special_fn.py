"""Modified Bessel I0 and the constants G(sigma) and A_m(sigma).

    I0(z)    = sum_{n>=0} (z/2)^{2n} / (n!)^2
    G(sigma) = int_0^inf log I0(u) * u^{-1-1/sigma} du        (1/2 < sigma < 1)
    A_m(sigma) = ( sigma^{2 sigma}
                   / ((1-sigma)^{2 sigma - 1 + m} * G(sigma)^sigma) )^{1/(1-sigma)}

G converges at u=0 because log I0(u) ~ u^2/4 and 2 - 1/sigma > 0, and at
infinity because log I0(u) ~ u and 1/sigma > 1.  Both margins collapse as
sigma -> 1/2 or 1, which is why everything here works with 1/sigma
explicitly instead of hoping a generic quadrature notices.

I0 evaluation switches from the power series to the large-x asymptotic
expansion at x = 20; the two branches overlap to ~1e-12 relative there
(checked in tests).  log_bessel_i0 never forms e^x, so it is safe far
beyond the overflow point of I0 itself.  log_i0_slope, x I1(x)/I0(x),
is the derivative of both branches term by term; the contour moments
solve their saddle condition with it.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .quadrature import integrate_adaptive, integrate_fixed

I0_SWITCH = 20.0        # series below, asymptotic expansion above
_SERIES_TERMS = 400     # cap; the series stops once its terms are negligible
# I0(x) ~ e^x/sqrt(2 pi x) * sum_k a_k x^-k.  10 terms truncate at ~1e-11
# relative at x=20, which misses the 1e-12 overlap target at the switch;
# 16 terms reach ~1e-14 there and are still decreasing (terms shrink
# until k ~ x/0.5 = 40).
_ASYMP_TERMS = 16

# a_k = ((2k-1)!!)^2 / (k! 8^k)
_ASYMP_COEF = np.empty(_ASYMP_TERMS)
_ASYMP_COEF[0] = 1.0
for _k in range(1, _ASYMP_TERMS):
    _ASYMP_COEF[_k] = _ASYMP_COEF[_k - 1] * (2 * _k - 1) ** 2 / (8.0 * _k)
_ASYMP_KCOEF = np.arange(_ASYMP_TERMS) * _ASYMP_COEF       # k a_k


def _i0_terms(q: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, q^n/(n!)^2) for n = 1, 2, ..., real or complex q = (x/2)^2.

    Stops once every term is below 1e-18 max(1, |q|), far under one ulp
    of the I0 sum for real x <= I0_SWITCH.  Along the imaginary axis the
    alternating terms lose ~e^{|x|} eps; the contour moments keep |x|
    small.  RuntimeError when _SERIES_TERMS terms do not converge.
    """
    term = np.ones_like(q)
    # every |term| is at most q_max^n / (n!)^2, the term at the largest |q|
    q_max = float(np.max(np.abs(q), initial=0.0))
    bound, tol = 1.0, 1e-18 * max(1.0, q_max)
    for n in range(1, _SERIES_TERMS + 1):
        term = term * q / (n * n)
        yield n, term
        bound *= q_max / (n * n)
        if bound < tol:
            return
    raise RuntimeError("I0 series did not converge; |x| too large")


def _i0_series(x: np.ndarray) -> np.ndarray:
    """Power series for real or complex x (I0 is entire)."""
    q = 0.25 * x * x
    acc = np.ones_like(q)
    for _, term in _i0_terms(q):
        acc += term
    return acc


def _i0_asymp_factor(x: np.ndarray, coef: np.ndarray = _ASYMP_COEF) -> np.ndarray:
    """sum_k coef_k x^-k for x >= I0_SWITCH (Horner, _ASYMP_TERMS terms)."""
    inv = 1.0 / x
    acc = np.full_like(inv, coef[-1])
    for k in range(coef.size - 2, -1, -1):
        acc = acc * inv + coef[k]
    return acc


def _by_branch(x, name: str, series, asymp):
    """series(x) below I0_SWITCH, asymp(x) from it on; x finite and >= 0.

    Vectorized over ndarray input; scalar in, scalar out.
    """
    scalar = np.isscalar(x)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or not np.all(np.isfinite(xa)):
        raise ValueError(f"{name} wants finite x >= 0")
    small = xa < I0_SWITCH
    out = np.empty_like(xa)
    if np.any(small):
        out[small] = series(xa[small])
    if np.any(~small):
        out[~small] = asymp(xa[~small])
    return float(out) if scalar else out


def _i0_asymp(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(x) / np.sqrt(2.0 * math.pi * x) * _i0_asymp_factor(x)


def bessel_i0(x):
    """I0(x) for real x >= 0.  Overflows to inf past ~713."""
    return _by_branch(x, "bessel_i0", _i0_series, _i0_asymp)


def _log_i0_asymp(x: np.ndarray) -> np.ndarray:
    return x - 0.5 * np.log(2.0 * math.pi * x) + np.log(_i0_asymp_factor(x))


def log_bessel_i0(x):
    """log I0(x), overflow-free."""
    return _by_branch(x, "log_bessel_i0", lambda xs: np.log(_i0_series(xs)),
                      _log_i0_asymp)


def _slope_series(x: np.ndarray) -> np.ndarray:
    # x I1(x) = sum 2n q^n/(n!)^2, I0(x) = sum q^n/(n!)^2
    q = 0.25 * x * x
    num = np.zeros_like(q)
    den = np.ones_like(q)
    for n, term in _i0_terms(q):
        num += n * term
        den += term
    return 2.0 * num / den


def _slope_asymp(x: np.ndarray) -> np.ndarray:
    # x d/dx log(e^x x^-1/2 sum a_k x^-k)
    return x - 0.5 - _i0_asymp_factor(x, _ASYMP_KCOEF) / _i0_asymp_factor(x)


def log_i0_slope(x):
    """x I1(x)/I0(x) = x d/dx log I0(x) for real x >= 0, overflow-free."""
    return _by_branch(x, "log_i0_slope", _slope_series, _slope_asymp)


def _log_i0_taylor_coeffs(n_terms: int) -> np.ndarray:
    """c_k with log I0(u) = sum_{k>=1} c_k u^{2k} (radius |u| < j_0 ~ 2.405).

    From I0 = sum a_n z^n in z = u^2, a_n = 4^-n (n!)^-2, via the standard
    log-of-series recurrence n a_n = sum_{k<=n} k c_k a_{n-k}.
    """
    a = np.empty(n_terms + 1)
    a[0] = 1.0
    for n in range(1, n_terms + 1):
        a[n] = a[n - 1] / (4.0 * n * n)
    c = np.zeros(n_terms + 1)
    for n in range(1, n_terms + 1):
        s = n * a[n]
        for k in range(1, n):
            s -= k * c[k] * a[n - k]
        c[n] = s / n
    return c[1:]


@functools.lru_cache(maxsize=64)
def g_constant(sigma: float, *, nodes: int = 16) -> float:
    """G(sigma) for 1/2 < sigma < 1, relative accuracy ~1e-10 (contract: 1e-8).

    Cached per (sigma, nodes): the strip saddle, A_m(sigma) and the
    self-check criteria ask for the same few sigma again and again.

    Split at u=1 and u=U=30:
      (0, 1]   termwise-exact integration of the log I0 Taylor series,
               sum_k c_k / (2k - 1/sigma); handles the u^{1-1/sigma}
               near-singularity exactly,
      [1, U]   adaptive GL panels on log_bessel_i0(u) u^{-1-1/sigma},
      [U, inf) closed form for (u - log(2 pi u)/2) u^{-1-1/sigma} plus a
               GL integral of the 1/(8u)-size remainder rho(u) mapped to
               (0, 1] by u = U/v.
    The crude tail bound int_U^inf u*u^{-1-1/sigma} du decays like
    U^{1-1/sigma} and is useless near sigma = 1; the closed form is not.
    """
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"g_constant wants 1/2 < sigma < 1, got {sigma}")
    a = 1.0 / sigma

    coeffs = _log_i0_taylor_coeffs(48)
    ks = np.arange(1, coeffs.size + 1)
    head_terms = coeffs / (2.0 * ks - a)
    head = float(np.sum(head_terms))
    if abs(head_terms[-1]) > 1e-15 * abs(head):
        raise RuntimeError("log I0 Taylor tail not converged at u=1")

    big_u = 30.0
    mid = integrate_adaptive(lambda u: log_bessel_i0(u) * u ** (-1.0 - a),
                             1.0, big_u, rel_tol=1e-12, nodes=nodes)

    t1 = big_u ** (1.0 - a) / (a - 1.0)
    t2 = (math.log(2.0 * math.pi) / a + math.log(big_u) / a + 1.0 / (a * a)) \
        * big_u ** (-a)
    tail_main = t1 - 0.5 * t2

    def rho_part(v: np.ndarray) -> np.ndarray:
        u = big_u / v
        rho = np.log(_i0_asymp_factor(u))
        return rho * v ** (a - 1.0)

    tail_rho = big_u ** (-a) * integrate_fixed(rho_part, 0.0, 1.0, nodes=4 * nodes)

    return head + mid + tail_main + tail_rho


def a_constant(m: int, sigma: float) -> float:
    """A_m(sigma) for m >= 0, 1/2 < sigma < 1."""
    if m < 0:
        raise ValueError(f"a_constant wants m >= 0, got {m}")
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"a_constant wants 1/2 < sigma < 1, got {sigma}")
    g = g_constant(sigma)
    if not g > 0.0:
        raise ValueError(f"G(sigma) must be positive, got {g}")
    base = sigma ** (2.0 * sigma) / ((1.0 - sigma) ** (2.0 * sigma - 1.0 + m) * g ** sigma)
    return base ** (1.0 / (1.0 - sigma))
