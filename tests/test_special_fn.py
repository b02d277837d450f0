import math

import numpy as np
import pytest
import scipy.special as sp

from zel import special_fn
from zel.special_fn import (I0_SWITCH, a_constant, g_constant,
                            log_bessel_i0, log_i0_slope,
                            _i0_asymp_factor, _i0_series)

import oracle_values as ov


# A relative error e in I0 is an absolute error of about e in log I0, so
# the log-form checks below hold the tolerances of the plain-I0 ones.


def test_i0_zero_is_one():
    assert log_bessel_i0(0.0) == 0.0


def test_i0_truncated_series_oracle():
    # independent 30-term series, exact to machine for x <= 10
    for x in (0.3, 1.0, 2.5, 5.0, 10.0):
        acc = 0.0
        for n in range(31):
            acc += (x / 2.0) ** (2 * n) / math.factorial(n) ** 2
        assert log_bessel_i0(x) == pytest.approx(math.log(acc), abs=1e-14)


def test_log_i0_small_x_against_mpmath():
    # log(1 + sum) was off by 6.7e-9 relative at x = 1e-4 and read 0 at 1e-8
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = np.concatenate((np.logspace(-8, 0, 33), np.linspace(1.5, 19.9, 24)))
    got = log_bessel_i0(xs)
    for x, g in zip(xs.tolist(), got.tolist()):
        want = mp.log(mp.besseli(0, mp.mpf(x)))
        assert abs(mp.mpf(g) / want - 1) < 5e-16, x
        assert log_bessel_i0(x) == g


def test_i0_frozen_values():
    for x, want in ov.I0_VALUES.items():
        assert log_bessel_i0(x) == pytest.approx(math.log(want), abs=5e-13)


def test_i0_against_scipy_grid():
    # both branches and the switch between them; scipy's i0e is e^-x I0(x)
    xs = np.linspace(0.0, 600.0, 4001)
    want = np.log(sp.i0e(xs)) + xs
    assert np.max(np.abs(log_bessel_i0(xs) - want)) < 1e-12


def test_i0_branch_overlap_at_switch():
    x = np.array([I0_SWITCH])
    ser = _i0_series(x)[0]
    asy = float((np.exp(x) / np.sqrt(2 * math.pi * x) * _i0_asymp_factor(x))[0])
    assert abs(ser - asy) / ser < 1e-12


def test_i0_bounds():
    # 1 <= I0(x) <= e^x
    xs = np.linspace(0.0, 200.0, 500)
    v = log_bessel_i0(xs)
    assert np.all(v >= 0.0)
    assert np.all(v <= xs + 1e-12)


def test_i0_rejects_bad_input():
    with pytest.raises(ValueError):
        log_bessel_i0(-1.0)
    with pytest.raises(ValueError):
        log_bessel_i0(float("nan"))


def test_log_i0_no_overflow():
    assert log_bessel_i0(1000.0) == pytest.approx(ov.LOG_I0_1000, rel=1e-13)
    got = log_bessel_i0(1e8)
    lead = 1e8 - 0.5 * math.log(2 * math.pi * 1e8)
    assert got == pytest.approx(lead, rel=1e-12)


def test_log_i0_asymptotic_window():
    # log I0(x) - (x - log(2 pi x)/2) -> 0 like 1/(8x)
    for x, tol in ((1e3, 1e-2), (1e5, 1e-4)):
        gap = log_bessel_i0(x) - (x - 0.5 * math.log(2 * math.pi * x))
        assert 0.0 < gap < tol


def test_log_i0_slope_against_scipy():
    # x I1/I0 from the exponentially scaled pair, on both sides of the switch
    below = np.concatenate((np.geomspace(1e-6, 1.0, 200),
                            np.linspace(1.0, I0_SWITCH, 2001)[:-1]))
    above = np.concatenate((np.linspace(I0_SWITCH, 60.0, 2001),
                            np.geomspace(60.0, 1e6, 200)))
    for xs in (below, above):
        want = xs * sp.i1e(xs) / sp.i0e(xs)
        rel = np.abs(log_i0_slope(xs) - want) / want
        assert rel.max() < 1e-13


def test_log_i0_slope_edges():
    assert log_i0_slope(0.0) == 0.0
    assert isinstance(log_i0_slope(3.0), float)
    # x I1/I0 -> x - 1/2 - 1/(8x) far out, with no overflow
    assert log_i0_slope(1e300) == 1e300
    with pytest.raises(ValueError):
        log_i0_slope(-1.0)


def test_g_frozen_values():
    for s, want in ov.G_VALUES.items():
        assert g_constant(s) == pytest.approx(want, rel=ov.G_RTOL[s])


def test_g_positive_and_node_stable(monkeypatch):
    # G's quadratures at twice their node counts (32/128 against 16/64);
    # __wrapped__ skips g_constant's cache
    sigmas = (0.55, 0.6, 0.75, 0.9, 0.97)
    v16 = [g_constant.__wrapped__(s) for s in sigmas]
    adaptive, fixed = special_fn.integrate_adaptive, special_fn.integrate_fixed
    monkeypatch.setattr(special_fn, "integrate_adaptive",
                        lambda *a, nodes, **kw: adaptive(*a, nodes=2 * nodes, **kw))
    monkeypatch.setattr(special_fn, "integrate_fixed",
                        lambda *a, nodes: fixed(*a, nodes=2 * nodes))
    v32 = [g_constant.__wrapped__(s) for s in sigmas]
    for a, b in zip(v16, v32):
        assert a > 0.0
        assert a != b and abs(b - a) <= 1e-8 * abs(a)


def test_g_domain():
    for s in (0.5, 1.0, 0.2, 1.4):
        with pytest.raises(ValueError):
            g_constant(s)


def test_a_closed_form_with_unit_g(monkeypatch):
    # G pinned to 1 isolates the exponent algebra
    monkeypatch.setattr(special_fn, "g_constant", lambda sigma: 1.0)
    for m, s in ((0, 0.75), (1, 0.6), (3, 0.9)):
        want = (s ** (2 * s) / (1 - s) ** (2 * s - 1 + m)) ** (1 / (1 - s))
        assert a_constant(m, s) == pytest.approx(want, rel=1e-14)


def test_g_cached_per_sigma(monkeypatch):
    calls = []
    real = special_fn.integrate_adaptive
    monkeypatch.setattr(special_fn, "integrate_adaptive",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    special_fn.g_constant.cache_clear()
    first = g_constant(0.65)
    assert g_constant(0.65) == first and a_constant(2, 0.65) > 0.0
    assert len(calls) == 1


def test_a_frozen_values():
    for (m, s), want in ov.A_VALUES.items():
        assert a_constant(m, s) == pytest.approx(want, rel=1e-8)


def test_a_monotone_in_m():
    # larger m adds a positive power of 1/(1-sigma) > 1
    vals = [a_constant(m, 0.75) for m in range(4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
