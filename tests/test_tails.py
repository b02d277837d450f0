"""Tails: exceedance curves, saddle solvers, predictions, trimmed sets.

Poly-curve tests run at T = 1e4 with X = 31 (11 primes) so a full pass is
instant; eta-curve tests use a few dozen quadrature points.  Saddle tests
verify residuals against the displayed equations re-typed here, not against
the solver's internal rearrangement.
"""

import math

import numpy as np
import pytest

from zel.moments import exp_moment_trimmed
from zel.prime_poly import NUFFT_BLOCK, PolySpec, PrimeTable, TGrid, lambda_sum
from zel.special_fn import a_constant, g_constant
from zel import prime_poly, tails
from zel.tails import (
    ExceedanceCurve,
    FAMILIES,
    MAX_ETA_GRID,
    TailPrediction,
    eta_values,
    measure_exceedance_eta,
    measure_exceedance_poly_multi,
    predict_tail,
    solve_saddle_critical,
    solve_saddle_strip,
)
from zel.zeta_core import NearZeroOnPath, eta_tilde, log_zeta_branched

SPEC08 = PolySpec(m=0, sigma=0.8, theta=0.0, X=31.0)


@pytest.fixture(scope="module")
def table31():
    return PrimeTable.build(31)


@pytest.fixture(scope="module")
def grid1e4():
    return TGrid.for_span(1e4, 31.0)


@pytest.fixture(scope="module")
def abs_sum_08(table31):
    # sum of |p^{-0.8}| over p <= 31: global bound on the polynomial
    return float(np.sum(table31.weights(SPEC08.m, SPEC08.sigma)))


class TestCurveTypes:
    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ExceedanceCurve(V_grid=np.array([2.0, 1.0]),
                            measure_fraction=np.zeros(2),
                            exceed_counts=np.zeros(2, dtype=int))

    def test_increasing_counts_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            ExceedanceCurve(V_grid=np.array([1.0, 2.0]),
                            measure_fraction=np.array([0.1, 0.2]),
                            exceed_counts=np.array([1, 2]))

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ExceedanceCurve(V_grid=np.array([1.0]),
                            measure_fraction=np.array([1.5]),
                            exceed_counts=np.array([3]))

    def test_prediction_validation(self):
        with pytest.raises(ValueError, match="family"):
            TailPrediction(exponent=1.0, family="bogus", error_window=0.1)
        with pytest.raises(ValueError, match="positive"):
            TailPrediction(exponent=0.0, family="strip_eta", error_window=0.1)
        with pytest.raises(ValueError, match="error_window"):
            TailPrediction(exponent=1.0, family="strip_eta", error_window=-0.1)


class TestMeasurePoly:
    def test_global_lower_bound(self, table31, grid1e4, abs_sum_08):
        """V below -sum|w| catches every grid point."""
        curve = measure_exceedance_poly_multi([SPEC08], table31, grid1e4,
                                              [-abs_sum_08 - 1.0])[0]
        assert curve.exceed_counts[0] == grid1e4.count
        assert curve.measure_fraction[0] == 1.0

    def test_global_upper_bound(self, table31, grid1e4, abs_sum_08):
        curve = measure_exceedance_poly_multi([SPEC08], table31, grid1e4,
                                              [abs_sum_08 + 1.0])[0]
        assert curve.exceed_counts[0] == 0
        assert curve.measure_fraction[0] == 0.0

    def test_monotone_in_v(self, table31, grid1e4, abs_sum_08):
        v = np.linspace(-abs_sum_08 - 1, abs_sum_08 + 1, 17)
        curve = measure_exceedance_poly_multi([SPEC08], table31, grid1e4, v)[0]
        assert np.all(np.diff(curve.exceed_counts) <= 0)

    def test_refinement_stability(self, table31, grid1e4):
        v = np.linspace(-1.0, 2.5, 8)
        coarse = measure_exceedance_poly_multi([SPEC08], table31, grid1e4, v)[0]
        half = TGrid.for_span(1e4, 31.0, refine=2)
        assert half.delta == grid1e4.delta / 2
        fine = measure_exceedance_poly_multi([SPEC08], table31, half, v)[0]
        gap = np.abs(coarse.measure_fraction - fine.measure_fraction)
        assert gap.max() <= 2.0 / grid1e4.count + 1e-3

    def test_multi_matches_single(self, table31, grid1e4):
        specs = [SPEC08, PolySpec(m=0, sigma=0.8, theta=0.7, X=31.0)]
        v = np.linspace(-1.0, 2.0, 5)
        curves = measure_exceedance_poly_multi(specs, table31, grid1e4, v)
        for s, c in zip(specs, curves):
            single = measure_exceedance_poly_multi([s], table31, grid1e4, v)[0]
            assert np.array_equal(c.exceed_counts, single.exceed_counts)
            assert np.array_equal(c.measure_fraction, single.measure_fraction)

    def test_single_and_sweep_agree_on_nufft_grid(self):
        # one spec draws real blocks from the half-grid NUFFT, a sweep the
        # complex blocks rotated; every level's count must match
        X = 1e4
        table = PrimeTable.build(int(X))
        assert table.upto(X) >= prime_poly.NUFFT_MIN_PRIMES
        span = TGrid.for_span(1e5, X)
        grid = TGrid(t0=span.t0, count=NUFFT_BLOCK + 12345, delta=span.delta)
        specs = [PolySpec(m=0, sigma=0.8, theta=theta, X=X)
                 for theta in (0.0, 0.7, 2.5)]
        v = np.linspace(-1.5, 1.5, 61)
        sweep = measure_exceedance_poly_multi(specs, table, grid, v)
        for s, c in zip(specs, sweep):
            assert 0 < c.exceed_counts[-1] < c.exceed_counts[0] < grid.count
            single = measure_exceedance_poly_multi([s], table, grid, v)[0]
            assert np.array_equal(single.exceed_counts, c.exceed_counts)

    def test_multi_rejects_mixed_specs(self, table31, grid1e4):
        other = PolySpec(m=1, sigma=0.8, theta=0.0, X=31.0)
        with pytest.raises(ValueError, match="share"):
            measure_exceedance_poly_multi([SPEC08, other], table31, grid1e4,
                                          [1.0])

    def test_spacing_rule_enforced(self, table31):
        # delta = 1.0 is far above 2 pi / (3 log 31) ~ 0.61
        bad = TGrid(t0=1e4, count=100, delta=1.0)
        with pytest.raises(ValueError, match="spacing"):
            measure_exceedance_poly_multi([SPEC08], table31, bad, [1.0])

    @pytest.mark.parametrize("V", [[math.nan], [1.0, math.inf]])
    def test_nonfinite_v_rejected(self, table31, grid1e4, V):
        with pytest.raises(ValueError, match="^--V must be finite, got "):
            measure_exceedance_poly_multi([SPEC08], table31, grid1e4, V)

    def test_strict_exceedance_at_tie(self, table31):
        """A grid value exactly equal to V does not count as exceeding."""
        one = TGrid(t0=0.0, count=1, delta=0.5)   # t = 0: P(0) = sum of weights
        spec = PolySpec(m=0, sigma=0.8, theta=0.0, X=31.0)
        top = float(np.sum(table31.weights(0, 0.8)))
        curve = measure_exceedance_poly_multi([spec], table31, one, [top])[0]
        assert curve.exceed_counts[0] == 0


class TestMeasureEta:
    def test_sigma2_absolute_bound(self):
        """Re eta_1(2+it) never beats the full positive Lambda sum."""
        bound = lambda_sum(1, 2.0, 1e5, 0.0).real
        grid = TGrid(t0=10.0, count=40, delta=0.25)
        curve = measure_exceedance_eta(1, 2.0, 0.0, grid, [bound])
        assert curve.exceed_counts[0] == 0
        assert curve.excluded_count == 0

    def test_m0_full_range(self):
        grid = TGrid(t0=50.0, count=25, delta=0.5)
        curve = measure_exceedance_eta(0, 0.75, 0.3, grid, [-10.0, 10.0])
        assert curve.measure_fraction[0] == 1.0
        assert curve.measure_fraction[1] == 0.0

    def test_defect_sandwich(self):
        """Eta curve sits between Lambda-surrogate curves shifted by the
        largest pointwise defect, because |Re eta - Re lam| <= d everywhere."""
        grid = TGrid(t0=100.0, count=30, delta=0.5)
        tab = PrimeTable.build(10_000)
        eta_vals, lam_vals = [], []
        for j in range(grid.count):
            t = grid.t(j)
            eta_vals.append(eta_tilde(1, 0.75, t).real)
            lam_vals.append(lambda_sum(1, 0.75, 1e4, t, table=tab).real)
        eta_vals = np.array(eta_vals)
        lam_vals = np.array(lam_vals)
        d = np.abs(eta_vals - lam_vals).max()
        v = np.quantile(eta_vals, [0.25, 0.5, 0.75])
        curve = measure_exceedance_eta(1, 0.75, 0.0, grid, v)
        for vi, ci in zip(v, curve.exceed_counts):
            lo = int(np.sum(lam_vals > vi + d))
            hi = int(np.sum(lam_vals > vi - d))
            assert lo <= ci <= hi

    def test_grid_cap(self):
        big = TGrid(t0=10.0, count=200_000, delta=0.25)
        with pytest.raises(ValueError, match="caps"):
            measure_exceedance_eta(1, 0.75, 0.0, big, [1.0])

    def test_negative_m_rejected(self):
        grid = TGrid(t0=10.0, count=2, delta=0.25)
        with pytest.raises(ValueError, match="m must be"):
            measure_exceedance_eta(-1, 0.75, 0.0, grid, [1.0])

    @pytest.mark.parametrize("theta,V", [(math.nan, [1.0]),
                                         (math.inf, [1.0]),
                                         (0.0, [1.0, math.nan]),
                                         (0.0, [-math.inf, 1.0])])
    def test_nonfinite_rejected_before_evaluation(self, monkeypatch, theta, V):
        def boom(*args):
            raise AssertionError("evaluated before validation")

        monkeypatch.setattr(tails, "eta_tilde", boom)
        grid = TGrid(t0=10.0, count=2, delta=0.25)
        name = "theta" if not math.isfinite(theta) else "V"
        with pytest.raises(ValueError, match=f"^--{name} must be finite, got "):
            measure_exceedance_eta(1, 0.75, theta, grid, V)

    def test_exclusions_counted_and_flagged(self, monkeypatch):
        real = tails.eta_tilde

        def near_zero_at_100(m, sigma, t):
            if t == 100.0:
                raise NearZeroOnPath(sigma, t)
            return real(m, sigma, t)

        monkeypatch.setattr(tails, "eta_tilde", near_zero_at_100)
        grid = TGrid(t0=99.0, count=8, delta=0.5)
        curve = measure_exceedance_eta(1, 0.75, 0.0, grid, [-100.0])
        assert curve.excluded_count == 1
        assert curve.exceed_counts[0] == 7
        assert curve.flags == ("exclusions_above_1pct",)


class TestEtaValues:
    def test_dispatch_on_m(self):
        got = eta_values(0, 0.75, [50.0, 60.0])
        assert got == [log_zeta_branched(0.75, 50.0),
                       log_zeta_branched(0.75, 60.0)]
        assert eta_values(2, 0.75, (100.0,)) == [eta_tilde(2, 0.75, 100.0)]

    def test_near_zero_is_none(self, monkeypatch):
        def always_near(sigma, t):
            raise NearZeroOnPath(sigma, t)

        monkeypatch.setattr(tails, "log_zeta_branched", always_near)
        assert eta_values(0, 0.5, [14.0, 15.0]) == [None, None]

    def test_cap_before_any_value(self, monkeypatch):
        def never(*args):
            raise AssertionError("evaluated past the cap")

        monkeypatch.setattr(tails, "eta_tilde", never)
        ts = (10.0 + 0.25 * j for j in range(10 ** 9))     # lazy, never built
        with pytest.raises(ValueError, match=f"caps at {MAX_ETA_GRID}"):
            eta_values(1, 0.75, ts)


# residual checks re-type the displayed saddle equations


def critical_rhs(x, X, m):
    return 2.0 * x / (8.0 * m * (2.0 * math.log(x)) ** (2 * m)) \
        * (1.0 - (math.log(x ** 2) / math.log(X)) ** (2 * m))


def strip_rhs(x, sigma, m):
    return sigma ** (m / sigma) * g_constant(sigma) * x ** (1.0 / sigma - 1.0) \
        / (sigma * math.log(x) ** (m / sigma + 1.0))


class TestSaddleCritical:
    POINTS = [(1e3, 1e30, 1), (1e4, 1e30, 1), (1e6, 1e26, 1), (1e3, 1e30, 2)]

    @pytest.mark.parametrize("V,X,m", POINTS)
    def test_residual(self, V, X, m):
        x = solve_saddle_critical(V, X, m)
        assert 3.0 <= x <= 1e12
        assert abs(critical_rhs(x, X, m) - V) <= 1e-12 * V

    def test_monotone_in_v(self):
        roots = [solve_saddle_critical(V, 1e30, 1) for V in (1e3, 2e3, 4e3)]
        assert roots[0] < roots[1] < roots[2]

    def test_larger_x_shrinks_root(self):
        # bigger X widens the bracket factor, so less x is needed for the same V
        assert solve_saddle_critical(1e3, 1e40, 1) < solve_saddle_critical(
            1e3, 1e30, 1)

    def test_no_sign_change_reported(self):
        # the bracket factor dies at x = sqrt(X): X = 1e13 peaks below V = 1e3
        with pytest.raises(ValueError, match="sign change"):
            solve_saddle_critical(1e3, 1e13, 1)
        with pytest.raises(ValueError, match="sign change"):
            solve_saddle_critical(10.0, 1e5, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="V\\^4"):
            solve_saddle_critical(10.0, 1e3, 1)
        with pytest.raises(ValueError, match="V must be"):
            solve_saddle_critical(2.0, 1e30, 1)
        with pytest.raises(ValueError, match="positive integer"):
            solve_saddle_critical(1e3, 1e30, 0)


class TestSaddleStrip:
    POINTS = [(1e3, 0.6, 0), (1e6, 0.6, 0), (1e3, 0.75, 0), (1e4, 0.6, 1),
              (300.0, 0.55, 1)]

    @pytest.mark.parametrize("V,sigma,m", POINTS)
    def test_residual(self, V, sigma, m):
        x = solve_saddle_strip(V, sigma, m)
        assert 3.0 <= x <= 1e12
        assert abs(strip_rhs(x, sigma, m) - V) <= 1e-12 * V

    def test_monotone_in_v(self):
        roots = [solve_saddle_strip(V, 0.6, 0) for V in (1e3, 2e3, 4e3)]
        assert roots[0] < roots[1] < roots[2]

    @pytest.mark.parametrize("V,sigma,m", [(1e3, 0.6, 0), (1e6, 0.6, 0),
                                           (1e3, 0.75, 0)])
    def test_closed_form_window(self, V, sigma, m):
        """x ~ (A_m(sigma)/(1-sigma)) V^{sigma/(1-sigma)}
        (log V)^{(m+sigma)/(1-sigma)}, within 5 loglog V/log V relative."""
        x = solve_saddle_strip(V, sigma, m)
        a = a_constant(m, sigma)
        closed = (a / (1.0 - sigma) * V ** (sigma / (1.0 - sigma))
                  * math.log(V) ** ((m + sigma) / (1.0 - sigma)))
        slack = 5.0 * math.log(math.log(V)) / math.log(V)
        assert abs(x / closed - 1.0) <= slack

    def test_no_root_in_range(self):
        # closed form puts x near 8e14, beyond the search ceiling
        with pytest.raises(ValueError, match="sign change"):
            solve_saddle_strip(1e3, 0.75, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="sigma"):
            solve_saddle_strip(1e3, 0.5, 0)
        with pytest.raises(ValueError, match="sigma"):
            solve_saddle_strip(1e3, 1.0, 0)
        with pytest.raises(ValueError, match="V must be"):
            solve_saddle_strip(2.0, 0.6, 0)
        with pytest.raises(ValueError, match="m must be"):
            solve_saddle_strip(1e3, 0.6, -1)


class TestPredictTail:
    def test_critical_poly_formula(self):
        V, m, X = 100.0, 1, 1e10
        p = predict_tail("critical_poly", V, {"m": m, "X": X})
        base = 2 * m * 4 ** m * V ** 2 * math.log(V) ** (2 * m)
        denom = 1.0 - (math.log(V ** 2) / math.log(X)) ** m
        assert p.exponent == pytest.approx(base / denom, rel=1e-12)
        assert p.error_window == pytest.approx(
            math.sqrt(math.log(math.log(V)) / math.log(V)), rel=1e-12)

    def test_critical_poly_limit_is_eta_exponent(self):
        """Denominator -> 1 as X grows; the two critical exponents merge."""
        base = predict_tail("critical_eta", 100.0, {"m": 1, "T": 1e12}).exponent
        far = predict_tail("critical_poly", 100.0, {"m": 1, "X": 1e300}).exponent
        near = predict_tail("critical_poly", 100.0, {"m": 1, "X": 1e30}).exponent
        assert abs(far / base - 1.0) <= 0.02
        assert abs(far - base) < abs(near - base)

    def test_prop2_dominates_thm1(self):
        for m in (1, 2):
            for V in (10.0, 100.0, 1e3):
                X = max(10.0 * V ** 4, 1e8)
                poly = predict_tail("critical_poly", V, {"m": m, "X": X})
                eta = predict_tail("critical_eta", V, {"m": m, "T": 1e12})
                assert poly.exponent >= eta.exponent

    def test_critical_eta_window(self):
        V, m, T = 50.0, 1, 1e6
        p = predict_tail("critical_eta", V, {"m": m, "T": T})
        lv, llv = math.log(V), math.log(math.log(V))
        want = (V ** (2 * m + 1) * lv ** (2 * m * (m + 1)) / math.log(T) ** m
                + math.sqrt(llv / lv))
        assert p.error_window == pytest.approx(want, rel=1e-12)
        assert "v_above_a1" in p.validity     # default ceiling 0.01 is tiny

    def test_strip_composition(self):
        p = predict_tail("strip_eta", 100.0, {"m": 0, "sigma": 0.75})
        want = (a_constant(0, 0.75)
                * 100.0 ** 4 * math.log(100.0) ** 3)
        assert p.exponent == pytest.approx(want, rel=1e-12)
        assert p.error_window == pytest.approx(
            math.sqrt(1.0 / math.log(100.0)), rel=1e-12)

    def test_v4_flag(self):
        ok = predict_tail("critical_poly", 10.0, {"m": 1, "X": 1e6})
        assert "x_below_v4" not in ok.validity
        low = predict_tail("critical_poly", 40.0, {"m": 1, "X": 1e6})
        assert "x_below_v4" in low.validity
        assert low.exponent > 0      # value still returned

    def test_strip_range_flag(self):
        # strip_poly wants X >= V^{4 sigma/(1-sigma)} = V^12 at sigma = 0.75
        low = predict_tail("strip_poly", 10.0, {"m": 0, "sigma": 0.75, "X": 1e10})
        assert "x_below_strip_range" in low.validity
        ok = predict_tail("strip_poly", 10.0, {"m": 0, "sigma": 0.75, "X": 1e13})
        assert "x_below_strip_range" not in ok.validity

    def test_t_flags_only_with_t(self):
        bare = predict_tail("critical_poly", 10.0, {"m": 1, "X": 1e6})
        assert not any(f.startswith("v_above") for f in bare.validity)
        with_t = predict_tail("critical_poly", 10.0,
                              {"m": 1, "X": 1e6, "T": 1e6})
        assert "v_above_a2" in with_t.validity
        assert "x_above_a3" in with_t.validity

    def test_theta_ignored(self):
        a = predict_tail("strip_eta", 50.0, {"m": 0, "sigma": 0.6})
        b = predict_tail("strip_eta", 50.0, {"m": 0, "sigma": 0.6, "theta": 1.2})
        assert a.exponent == b.exponent

    def test_parameter_errors(self):
        with pytest.raises(ValueError, match="requires --X$"):
            predict_tail("critical_poly", 10.0, {"m": 1})
        with pytest.raises(ValueError, match="requires --T$"):
            predict_tail("critical_eta", 10.0, {"m": 1})
        with pytest.raises(ValueError, match="requires --sigma$"):
            predict_tail("strip_eta", 10.0, {"m": 0})
        with pytest.raises(ValueError, match="unknown family"):
            predict_tail("elsewhere", 10.0, {"m": 1})
        with pytest.raises(ValueError, match="V must be"):
            predict_tail("critical_eta", 2.0, {"m": 1, "T": 1e6})
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"V must be finite, got {bad}"):
                predict_tail("strip_eta", bad, {"m": 0, "sigma": 0.75})
        with pytest.raises(ValueError, match="m >= 1"):
            predict_tail("critical_eta", 10.0, {"m": 0, "T": 1e6})
        with pytest.raises(ValueError, match="pinned"):
            predict_tail("critical_poly", 10.0, {"m": 1, "X": 1e6, "sigma": 0.6})
        with pytest.raises(ValueError, match="sigma in"):
            predict_tail("strip_eta", 10.0, {"m": 0, "sigma": 0.5})
        with pytest.raises(ValueError, match="too small"):
            # log V^2 / log X >= 1 kills the denominator
            predict_tail("critical_poly", 10.0, {"m": 1, "X": 50.0})


class TestTrimSet:
    """The trimmed set {|Z(t_j)| <= W}, through the log of its measure
    fraction: exp_moment_trimmed at x = 0."""

    def test_wide_w_keeps_everything(self, table31, grid1e4, abs_sum_08):
        assert exp_moment_trimmed(SPEC08, table31, grid1e4, 0.0,
                                  abs_sum_08 + 1.0) == (0.0, 0.0)

    def test_zero_w_drops_everything(self, table31, grid1e4):
        with pytest.raises(ValueError, match="empty"):
            exp_moment_trimmed(SPEC08, table31, grid1e4, 0.0, 1e-300)
        with pytest.raises(ValueError, match="positive"):
            exp_moment_trimmed(SPEC08, table31, grid1e4, 0.0, 0.0)

    def test_complement_monotone_in_w(self, table31, grid1e4):
        fracs = [-math.expm1(exp_moment_trimmed(SPEC08, table31, grid1e4,
                                                0.0, w)[0])
                 for w in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[0] > fracs[-1]
