"""Moment route cross-checks: I0 product vs contour vs grid averages, and
the product against an in-test even-exponent enumeration."""

import itertools
import math
import platform
from fractions import Fraction

import numpy as np
import pytest

from zel import moments, prime_poly
from zel.moments import (
    MomentResult,
    bessel_product,
    contour_moment,
    empirical_moment,
    exact_moment,
    exp_moment_trimmed,
    _saddle_radius,
)
from zel.prime_poly import PolySpec, PrimeTable, TGrid, iter_poly_blocks, sieve
from zel.special_fn import g_constant

SPEC31 = PolySpec(m=1, sigma=0.5, theta=0.0, X=31.0)
PRIMES31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def f_value(n: int) -> Fraction:
    """Multiplicative extension of f(p^alpha) = 2^-alpha C(alpha, alpha/2).

    Vanishes whenever any prime divides n to an odd power, so it is
    supported on the squarefull-with-even-exponents integers.
    """
    if n < 1:
        raise ValueError(f"f_value wants n >= 1, got {n}")
    out = Fraction(1)
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            alpha = 0
            while rest % d == 0:
                rest //= d
                alpha += 1
            if alpha % 2:
                return Fraction(0)
            out *= Fraction(math.comb(alpha, alpha // 2), 2 ** alpha)
        d += 1 if d == 2 else 2
    if rest > 1:
        return Fraction(0)          # leftover prime appears to the first power
    return out


def _even_exponent_terms(factors, i, budget, prod, out):
    # factors[i] maps even exponent a >= 2 to the full per-prime factor
    if budget == 0:
        out.append(prod)
        return
    if i == len(factors):
        return
    _even_exponent_terms(factors, i + 1, budget, prod, out)
    for a, fac in factors[i].items():
        if a <= budget:
            _even_exponent_terms(factors, i + 1, budget - a, prod * fac, out)


def enumerated_moment(m, sigma, X, k):
    """k! sum_{Omega(n)=k} f(n) g_X(n) n^-sigma over every even exponent
    vector, with f(p^a) = 2^-a C(a, a/2) and g_X(p^a) = 1/(a! (log p)^{am})
    taken prime power by prime power (the enumeration exact_moment used
    before it became an I0 product)."""
    if k % 2:
        return 0.0
    factors = []
    for p in sieve(int(X)).tolist():
        factors.append({
            a: (float(Fraction(math.comb(a, a // 2), 2 ** a))
                * (1.0 / (math.factorial(a) * math.log(p) ** (a * m)))
                * p ** (-sigma * a))
            for a in range(2, k + 1, 2)})
    terms = []
    _even_exponent_terms(factors, 0, k, 1.0, terms)
    return math.factorial(k) * math.fsum(terms)


@pytest.fixture(scope="module")
def table31():
    return PrimeTable.build(31)


@pytest.fixture(scope="module")
def grid1e5():
    return TGrid.for_span(1e5, 31.0)


class TestWeights:
    def test_f_value_examples(self):
        assert f_value(1) == 1
        assert f_value(4) == Fraction(1, 2)
        assert f_value(36) == Fraction(1, 4)
        assert f_value(16) == Fraction(3, 8)

    def test_f_value_odd_exponents_vanish(self):
        assert f_value(2) == 0
        assert f_value(12) == 0          # 2^2 * 3
        assert f_value(97) == 0          # big leftover prime
        assert f_value(8) == 0

    def test_f_value_multiplicative(self):
        assert f_value(4 * 9) == f_value(4) * f_value(9)
        assert f_value(4 * 25 * 49) == f_value(4) * f_value(25) * f_value(49)

    def test_f_value_validation(self):
        with pytest.raises(ValueError):
            f_value(0)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            MomentResult(k=0, value=1.0, method="contour", err_estimate=0.0)
        with pytest.raises(ValueError):
            MomentResult(k=2, value=1.0, method="psychic", err_estimate=0.0)
        with pytest.raises(ValueError):
            MomentResult(k=2, value=1.0, method="contour", err_estimate=-1.0)


class TestExactMoment:
    def test_k2_closed_form(self):
        # only n = p^2 survive: 2! f(p^2) g(p^2) p^-2s = p^-2s (log p)^-2m / 2
        got = exact_moment(SPEC31, 2)
        want = 0.5 * math.fsum(
            p ** -1.0 * math.log(p) ** -2.0 for p in PRIMES31)
        assert got.method == "exact_multiplicative"
        assert got.err_estimate == 0.0
        assert got.value == pytest.approx(want, rel=1e-14)

    def test_odd_k_exactly_zero(self):
        for k in (1, 3, 5, 7):
            assert exact_moment(SPEC31, k).value == 0.0

    def test_k4_x10_brute_force(self):
        # every exponent vector on {2,3,5,7} summing to 4, odd ones included
        # (they must contribute nothing)
        spec = PolySpec(m=1, sigma=0.5, theta=0.0, X=10.0)
        ps = [2, 3, 5, 7]
        total = 0.0
        for exps in itertools.product(range(5), repeat=4):
            if sum(exps) != 4:
                continue
            term = 1.0
            for p, a in zip(ps, exps):
                if a % 2:
                    term = 0.0
                    break
                term *= (math.comb(a, a // 2) / 2 ** a
                         / (math.factorial(a) * math.log(p) ** a)
                         * p ** (-0.5 * a))
            total += term
        want = math.factorial(4) * total
        assert exact_moment(spec, 4).value == pytest.approx(want, rel=1e-14)

    def test_product_matches_enumeration(self):
        # (X, k) = (113, 12) enumerates 1.6M terms (~0.8 s), so that corner
        # runs at one (m, sigma); the rest of the grid runs in ~0.3 s
        cases = [(m, sigma, X, k) for m in (0, 1, 2, 5) for sigma in (0.5, 0.75)
                 for X in (3.0, 31.0, 113.0) for k in (2, 4, 6, 8, 12)
                 if (X, k) != (113.0, 12)] + [(1, 0.5, 113.0, 12)]
        for m, sigma, X, k in cases:
            want = enumerated_moment(m, sigma, X, k)
            got = exact_moment(PolySpec(m=m, sigma=sigma, theta=0.0, X=X), k)
            assert got.value == pytest.approx(want, rel=1e-14), (m, sigma, X, k)

    def test_past_double_range_raises(self):
        # (log 2)^-500 ~ 1e79, so w_2^6 ~ 1e474; at m = 1000, w_2^2 ~ 1e318
        for m, X, k in ((500, 31.0, 6), (1000, 3.0, 2)):
            with pytest.raises(RuntimeError, match="passes the double range"):
                exact_moment(PolySpec(m=m, sigma=0.5, theta=0.0, X=X), k)

    def test_theta_free(self):
        a = exact_moment(SPEC31, 4).value
        b = exact_moment(PolySpec(m=1, sigma=0.5, theta=1.1, X=31.0), 4).value
        assert a == b

    def test_budget_errors(self):
        # the contour route's caps: k <= 170 and 100,000 primes (X = 1,299,709)
        for k in (0, 171):
            with pytest.raises(ValueError, match="1 <= k <= 170"):
                exact_moment(SPEC31, k)
        with pytest.raises(ValueError, match="100001 primes <= X exceeds"):
            exact_moment(PolySpec(m=1, sigma=0.5, theta=0.0, X=1299721.0), 2)
        assert exact_moment(SPEC31, 170).value > 0.0

    @pytest.mark.parametrize("X,sigma,m,k", [
        (1e4, 0.5, 1, 12), (1e3, 0.5, 1, 100),
        # moment ~6e-16 is 1e-322 before k!: its terms would be subnormal
        (3.0, 0.99, 0, 170), (3.0, 0.9, 0, 170), (31.0, 0.99, 0, 170)])
    def test_matches_contour_past_old_limits(self, X, sigma, m, k):
        spec = PolySpec(m=m, sigma=sigma, theta=0.0, X=X)
        want = contour_moment(spec, k, PrimeTable.build(int(X))).value
        # abs=0: approx's default 1e-12 floor would pass any 6e-16 value
        assert exact_moment(spec, k).value == pytest.approx(want, rel=1e-12,
                                                            abs=0.0)


class TestContourMoment:
    def test_matches_exact_even_k(self, table31):
        for k in (2, 4, 6):
            want = exact_moment(SPEC31, k).value
            got = contour_moment(SPEC31, k, table31)
            assert got.method == "contour"
            assert got.flags == ()
            assert got.value == pytest.approx(want, rel=1e-10)
            assert got.err_estimate <= 1e-10 * abs(want)

    def test_odd_k_roundoff_scale(self, table31):
        scale = exact_moment(SPEC31, 2).value
        for k in (1, 3, 5):
            got = contour_moment(SPEC31, k, table31)
            assert abs(got.value) <= 1e-12 * scale

    def test_k8_node_doubling_stable(self):
        spec = PolySpec(m=1, sigma=0.5, theta=0.0, X=1e4)
        table = PrimeTable.build(10_000)
        got = contour_moment(spec, 8, table)
        assert math.isfinite(got.value) and got.value > 0
        assert got.err_estimate <= 1e-10 * got.value
        assert "node_limit" not in got.flags

    def test_theta_free(self, table31):
        rot = PolySpec(m=1, sigma=0.5, theta=0.9, X=31.0)
        assert (contour_moment(rot, 4, table31).value
                == contour_moment(SPEC31, 4, table31).value)

    def test_saddle_residual(self, table31):
        from scipy import special as sc
        # X = 31 weights, plus weights whose saddle lies far outside any
        # fixed bracket: R ~ 5e9 for c = 1e-9, R ~ 1e-79 at m = 500, X = 3
        cases = [(table31.weights(1, 0.5, 31.0), k) for k in (2, 6, 12)]
        cases += [(np.array([1e-9]), 5), (table31.weights(500, 0.5, 3.0), 2)]
        for c, k in cases:
            r = _saddle_radius(c, k)
            x = r * c
            assert r * float(np.dot(c, sc.i1e(x) / sc.i0e(x))) == pytest.approx(
                k, rel=1e-12)


class TestEmpiricalMoment:
    def test_k1_near_zero(self, table31, grid1e5):
        got, = empirical_moment(SPEC31, table31, grid1e5, (1,))
        assert abs(got.value) <= 5 * 31.0 ** 2 / 1e5
        assert got.err_estimate >= 31.0 ** 2 / 1e5

    def test_k2_matches_exact(self, table31, grid1e5):
        want = exact_moment(SPEC31, 2).value
        got, = empirical_moment(SPEC31, table31, grid1e5, (2,))
        assert got.value == pytest.approx(want, rel=1e-4)

    def test_k4_k6_match_exact(self, table31, grid1e5):
        for got in empirical_moment(SPEC31, table31, grid1e5, (4, 6)):
            want = exact_moment(SPEC31, got.k).value
            assert got.value == pytest.approx(want, rel=1e-3)

    def test_theta_invariance(self, table31, grid1e5):
        vals = [empirical_moment(
            PolySpec(m=1, sigma=0.5, theta=th, X=31.0), table31, grid1e5,
            (2,))[0].value for th in (0.0, 0.7, math.pi / 2)]
        for a, b in itertools.combinations(vals, 2):
            assert a == pytest.approx(b, rel=1e-3)

    def test_single_prime_cosine_square(self):
        # table holding only p=2: P(t) = w cos(t log 2 + theta), mean square
        # w^2/2 up to the O(4/T) boundary term
        table = PrimeTable(limit=3, primes=np.array([2], dtype=np.int64),
                           logs=np.log(np.array([2.0])))
        spec = PolySpec(m=1, sigma=0.5, theta=0.3, X=3.0)
        got, = empirical_moment(spec, table, TGrid.for_span(1e4, 3.0), (2,))
        want = 0.5 * 2.0 ** -1.0 * math.log(2.0) ** -2.0
        assert got.value == pytest.approx(want, abs=1e-3)

    def test_overflow_guard(self, table31, grid1e5):
        huge_x = PolySpec(m=1, sigma=0.5, theta=0.0, X=1e15)
        with pytest.raises(OverflowError):
            empirical_moment(huge_x, table31, grid1e5, (2, 12))

    def test_validation(self, table31, grid1e5):
        with pytest.raises(ValueError):
            empirical_moment(SPEC31, table31, grid1e5, (2, 0))
        with pytest.raises(ValueError):
            empirical_moment(SPEC31, table31, grid1e5, ())


@pytest.mark.skipif(platform.system() != "Linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts of glibc's allocator")
def test_empirical_pass_is_fault_stable(table31):
    """An empirical_moment pass reuses its buffers: under 20 minor page
    faults per block once warm.

    With a fresh 512 KB array per block for the GEMM output and for each
    power, glibc trims the heap top after every block and faults it back
    in: 263 minor faults per block measured that way (about 13.7k for
    this 51-block pass, and a slower run despite the cheaper arithmetic),
    against about 8 per block with the pass's own buffers.
    """
    import resource                 # POSIX only, like the skip condition

    spec = PolySpec(m=1, sigma=0.5, theta=0.7, X=31.0)
    grid = TGrid.for_span(1e6, 31.0)
    blocks = -(-2 * grid.count // prime_poly.NUFFT_BLOCK)
    assert blocks >= 50
    empirical_moment(spec, table31, grid, (2, 4, 6))        # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    empirical_moment(spec, table31, grid, (2, 4, 6))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20 * blocks, f"{faults} minor faults over {blocks} blocks"


class TestBesselProduct:
    def test_x_zero(self, table31):
        assert bessel_product(SPEC31, table31, 0.0) == 0.0

    def test_exp_upper_bound(self, table31):
        w_sum = float(table31.weights(1, 0.5, 31.0).sum())
        for x in (0.5, 2.0, 10.0):
            assert bessel_product(SPEC31, table31, x) <= x * w_sum

    def test_against_mpmath(self, table31):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        x = 3.0
        want = float(math.fsum(
            float(mp.log(mp.besseli(0, x * p ** -0.5 / math.log(p))))
            for p in PRIMES31))
        assert bessel_product(SPEC31, table31, x) == pytest.approx(
            want, rel=1e-12)

    def test_density_tail_matches_sieved(self):
        # hybrid (small table + density integral) vs fully sieved product
        small = PrimeTable.build(10_000)
        full = PrimeTable.build(1_000_000)
        for m, sigma, x in ((1, 0.5, 3.0), (1, 0.5, 100.0), (0, 0.75, 50.0)):
            spec = PolySpec(m=m, sigma=sigma, theta=0.0, X=1e6)
            hybrid = bessel_product(spec, small, x)
            sieved = bessel_product(spec, full, x)
            assert hybrid == pytest.approx(sieved, rel=1e-3)

    def test_strip_window_constant(self):
        # relative deviation from G(sigma) x^{1/sigma}/(log x)^{m/sigma+1}
        # stays within C/log x, C <= 10, on the desk ladder
        table = PrimeTable.build(1_000_000)
        G = g_constant(0.75)
        for x in (1e3, 1e4, 1e5):
            spec = PolySpec(m=0, sigma=0.75, theta=0.0, X=x ** 3)
            dev = abs(bessel_product(spec, table, x)
                      / (G * x ** (4.0 / 3.0) / math.log(x)) - 1.0)
            assert dev <= 10.0 / math.log(x)

    def test_validation(self, table31):
        with pytest.raises(ValueError):
            bessel_product(SPEC31, table31, -1.0)


class TestExpMomentTrimmed:
    def test_x_zero_full_window_is_log_one(self, table31, grid1e5):
        w_sum = float(table31.weights(1, 0.5, 31.0).sum())
        assert exp_moment_trimmed(SPEC31, table31, grid1e5, 0.0,
                                  w_sum + 1.0) == (0.0, 0.0)

    def test_x_zero_is_log_measure_fraction(self, table31, grid1e5):
        val, _ = exp_moment_trimmed(SPEC31, table31, grid1e5, 0.0, 2.0)
        # independent count of the trimmed fraction
        from zel.prime_poly import iter_poly_blocks
        kept = sum(int(np.count_nonzero(np.abs(z) <= 2.0))
                   for _, z in iter_poly_blocks(SPEC31, table31, grid1e5))
        assert 0 < kept < grid1e5.count
        assert val == pytest.approx(math.log(kept / grid1e5.count), abs=1e-14)

    def test_identity_with_bessel_product(self, table31, grid1e5):
        # W far above the polynomial's sup: nothing trimmed, the average
        # reproduces the I0 product at desk accuracy
        got, _ = exp_moment_trimmed(SPEC31, table31, grid1e5, 2.0, 20.0)
        want = bessel_product(SPEC31, table31, 2.0)
        assert got == pytest.approx(want, rel=1e-4)

    def test_integral_monotone_in_w(self, table31, grid1e5):
        # same normalizer, so the logged value is monotone with the sum
        vals = [exp_moment_trimmed(SPEC31, table31, grid1e5, 2.0, W)[0]
                for W in (1.0, 2.0, 3.0, 20.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_empty_trim_raises(self, table31, grid1e5):
        with pytest.raises(ValueError, match="empty"):
            exp_moment_trimmed(SPEC31, table31, grid1e5, 1.0, 1e-12)

    def test_validation(self, table31, grid1e5):
        with pytest.raises(ValueError):
            exp_moment_trimmed(SPEC31, table31, grid1e5, -1.0, 2.0)
        with pytest.raises(ValueError):
            exp_moment_trimmed(SPEC31, table31, grid1e5, 1.0, 0.0)


class TestOnePassAgainstTwoPasses:
    """The one-pass reducers against plain passes over both grids.

    BLOCK_ROWS = 7 with 3-column chunks makes 21-point blocks, so half of
    them start at an odd index of the half-spacing grid; the base points
    must still be picked by their global index.
    """

    KS = (1, 2, 3, 4, 6)

    @staticmethod
    def _values(spec, table, grid):
        ct, st = math.cos(spec.theta), math.sin(spec.theta)
        z = np.concatenate([z for _, z in iter_poly_blocks(spec, table, grid)])
        return ct * z.real + st * z.imag, np.abs(z)

    @pytest.fixture
    def odd_blocks(self, monkeypatch):
        """(j_start, rotated) of every block the reducers draw."""
        starts = []

        def blocks(spec, table, grid, **kw):
            for j0, z in iter_poly_blocks(spec, table, grid, **kw):
                starts.append((j0, kw.get("rotated", False)))
                yield j0, z

        monkeypatch.setattr(prime_poly, "BLOCK_ROWS", 7)
        monkeypatch.setattr(prime_poly, "CHUNK_COLS", 3)
        monkeypatch.setattr(moments, "iter_poly_blocks", blocks)
        return starts

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_empirical_moment(self, table31, odd_blocks, theta):
        spec = PolySpec(m=1, sigma=0.5, theta=theta, X=31.0)
        grid = TGrid.for_span(1e3, 31.0)
        half = TGrid(t0=grid.t0, count=2 * grid.count, delta=grid.delta / 2)
        p_base, _ = self._values(spec, table31, grid)
        p_half, _ = self._values(spec, table31, half)

        got = empirical_moment(spec, table31, grid, self.KS)
        # the odd starts are those of the rotated (real GEMM) stream
        assert all(rotated for _, rotated in odd_blocks)
        assert any(j0 % 2 for j0, _ in odd_blocks)
        for res, k in zip(got, self.KS):
            value = math.fsum(p_base ** k) / grid.count
            refined = math.fsum(p_half ** k) / half.count
            err = abs(refined - value) + 31.0 ** (2 * k) / (grid.count * grid.delta)
            scale = float(np.mean(np.abs(p_base) ** k))
            assert res.k == k
            assert abs(res.value - value) <= 1e-12 * max(abs(value), scale)
            assert res.err_estimate == pytest.approx(err, rel=1e-12)

    @pytest.mark.parametrize("W", [2.0, 20.0])
    def test_exp_moment_trimmed(self, table31, odd_blocks, W):
        grid = TGrid.for_span(1e3, 31.0)
        half = TGrid(t0=grid.t0, count=2 * grid.count, delta=grid.delta / 2)
        want = []
        for g in (grid, half):
            p, mod = self._values(SPEC31, table31, g)
            want.append(math.log(math.fsum(np.exp(2.0 * p[mod <= W]))
                                 / g.count))

        got = exp_moment_trimmed(SPEC31, table31, grid, 2.0, W)
        assert any(j0 % 2 for j0, _ in odd_blocks)
        assert got == pytest.approx(tuple(want), rel=1e-12)
