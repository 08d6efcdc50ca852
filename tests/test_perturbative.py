import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, ellipk

import gphase.perturbative as perturbative
from conftest import OMEGA, chain, field_grid, point, points, rows, two_level
from gphase.errors import PerturbativeBreakdown, QuadratureNonconvergence, ValidationError
from gphase.gp import SystemParams, build_trace, geometric_phase
from gphase.ising import IsingBathParams, decoherence_product, dispersion, momenta
from gphase.perturbative import (
    _INTEGRANDS,
    _QK21_GAUSS,
    _QK21_KRONROD,
    _QK21_NODES,
    _QUAD_TOL,
    _assemble,
    _f3_bracket,
    _one_minus_sinc,
    _panel_quad,
    gp_approx_ising,
    ising_closed_forms,
    IsingClosedForms,
)
from gphase.reference import (
    StencilConditioning,
    extract_coefficients_numeric,
    gp_third_order,
    mode_coefficients,
    two_level_order2,
)
from gphase.two_level import decoherence_factor_oracle, oracle_trace


class TestElliptic:
    """scipy's ellipk and ellipe, the routines G1 calls, against their integrals."""

    def test_against_defining_integrals(self):
        m = 0.5
        k_ref, _ = quad(lambda t: 1.0 / np.sqrt(1 - m * np.sin(t) ** 2), 0, np.pi / 2,
                        epsabs=1e-14, epsrel=1e-14)
        e_ref, _ = quad(lambda t: np.sqrt(1 - m * np.sin(t) ** 2), 0, np.pi / 2,
                        epsabs=1e-14, epsrel=1e-14)
        assert ellipk(m) == pytest.approx(k_ref, abs=1e-12)
        assert ellipe(m) == pytest.approx(e_ref, abs=1e-12)

    # the other values of m are G1 fields lam = m^(-1/2) of test_g1_against_mpmath
    @pytest.mark.parametrize("m", [0.5])
    def test_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            k_ref, e_ref = mpmath.ellipk(m), mpmath.ellipe(m)
            assert abs((ellipk(m) - k_ref) / k_ref) <= 1e-15
            assert abs((ellipe(m) - e_ref) / e_ref) <= 1e-15


def two_level_sampler(delta, t):
    return decoherence_factor_oracle(two_level(coupling=delta)[1], t)


class TestExtraction:
    def test_two_level_short_time_decay(self):
        sp, _ = two_level()
        times = np.linspace(0, sp.tau, 513)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        assert np.min(co.R2) > -1e-9
        # quadratic onset: R2 ~ c t^2 for small t
        c1 = co.R2[1] / times[1] ** 2
        c4 = co.R2[4] / times[4] ** 2
        assert c4 == pytest.approx(c1, rel=0.02)

    def test_single_mode_coefficients(self):
        # chain with one positive momentum (N = 2, k = pi/2): extraction must
        # reproduce the analytic per-mode coefficients
        times = np.linspace(0, 4.0, 129)

        def sampler(delta, t):
            return decoherence_product(IsingBathParams(2, 1.0, 0.7, delta), t)

        co = extract_coefficients_numeric(sampler, times, h=1e-4)
        r2, r3, p1 = mode_coefficients(0.7, np.pi / 2, times)
        assert np.max(np.abs(co.R2 - r2)) < 1e-6
        assert np.max(np.abs(co.R3 - r3)) < 1e-3
        assert np.max(np.abs(co.phi1 - p1)) < 1e-9

    def test_chain_phase_slope_matches_g1(self):
        p, sp = chain(0.5)
        times = np.linspace(0, sp.tau, 257)

        def sampler(delta, t):
            return decoherence_product(replace(p, coupling=delta), t)

        co = extract_coefficients_numeric(sampler, times, h=1e-4)
        g1 = ising_closed_forms(p, sp).g1(0.5)
        assert co.phi1[-1] / times[-1] == pytest.approx(g1, rel=1e-4)

    def test_stencil_self_consistency(self):
        times = np.linspace(0, 4.0, 65)

        def sampler(delta, t):
            return decoherence_product(IsingBathParams(2, 1.0, 0.7, delta), t)

        a = extract_coefficients_numeric(sampler, times, h=1e-4)
        b = extract_coefficients_numeric(sampler, times, h=5e-5)
        scale = np.max(np.abs(a.R2))
        assert np.max(np.abs(a.R2 - b.R2)) / scale < 1e-6
        assert np.max(np.abs(a.phi1 - b.phi1)) / np.max(np.abs(a.phi1)) < 1e-6

    def test_bad_stencil_detected(self):
        # a sampler with |r| > 1 has negative R2; must be flagged
        def sampler(delta, t):
            return np.sqrt(1.0 + delta**2 * t**2) + 0j

        with pytest.raises(StencilConditioning):
            extract_coefficients_numeric(sampler, np.linspace(0, 1, 33), h=1e-3)


class TestThirdOrder:
    def test_zero_coupling(self):
        sp, _ = two_level(theta=np.pi / 3)
        times = np.linspace(0, sp.tau, 257)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        out = gp_third_order(co, sp, 0.0)
        assert out.order2 == 0.0
        assert out.order3 == 0.0

    def test_equator_null(self):
        sp, _ = two_level(theta=np.pi / 2)
        times = np.linspace(0, sp.tau, 257)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        out = gp_third_order(co, sp, 0.05 * OMEGA)
        assert out.order2 == pytest.approx(0.0, abs=1e-12)
        assert out.order3 == pytest.approx(0.0, abs=1e-12)

    def test_residual_fourth_order(self):
        # halving the coupling shrinks the third-order residual ~16x
        sp, _ = two_level()
        times = np.linspace(0, sp.tau, 2049)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        res = []
        for d in (0.02 * OMEGA, 0.01 * OMEGA):
            _, bath = two_level(coupling=d)
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096)
            exact = geometric_phase(tr, sp).correction
            res.append(abs(gp_third_order(co, sp, d).order3 - exact))
        assert res[0] / res[1] == pytest.approx(16.0, rel=0.35)

    def test_grid_must_cover_cycle(self):
        sp, _ = two_level()
        times = np.linspace(0, sp.tau / 2, 129)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        with pytest.raises(ValidationError):
            gp_third_order(co, sp, 0.01 * OMEGA)


class TestOneQubitBathOrder2:
    def test_matches_the_oracle_to_third_order(self):
        # the paper-fig1c fields at Delta = 0.02 Omega: the closed second order
        # is 2.75 delta/Delta off the oracle at worst, a residual of O(delta^3)
        gap = point("gp-curve")["delta_gap"]
        worst = []
        for delta in (1e-2 * gap, 1e-3 * gap):
            dev = 0.0
            for b in field_grid():
                sp, p = two_level(b_field=b, coupling=delta)
                exact = geometric_phase(oracle_trace(p, sp, 4096), sp).correction
                dev = max(dev, abs(exact / two_level_order2(p, sp) - 1.0))
            worst.append(dev)
        assert worst[0] < 3e-2 and worst[1] < 3e-3
        assert 9.0 <= worst[0] / worst[1] <= 11.0


def _mode_sum(name, n_spins, lam, t_period=2.0 * np.pi):
    """The finite-N order: the table's integrand summed over the chain's momenta."""
    k = momenta(n_spins)
    return float(np.sum(_INTEGRANDS[name](k, dispersion(lam, k), lam, t_period)))


class TestFiniteSizeLaws:
    """The critical decay of the echo (Quan et al., PRL 96, 140604 (2006)) as
    finite-size laws of the weak-coupling orders.  Each holds for the sums over
    the N-spin chain's momenta and fails for the continuum closed forms."""

    def test_finite_size_collapse_of_F2(self):
        # the relative gap of the sum to the continuum F2 is Phi(N (lam - 1))/N,
        # peaked at N (lam - 1) = 1.3-1.4
        x = np.linspace(-4.0, 4.0, 81)
        peaks, at = [], []
        for n in (100, 400, 1600, 6400):
            cf = IsingClosedForms(n_spins=n, t_period=2.0 * np.pi)
            gap = [abs(_mode_sum("F2", n, 1.0 + xi / n) / cf.F2(1.0 + xi / n) - 1.0) for xi in x]
            peaks.append(n * max(gap))
            at.append(x[np.argmax(gap)])
        np.testing.assert_allclose(peaks, [5.5098, 5.0043, 4.8927, 4.8653], rtol=1e-3)
        assert all(1.25 < xi < 1.45 for xi in at)
        # off the window the gap closes exponentially in N
        gaps = [abs(_mode_sum("F2", n, 0.9) / IsingClosedForms(n, 2.0 * np.pi).F2(0.9) - 1.0)
                for n in (100, 200, 400)]
        assert 1.1e-4 < gaps[0] < 1.3e-4 and 3e-9 < gaps[1] < 3.4e-9 and gaps[2] < 1e-14

    def test_finite_size_log_slope_of_G1(self):
        # d/dlam of G1's mode sum, 4 (lam - cos k)/e_k, is 16 sin^2 k/e_k^3 mode by mode
        k, lam, h = momenta(100), 0.999, 1e-6
        g1 = [np.sum(4.0 * (x - np.cos(k)) / dispersion(x, k)) for x in (lam - h, lam + h)]
        slope = np.sum(16.0 * np.sin(k) ** 2 / dispersion(lam, k) ** 3)
        assert (g1[1] - g1[0]) / (2.0 * h) == pytest.approx(slope, rel=1e-6)
        # its peak per spin near lam = 1 grows as (ln N)/pi: ln 4/pi per factor 4
        # in N, where the continuum G1/N is one curve for every N
        lams = 0.997 + 1e-5 * np.arange(401)
        peaks = []
        for n in (100 * 4**j for j in range(5)):
            k = momenta(n)
            peaks.append(max(np.sum(16.0 * np.sin(k) ** 2 / dispersion(x, k) ** 3)
                             for x in lams) / n)
        np.testing.assert_allclose(peaks, [1.6303, 2.0702, 2.5114, 2.9526, 3.3939], atol=1e-4)
        np.testing.assert_allclose(np.diff(peaks), np.log(4.0) / np.pi, atol=2e-3)

    def test_critical_window_against_exact_pipeline(self):
        # lam in [0.9, 1.1], the window C07 leaves out, at N = 100: order 3 from
        # the mode sums is within 6.1e-5 of the exact pipeline, the continuum
        # closed forms are 3.5e-2 off at lam = 0.99
        window = {"lambda_min": 0.9, "lambda_max": 1.1, "lambda_points": 21}
        exact, _, continuum = rows("ising-sweep", **window).T
        sums = []
        for q, ex in zip(points("ising-sweep", **window), exact):
            p, sp = chain(q["lambda"])
            n, lam, k = p.n_spins, p.lam, momenta(p.n_spins)
            f2, F2, F3 = (_mode_sum(name, n, lam, sp.tau) for name in ("f2", "F2", "F3"))
            g1 = np.sum(4.0 * (lam - np.cos(k)) / dispersion(lam, k))
            order3 = _assemble(sp.theta, sp.omega, p.coupling, int_r2=F2, r2_end=f2,
                               p1_end=sp.tau * g1, int_r3=F3, int_cross=g1 * F2).order3
            sums.append(abs(order3 / (n * p.coupling**2 * ex) - 1.0))
        assert max(sums) < 1e-4
        assert max(np.abs(continuum / exact - 1.0)) > 1e-2


class TestClosedForms:
    def test_g1_critical_value(self):
        cf = ising_closed_forms(*chain(1.0))
        assert cf.g1(1.0) == pytest.approx(200.0 / np.pi, abs=1e-12)

    def test_g1_vs_discrete_sum(self):
        cf = ising_closed_forms(*chain(0.5))
        k = momenta(100)
        eps = 2.0 * np.sqrt(1 + 0.25 - np.cos(k))
        ksum = np.sum(4.0 * (0.5 - np.cos(k)) / eps)
        assert cf.g1(0.5) == pytest.approx(ksum, rel=1e-3)

    def test_g1_continuity_near_zero(self):
        cf = ising_closed_forms(
            IsingBathParams(100, 1.0, 0.0, 0.0), SystemParams(omega=1.0, theta=0.5)
        )
        # series: G1 ~ N lam / 2 for small lam
        assert cf.g1(1e-7) == pytest.approx(100 * 1e-7 / 2, rel=1e-4)
        assert cf.g1(1e-3) == pytest.approx(100 * 1e-3 / 2, rel=1e-2)

    @pytest.mark.parametrize("lam", [
        -1e-9, 1e-9, 1e-7, 1e-6, 1e-4, 0.005, 0.3, 0.4999999, 0.5, 0.9, 0.995, 0.999999,
        1.0 - 3e-9, 1.0, 1.0 + 3e-9, 1.2, 1.5, 2.0,
        # E(1/lam^2) at 1/lam^2 = 1 - 1e-12, 1 - 1e-6, 0.9, 0.1, 1e-12 and 0
        *(m**-0.5 for m in (1.0 - 1e-12, 1.0 - 1e-6, 0.9, 0.1, 1e-12)), np.inf])
    def test_g1_against_mpmath(self, lam):
        # (lam+1) E(m) + (lam-1) K(m), m = 4 lam/(1 + lam)^2, cancels to O(lam)
        # at small lam, and m rounds to 1 at 1 -+ 3e-9, where K(m) is infinite;
        # the R_D form below lam = 1 and E(1/lam^2) above keep G1 to 1e-15; at
        # lam = inf the integrand is 2 and G1 is N
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            L = mpmath.mpf(lam)
            def integrand(k):
                e = 2 * mpmath.sqrt((1 - L) ** 2 + 4 * L * mpmath.sin(k / 2) ** 2)
                return 4 * (L - mpmath.cos(k)) / e

            if lam == 1.0:
                ref = 200 / mpmath.pi
            elif lam == np.inf:
                ref = 100
            else:
                ref = 100 / (2 * mpmath.pi) * mpmath.quad(
                    integrand, [0, mpmath.mpf("1e-8"), mpmath.mpf("1e-4"), 0.1, mpmath.pi])
        cf = IsingClosedForms(n_spins=100, t_period=2.0 * np.pi)
        assert abs((cf.g1(lam) - ref) / ref) <= 1e-15

    def test_negative_lam_by_symmetry(self):
        # k -> pi - k: f2 and F2 are even in lam, F3 and G1 odd
        cf = IsingClosedForms(n_spins=100, t_period=2.0 * np.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (0.3, 1.0 - 1e-5, 1.0 + 1e-8, 1.7):
                assert cf.f2(-lam) == cf.f2(lam) and cf.F2(-lam) == cf.F2(lam)
                assert cf.F3(-lam) == -cf.F3(lam) and cf.g1(-lam) == -cf.g1(lam)
        # against the mode sum at -lam directly, k = pi - k' unmapped
        k = momenta(100)
        ksum = np.sum(4.0 * (-0.5 - np.cos(k)) / dispersion(-0.5, k))
        assert cf.g1(-0.5) == pytest.approx(ksum, rel=1e-3)

    def test_f2_positive(self):
        cf = ising_closed_forms(
            IsingBathParams(100, 1.0, 0.0, 0.0), SystemParams(omega=1.0, theta=0.5)
        )
        for lam in (0.1, 0.5, 1.0, 1.4, 1.9):
            assert cf.F2(lam) >= 0.0

    def test_f2_is_time_integral_of_r2(self):
        # independent route: Simpson in t of the k-integrated R2 coefficient
        cf = ising_closed_forms(
            IsingBathParams(40, 1.0, 0.0, 0.0), SystemParams(omega=1.0, theta=0.5)
        )
        lam, nt = 0.7, 4097
        times = np.linspace(0, cf.t_period, nt)
        k = momenta(4000)  # dense grid stands in for the k-integral
        r2 = np.zeros(nt)
        for i, t in enumerate(times):
            r2k, _, _ = mode_coefficients(lam, k, t)
            r2[i] = np.mean(r2k) * 40 / 2.0  # (N/2pi) * pi * mean
        w = np.ones(nt)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        simpson = np.sum(w * r2) * (times[1] - times[0]) / 3.0
        assert cf.F2(lam) == pytest.approx(simpson, rel=1e-6)

    def test_little_f2_is_r2_at_cycle_end(self):
        cf = ising_closed_forms(
            IsingBathParams(40, 1.0, 0.0, 0.0), SystemParams(omega=1.0, theta=0.5)
        )
        lam = 0.7
        k = momenta(4000)
        r2k, _, _ = mode_coefficients(lam, k, cf.t_period)
        assert cf.f2(lam) == pytest.approx(np.mean(r2k) * 40 / 2.0, rel=1e-6)

    def test_f3_is_time_integral_of_r3(self):
        cf = ising_closed_forms(
            IsingBathParams(40, 1.0, 0.0, 0.0), SystemParams(omega=1.0, theta=0.5)
        )
        lam, nt = 0.7, 4097
        times = np.linspace(0, cf.t_period, nt)
        k = momenta(4000)
        r3 = np.zeros(nt)
        for i, t in enumerate(times):
            _, r3k, _ = mode_coefficients(lam, k, t)
            r3[i] = np.mean(r3k) * 40 / 2.0
        w = np.ones(nt)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        simpson = np.sum(w * r3) * (times[1] - times[0]) / 3.0
        assert cf.F3(lam) == pytest.approx(simpson, rel=1e-6)

    def test_discrepancy_report_scale(self):
        # quoted variants of the per-mode coefficients, mapped onto the
        # validated ones mode by mode (no k-integral)
        w, lam = 1.0, 0.5
        T = 2.0 * np.pi / w
        k = momenta(64)
        e = 2.0 * np.sqrt(1.0 + lam**2 - 2.0 * lam * np.cos(k))
        a = lam - np.cos(k)
        # F3 integrand quoted with the opposite sign and a 1/128 scale;
        # validated: Simpson time integral of R3_k over the cycle
        x = 2.0 * e * T
        f3_quoted = a * np.sin(k) ** 2 / (8.0 * w * e**7) * (
            4.0 * np.pi * e * (2.0 + np.cos(x)) - 3.0 * w * np.sin(x)
        )
        nt = 4097
        times = np.linspace(0.0, T, nt)
        _, r3k, _ = mode_coefficients(lam, k[:, None], times[None, :])
        wts = np.ones(nt)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        f3_validated = r3k @ wts * (times[1] - times[0]) / 3.0
        np.testing.assert_allclose(-128.0 * f3_quoted, f3_validated,
                                   rtol=0, atol=1e-9 * np.max(np.abs(f3_validated)))
        # linear phase coefficient quoted without its 4t factor
        _, _, p1 = mode_coefficients(lam, k, T)
        np.testing.assert_allclose(p1, 4.0 * T * a / e, rtol=1e-12)


class TestPanelQuad:
    @staticmethod
    def _against_scalar_quad(record):
        """A stand-in for _panel_quad that returns scipy's scalar quad on the
        same panels at the same targets, and appends (vectorised value, quad
        value, integral of |f|, calls of f) to ``record``."""
        def oracle(f, n_osc, dip):
            panels = max(8, int(np.ceil(2.0 * n_osc)))
            edges = np.linspace(0.0, np.pi, panels + 1)
            ref = scale = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                ref += quad(f, a, b, epsabs=_QUAD_TOL / panels, epsrel=1e-12, limit=200)[0]
                scale += quad(lambda k: abs(f(k)), a, b, limit=200)[0]
            calls = []
            got = _panel_quad(lambda k: calls.append(k.size) or f(k), n_osc, dip)
            record.append((got, ref, scale, len(calls)))
            return ref
        return oracle

    # scalar quad resolves the width-|1 - lam| dip at k = 0 down to 1e-5; at
    # 1e-6 its first rule misses it (TestSmallArgumentForms checks mpmath there);
    # both widths are inside the grading window, 4.3e-4 here
    _NEAR_CRITICAL = (1.0 - 1e-4, 1.0 + 1e-4, 1.0 - 1e-5, 1.0 + 1e-5)

    @pytest.mark.parametrize("name, lam", [
        *((name, lam) for lam in (0.0, 0.5, 0.985, 1.0, 1.5, 2.0, *_NEAR_CRITICAL)
          for name in ("f2", "F2", "F3")),
    ])
    def test_matches_scalar_quad(self, name, lam, monkeypatch):
        record = []
        monkeypatch.setattr(perturbative, "_panel_quad", self._against_scalar_quad(record))
        getattr(IsingClosedForms(n_spins=1000, t_period=2.0 * np.pi), name)(lam)
        (got, ref, scale, calls), = record
        # the atol bites only where the k-integral cancels to rounding: F3 is
        # 0 at lam = 0 by symmetry
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * scale)
        if lam == 0.985 or (name != "F3" and lam in self._NEAR_CRITICAL):
            assert calls > 1  # the width-|1 - lam| feature at k = 0 needs bisection

    def test_qk21_rules_integrate_polynomials_exactly(self):
        assert _QK21_NODES.shape == (21,)
        np.testing.assert_array_equal(_QK21_NODES, -_QK21_NODES[::-1])
        for d in range(32):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert _QK21_NODES**d @ _QK21_KRONROD == pytest.approx(exact, abs=1e-15)
            if d <= 19:
                assert _QK21_NODES**d @ _QK21_GAUSS == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("n_osc", [perturbative._MAX_PANELS / 2 + 1, 4e300, np.inf, np.nan])
    def test_panel_count_above_the_ceiling_raises_before_any_call(self, n_osc):
        def never(k):
            raise AssertionError("the integrand must not be called")

        ceiling = perturbative._MAX_PANELS
        with pytest.raises(QuadratureNonconvergence, match=f"ceiling of {ceiling}$"):
            _panel_quad(never, n_osc, 0.0)

    def test_slow_cycle_closed_form_raises(self):
        # omega/J = 1e-300 asks for 8e300 panels; 1e-6 would ask for 8e6,
        # several GB per qk21 pass
        cf = IsingClosedForms(n_spins=100, t_period=2.0 * np.pi / 1e-300)
        with pytest.raises(QuadratureNonconvergence, match="8e\\+300 panels"):
            cf.f2(0.0)

    def test_panel_at_the_interval_limit_accepts_under_the_loose_bound(self, monkeypatch):
        # one interval per panel: k^2.5 misses the tight bound on the first panel
        # and meets the loose one; k^1.5, rougher at k = 0, misses both
        monkeypatch.setattr(perturbative, "_QUAD_LIMIT", 1)
        assert _panel_quad(lambda k: k**2.5, 1.0, 0.0) == pytest.approx(np.pi**3.5 / 3.5,
                                                                        rel=0, abs=4.4e-13)
        with pytest.raises(QuadratureNonconvergence, match="limit of 1 intervals"):
            _panel_quad(lambda k: k**1.5, 1.0, 0.0)

    def test_non_integrable_or_nan_integrand_raises(self):
        with pytest.raises(QuadratureNonconvergence, match="limit of 200 intervals"):
            _panel_quad(lambda k: 1.0 / k, 1.0, 0.0)
        with pytest.raises(QuadratureNonconvergence):
            _panel_quad(lambda k: np.where(k > 3.0, np.nan, 1.0), 1.0, 0.0)


class TestSmallArgumentForms:
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 1.0, 1.999, 2.0, 2.001, 5.0, 30.0])
    def test_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):  # the direct forms cancel to O(x^2) and O(x^5)
            X = mpmath.mpf(x)
            sinc_ref = 1 - mpmath.sin(X) / X
            bracket_ref = 48 * mpmath.sin(X) - 16 * X * (2 + mpmath.cos(X))
            assert abs((_one_minus_sinc(x) - sinc_ref) / sinc_ref) <= 1e-15
            assert abs((_f3_bracket(x) - bracket_ref) / bracket_ref) <= 1e-14

    @pytest.mark.parametrize("name, lam", [
        ("f2", 1.0 - 1e-6), ("F2", 1.0 + 1e-6), ("F3", 1.0 - 1e-6),
        ("f2", 1.0 - 1e-8), ("f2", 1.0 + 1e-8), ("F3", 1.0 - 1e-8), ("F3", 1.0 + 1e-8),
    ])
    def test_near_critical_against_mpmath(self, name, lam):
        # the closed form with the width-|1 - lam| dip at k = 0 split off (the dip
        # weighs about 10 |1 - lam| of f2 and F2, and 1e-9 of F3 at 1e-6); 50 digits,
        # as the F3 bracket cancels to O(x^5) with x down to 1e-7.  Equal panels
        # step over these dips, whose width is below their first node at 4.3e-4:
        # f2 came out 1.3e-7 low at 1 -+ 1e-8, F3 1.1e-9 off at 1 - 1e-6
        mpmath = pytest.importorskip("mpmath")
        T = 2.0 * np.pi
        with mpmath.workdps(50):
            L = mpmath.mpf(lam)

            def integrand(k):
                e = 2 * mpmath.sqrt((1 - L) ** 2 + 4 * L * mpmath.sin(k / 2) ** 2)
                x, s2 = 2 * e * T, mpmath.sin(k) ** 2
                return {
                    "f2": lambda: 16 * s2 * mpmath.sin(e * T) ** 2 / e**4,
                    "F2": lambda: 8 * T * s2 / e**4 * (1 - mpmath.sin(x) / x),
                    "F3": lambda: (L - mpmath.cos(k)) * s2
                    * (48 * mpmath.sin(x) - 16 * x * (2 + mpmath.cos(x))) / e**7,
                }[name]()

            pts = [0, abs(1 - L), mpmath.mpf("1e-4")] + [mpmath.pi * i / 64 for i in range(1, 65)]
            ref = 1000 / (2 * mpmath.pi) * mpmath.quad(integrand, pts)
        got = getattr(IsingClosedForms(n_spins=1000, t_period=T), name)(lam)
        assert abs((got - ref) / ref) <= 1e-13


class TestGradedPanelsCostNothingElsewhere:
    """The graded panels near k = 0 are cut only inside their window, so every
    other field keeps the integrand calls and nodes of equal panels."""

    @staticmethod
    def _count(monkeypatch):
        """Sizes of the k arrays that every ``_panel_quad`` hands its integrand."""
        sizes, quad = [], perturbative._panel_quad
        monkeypatch.setattr(perturbative, "_panel_quad",
                            lambda f, *args: quad(lambda k: sizes.append(k.size) or f(k), *args))
        return sizes

    @pytest.mark.parametrize("lam, calls, nodes", [
        (1.0 - 5e-4, (10, 10, 9), (714, 714, 672)),
        (1.0 + 5e-4, (9, 9, 9), (693, 693, 693)),
    ], ids=["below", "above"])
    def test_just_outside_the_window(self, lam, calls, nodes, monkeypatch):
        # N = 1000, T = 2 pi: the window ends at the first node, 4.3e-4
        sizes = self._count(monkeypatch)
        cf = IsingClosedForms(n_spins=1000, t_period=2.0 * np.pi)
        counts = []
        for name in ("f2", "F2", "F3"):
            sizes.clear()
            getattr(cf, name)(lam)
            counts.append((len(sizes), sum(sizes)))
        assert counts == list(zip(calls, nodes))

    def test_on_the_401_field_approximation_grid(self, monkeypatch):
        # ising-approx at N = 1000 over 401 fields in [0, 2]: f2 makes 499
        # calls, F2 and F3 497 each
        sizes = self._count(monkeypatch)
        rows("ising-approx", n_spins=1000, lambda_points=401)
        assert (len(sizes), sum(sizes)) == (1493, 428547)


class TestApproxIsing:
    def test_zero_coupling(self):
        p, sp = chain(0.5)
        out = gp_approx_ising(replace(p, coupling=0.0), sp)
        assert out.order2 == 0.0
        assert out.order3 == 0.0

    def test_each_closed_form_evaluated_once(self, monkeypatch):
        calls = []
        for name in ("f2", "F2", "F3", "g1"):
            def counted(self, lam, name=name, method=getattr(IsingClosedForms, name)):
                calls.append(name)
                return method(self, lam)
            monkeypatch.setattr(IsingClosedForms, name, counted)
        gp_approx_ising(*chain(0.5, theta=0.5))
        assert sorted(calls) == ["F2", "F3", "f2", "g1"]

    def test_breakdown_warns_far_outside_weak_coupling(self):
        # N d = 5 at the critical point: |d T G1| = 5e-5 * 2 pi * 2e5 / pi = 20 rad
        with pytest.warns(PerturbativeBreakdown, match="= 20 rad"):
            gp_approx_ising(*chain(1.0, n_spins=100_000))

    def test_weak_coupling_sweep_is_silent(self):
        # the ising-approx grid at N = 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(rows("ising-approx", n_spins=1000)))

    def test_theta_dependence_factorizes(self):
        # the correction scales exactly as cos(th) sin^2(th)
        th1, th2 = 0.5, 1.1
        out = [gp_approx_ising(*chain(0.6, theta=th)).order3 for th in (th1, th2)]
        expected = (np.cos(th1) * np.sin(th1) ** 2) / (np.cos(th2) * np.sin(th2) ** 2)
        assert out[0] / out[1] == pytest.approx(expected, abs=1e-12)

    def test_third_order_beats_second(self):
        # the paper-figA rows at lambda = 0.3, 0.5, 0.7, 1.3, 1.5
        exact, order2, order3 = np.concatenate([
            rows("ising-sweep", lambda_min=lo, lambda_max=hi, lambda_points=n)
            for lo, hi, n in ((0.3, 0.7, 3), (1.3, 1.5, 2))]).T
        assert np.all(np.abs(order3 - exact) < np.abs(order2 - exact))

    def test_critical_slope_diverges(self):
        # |d(dPhi)/d(lam)| grows without bound approaching the critical point
        cf = ising_closed_forms(*chain(1.0))
        slopes = []
        for h in (1e-2, 1e-4, 1e-6):
            slopes.append(abs(cf.g1(1.0 + h) - cf.g1(1.0)) / h)
        assert slopes[0] < slopes[1] < slopes[2]


class TestGenericThirdOrderOnChain:
    def test_matches_exact_pipeline_within_five_percent(self):
        # generic route (numeric coefficients + cycle assembly) against the
        # exact product -> phase pipeline at the figure parameters
        p, sp = chain(0.5)
        times = np.linspace(0.0, sp.tau, 2049)

        def sampler(delta, t):
            return decoherence_product(replace(p, coupling=delta), t)

        co = extract_coefficients_numeric(sampler, times, h=1e-4)
        approx = gp_third_order(co, sp, p.coupling).order3 / (p.n_spins * p.coupling**2)

        # the paper-figA exact column, dphi / (N delta^2)
        exact = rows("ising-sweep", lambda_min=0.5, lambda_max=0.5, lambda_points=1)[0, 0]
        assert abs(approx - exact) < 0.05 * abs(exact)
