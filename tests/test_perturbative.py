import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import gphase.perturbative as perturbative
from gphase.errors import (
    DomainError,
    PerturbativeBreakdown,
    QuadratureNonconvergence,
    ValidationError,
)
from gphase.gp import SystemParams, build_trace, geometric_phase
from gphase.ising import IsingBathParams, chain_trace, decoherence_product, dispersion, momenta
from gphase.perturbative import (
    _QK21_GAUSS,
    _QK21_KRONROD,
    _QK21_NODES,
    _QUAD_TOL,
    _f3_bracket,
    _one_minus_sinc,
    _panel_quad,
    elliptic_E,
    elliptic_K,
    gp_approx_ising,
    ising_closed_forms,
    IsingClosedForms,
)
from gphase.reference import (
    StencilConditioning,
    extract_coefficients_numeric,
    gp_third_order,
    mode_coefficients,
)
from gphase.two_level import TwoLevelBathParams, decoherence_factor_oracle

OMEGA = 100.0 * np.pi


class TestElliptic:
    def test_endpoints(self):
        assert elliptic_K(0.0) == pytest.approx(np.pi / 2, abs=1e-14)
        assert elliptic_E(0.0) == pytest.approx(np.pi / 2, abs=1e-14)
        assert elliptic_E(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_against_defining_integrals(self):
        m = 0.5
        k_ref, _ = quad(lambda t: 1.0 / np.sqrt(1 - m * np.sin(t) ** 2), 0, np.pi / 2,
                        epsabs=1e-14, epsrel=1e-14)
        e_ref, _ = quad(lambda t: np.sqrt(1 - m * np.sin(t) ** 2), 0, np.pi / 2,
                        epsabs=1e-14, epsrel=1e-14)
        assert elliptic_K(m) == pytest.approx(k_ref, abs=1e-12)
        assert elliptic_E(m) == pytest.approx(e_ref, abs=1e-12)

    def test_legendre_relation(self):
        for m in np.linspace(0.01, 0.99, 50):
            lhs = (elliptic_E(m) * elliptic_K(1 - m)
                   + elliptic_E(1 - m) * elliptic_K(m)
                   - elliptic_K(m) * elliptic_K(1 - m))
            assert lhs == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("m", [0.0, 1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12])
    def test_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            k_ref, e_ref = mpmath.ellipk(m), mpmath.ellipe(m)
            assert abs((elliptic_K(m) - k_ref) / k_ref) <= 1e-15
            assert abs((elliptic_E(m) - e_ref) / e_ref) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_K(1.0)
        with pytest.raises(DomainError):
            elliptic_K(-0.1)
        with pytest.raises(DomainError):
            elliptic_E(1.1)


def two_level_sampler(delta, t):
    bath = TwoLevelBathParams(delta_gap=0.02 * OMEGA, b_field=0.05 * OMEGA, coupling=delta)
    return decoherence_factor_oracle(bath, t)


class TestExtraction:
    def test_two_level_short_time_decay(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
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
        p = IsingBathParams(100, 1.0, 0.5, 5e-5)
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
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
        sp = SystemParams(omega=OMEGA, theta=np.pi / 3)
        times = np.linspace(0, sp.tau, 257)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        out = gp_third_order(co, sp, 0.0)
        assert out.order2 == 0.0
        assert out.order3 == 0.0

    def test_equator_null(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 2)
        times = np.linspace(0, sp.tau, 257)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        out = gp_third_order(co, sp, 0.05 * OMEGA)
        assert out.order2 == pytest.approx(0.0, abs=1e-12)
        assert out.order3 == pytest.approx(0.0, abs=1e-12)

    def test_residual_fourth_order(self):
        # halving the coupling shrinks the third-order residual ~16x
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        times = np.linspace(0, sp.tau, 2049)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        res = []
        for d in (0.02 * OMEGA, 0.01 * OMEGA):
            bath = TwoLevelBathParams(delta_gap=0.02 * OMEGA, b_field=0.05 * OMEGA, coupling=d)
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096)
            exact = geometric_phase(tr, sp).correction
            res.append(abs(gp_third_order(co, sp, d).order3 - exact))
        assert res[0] / res[1] == pytest.approx(16.0, rel=0.35)

    def test_grid_must_cover_cycle(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        times = np.linspace(0, sp.tau / 2, 129)
        co = extract_coefficients_numeric(two_level_sampler, times, h=1e-4 * OMEGA)
        with pytest.raises(ValidationError):
            gp_third_order(co, sp, 0.01 * OMEGA)


class TestClosedForms:
    def test_g1_critical_value(self):
        p = IsingBathParams(100, 1.0, 1.0, 0.0)
        cf = ising_closed_forms(p, SystemParams(omega=1.0, theta=np.pi / 4))
        assert cf.g1(1.0) == pytest.approx(200.0 / np.pi, abs=1e-12)

    def test_g1_vs_discrete_sum(self):
        p = IsingBathParams(100, 1.0, 0.5, 0.0)
        cf = ising_closed_forms(p, SystemParams(omega=1.0, theta=np.pi / 4))
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
        1e-7, 1e-6, 1e-4, 0.005, 0.3, 0.4999999, 0.5, 0.995, 1.0 - 3e-9, 1.0 + 3e-9, 1.5])
    def test_g1_against_mpmath(self, lam):
        # (lam+1) E(m) + (lam-1) K(m), m = 4 lam/(1 + lam)^2, cancels to O(lam)
        # at small lam, and m rounds to 1 at 1 -+ 3e-9, where K(m) is infinite
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            L = mpmath.mpf(lam)
            def integrand(k):
                e = 2 * mpmath.sqrt((1 - L) ** 2 + 4 * L * mpmath.sin(k / 2) ** 2)
                return 4 * (L - mpmath.cos(k)) / e

            ref = 100 / (2 * mpmath.pi) * mpmath.quad(
                integrand, [0, mpmath.mpf("1e-8"), mpmath.mpf("1e-4"), 0.1, mpmath.pi])
        cf = IsingClosedForms(n_spins=100, t_period=2.0 * np.pi)
        assert abs((cf.g1(lam) - ref) / ref) <= 1e-14

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
        def oracle(f, n_osc):
            panels = max(8, int(np.ceil(2.0 * n_osc)))
            edges = np.linspace(0.0, np.pi, panels + 1)
            ref = scale = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                ref += quad(f, a, b, epsabs=_QUAD_TOL / panels, epsrel=1e-12, limit=200)[0]
                scale += quad(lambda k: abs(f(k)), a, b, limit=200)[0]
            calls = []
            got = _panel_quad(lambda k: calls.append(k.size) or f(k), n_osc)
            record.append((got, ref, scale, len(calls)))
            return ref
        return oracle

    # scalar quad resolves the width-|1 - lam| dip at k = 0 down to 1e-5; at
    # 1e-6 its first rule misses it (TestSmallArgumentForms checks mpmath there)
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
            _panel_quad(never, n_osc)

    def test_slow_cycle_closed_form_raises(self):
        # omega/J = 1e-300 asks for 8e300 panels; 1e-6 would ask for 8e6,
        # several GB per qk21 pass
        cf = IsingClosedForms(n_spins=100, t_period=2.0 * np.pi / 1e-300)
        with pytest.raises(QuadratureNonconvergence, match="8e\\+300 panels"):
            cf.f2(0.0)

    def test_non_integrable_or_nan_integrand_raises(self):
        with pytest.raises(QuadratureNonconvergence, match="limit of 200 intervals"):
            _panel_quad(lambda k: 1.0 / k, 1.0)
        with pytest.raises(QuadratureNonconvergence):
            _panel_quad(lambda k: np.where(k > 3.0, np.nan, 1.0), 1.0)


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
        ("f2", 1.0 - 1e-6), ("F2", 1.0 + 1e-6),
        # F3's dip weighs only 1e-9 here, and the first qk21 pass, whose nodes
        # nearest k = 0 sit at 4e-4, accepts the panel without seeing it
        pytest.param("F3", 1.0 - 1e-6, marks=pytest.mark.xfail(
            strict=True, reason="a dip much narrower than the node spacing is stepped over")),
    ])
    def test_near_critical_against_mpmath(self, name, lam):
        # the closed form with the width-1e-6 dip at k = 0 split off (the dip
        # weighs about 1e-5 of f2 and F2); 50 digits, as the F3 bracket cancels
        # to O(x^5) with x down to 1e-5
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

            pts = [0, mpmath.mpf("1e-6"), mpmath.mpf("1e-4")] + [
                mpmath.pi * i / 64 for i in range(1, 65)]
            ref = 1000 / (2 * mpmath.pi) * mpmath.quad(integrand, pts)
        got = getattr(IsingClosedForms(n_spins=1000, t_period=T), name)(lam)
        assert abs((got - ref) / ref) <= 1e-13


class TestApproxIsing:
    def test_zero_coupling(self):
        p = IsingBathParams(100, 1.0, 0.5, 0.0)
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        out = gp_approx_ising(p, sp)
        assert out.order2 == 0.0
        assert out.order3 == 0.0

    def test_each_closed_form_evaluated_once(self, monkeypatch):
        calls = []
        for name in ("f2", "F2", "F3", "g1"):
            def counted(self, lam, name=name, method=getattr(IsingClosedForms, name)):
                calls.append(name)
                return method(self, lam)
            monkeypatch.setattr(IsingClosedForms, name, counted)
        gp_approx_ising(IsingBathParams(100, 1.0, 0.5, 5e-5), SystemParams(omega=1.0, theta=0.5))
        assert sorted(calls) == ["F2", "F3", "f2", "g1"]

    def test_breakdown_warns_far_outside_weak_coupling(self):
        # N d = 5 at the critical point: |d T G1| = 5e-5 * 2 pi * 2e5 / pi = 20 rad
        p = IsingBathParams(100_000, 1.0, 1.0, 5e-5)
        with pytest.warns(PerturbativeBreakdown, match="= 20 rad"):
            gp_approx_ising(p, SystemParams(omega=1.0, theta=np.pi / 4))

    def test_weak_coupling_sweep_is_silent(self):
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in np.linspace(0.0, 2.0, 41):
                gp_approx_ising(IsingBathParams(1000, 1.0, lam, 5e-5), sp)

    def test_theta_dependence_factorizes(self):
        # the correction scales exactly as cos(th) sin^2(th)
        p = IsingBathParams(100, 1.0, 0.6, 5e-5)
        th1, th2 = 0.5, 1.1
        out = []
        for th in (th1, th2):
            sp = SystemParams(omega=1.0, theta=th)
            out.append(gp_approx_ising(p, sp).order3)
        expected = (np.cos(th1) * np.sin(th1) ** 2) / (np.cos(th2) * np.sin(th2) ** 2)
        assert out[0] / out[1] == pytest.approx(expected, abs=1e-12)

    def test_third_order_beats_second(self):
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        wins = 0
        lams = [0.3, 0.5, 0.7, 1.3, 1.5]
        for lam in lams:
            p = IsingBathParams(100, 1.0, lam, 5e-5)
            exact = geometric_phase(chain_trace(p, sp, 4096), sp).correction
            out = gp_approx_ising(p, sp)
            e3 = abs(out.order3 - exact)
            e2 = abs(out.order2 - exact)
            wins += e3 < e2
        assert wins == len(lams)

    def test_critical_slope_diverges(self):
        # |d(dPhi)/d(lam)| grows without bound approaching the critical point
        p = IsingBathParams(100, 1.0, 1.0, 5e-5)
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        cf = ising_closed_forms(p, sp)
        slopes = []
        for h in (1e-2, 1e-4, 1e-6):
            slopes.append(abs(cf.g1(1.0 + h) - cf.g1(1.0)) / h)
        assert slopes[0] < slopes[1] < slopes[2]


class TestGenericThirdOrderOnChain:
    def test_matches_exact_pipeline_within_five_percent(self):
        # generic route (numeric coefficients + cycle assembly) against the
        # exact product -> phase pipeline at the figure parameters
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        p = IsingBathParams(100, 1.0, 0.5, 5e-5)
        times = np.linspace(0.0, sp.tau, 2049)

        def sampler(delta, t):
            return decoherence_product(replace(p, coupling=delta), t)

        co = extract_coefficients_numeric(sampler, times, h=1e-4)
        approx = gp_third_order(co, sp, 5e-5).order3

        exact = geometric_phase(chain_trace(p, sp, 4096), sp).correction
        assert abs(approx - exact) < 0.05 * abs(exact)
