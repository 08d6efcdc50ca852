import numpy as np
import pytest

import gphase.ising
from gphase.errors import (
    DegenerateEigenvector,
    InvalidInitialValue,
    UnwrapFailure,
    ValidationError,
)
from gphase.cli import EXPERIMENTS
from gphase.gp import SystemParams, build_trace, geometric_phase, trace_from_samples
from gphase.ising import IsingBathParams, chain_trace, decoherence_product, phase_rate_bound
from gphase.reference import EigenbranchCrossing, density_trajectory, gp_from_trajectory
from gphase.two_level import TwoLevelBathParams, decoherence_factor_oracle

OMEGA = 100.0 * np.pi


def ones_sampler(t):
    return np.ones_like(t, dtype=complex)


def paper_bath(b_over_omega=0.05, coupling=0.1):
    return TwoLevelBathParams(
        delta_gap=0.02 * OMEGA, b_field=b_over_omega * OMEGA, coupling=coupling * OMEGA
    )


def counting(sampler, calls):
    """``sampler``, appending the length of every time grid it is called on to ``calls``."""
    def wrapped(t):
        calls.append(len(t))
        return sampler(t)
    return wrapped


class TestSystemParams:
    def test_tau(self):
        sp = SystemParams(omega=OMEGA, theta=0.3)
        assert sp.tau * sp.omega == pytest.approx(2.0 * np.pi, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SystemParams(omega=-1.0, theta=0.3)
        with pytest.raises(ValidationError):
            SystemParams(omega=1.0, theta=3.5)


class TestBuildTrace:
    def test_constant_one(self):
        sp = SystemParams(omega=OMEGA, theta=0.5)
        tr = build_trace(ones_sampler, sp, 128)
        assert np.all(tr.phase_unwrapped == 0.0)
        np.testing.assert_allclose(tr.magnitude, 1.0, atol=0)

    def test_linear_phase_no_folding(self):
        # r = e^{-i w t} with w tau = 6 pi stores phi(tau) = +6 pi unwrapped
        sp = SystemParams(omega=OMEGA, theta=0.5)
        w = 3.0 * sp.omega
        tr = build_trace(lambda t: np.exp(-1j * w * t), sp, 64)
        assert tr.phase_unwrapped[-1] == pytest.approx(6.0 * np.pi, abs=1e-9)

    def test_refinement_kicks_in(self):
        sp = SystemParams(omega=OMEGA, theta=0.5)
        w = 100.0 * sp.omega  # 100 cycles: far too fast for 64 samples
        tr = build_trace(lambda t: np.exp(-1j * w * t), sp, 64)
        assert tr.samples > 64
        assert tr.phase_unwrapped[-1] == pytest.approx(200.0 * np.pi, rel=1e-9)

    def test_one_sampler_call_per_try(self):
        # each try samples the 2m grid once; its even points are the m grid
        sp = SystemParams(omega=OMEGA, theta=0.5)
        calls = []
        build_trace(counting(ones_sampler, calls), sp, 64)
        assert calls == [2 * 64 + 1]
        calls.clear()
        w = 100.0 * sp.omega
        tr = build_trace(counting(lambda t: np.exp(-1j * w * t), calls), sp, 64)
        assert len(calls) > 1
        assert calls == [2 * 64 * 2**i + 1 for i in range(len(calls))]
        assert calls[-1] == 2 * tr.samples + 1

    def test_coarse_unwrap_is_the_fine_unwrap_at_even_points(self):
        # both grids unwrap with every step under pi/2, so each coarse step is
        # the sum of the two fine steps it spans: the trace's phase is the
        # fine grid's at its even points, also after a refinement
        sp = SystemParams(omega=OMEGA, theta=0.5)
        rng = np.random.default_rng(12)
        samplers = [lambda t: decoherence_factor_oracle(paper_bath(), t),
                    lambda t: np.exp(-1j * 100.0 * sp.omega * t)]
        for _ in range(20):
            amp, freq, shift = rng.uniform(0, 20, 6), rng.integers(1, 9, 6), rng.uniform(0, 7, 6)

            def walk(t, amp=amp, freq=freq, shift=shift):
                phi = np.sin(np.multiply.outer(t * sp.omega, freq) + shift) @ amp
                return np.exp(-0.3 * t / sp.tau - 1j * (phi - np.sin(shift) @ amp))
            samplers.append(walk)
        refined = 0
        for sampler in samplers:
            tr = build_trace(sampler, sp, 64)
            times = np.linspace(0.0, sp.tau, 2 * tr.samples + 1)
            fine = trace_from_samples(times, sampler(times))
            np.testing.assert_array_equal(tr.times, times[::2])
            np.testing.assert_allclose(tr.phase_unwrapped, fine.phase_unwrapped[::2],
                                       rtol=0, atol=1e-9)
            refined += tr.samples > 64
        assert refined >= 2

    def test_times_are_the_m_point_grid(self):
        rng = np.random.default_rng(4)
        for omega, samples in zip(10.0 ** rng.uniform(-3, 6, 50), rng.integers(64, 5000, 50)):
            sp = SystemParams(omega=omega, theta=0.5)
            m = samples + samples % 2
            tr = build_trace(ones_sampler, sp, samples)
            assert np.array_equal(tr.times, np.linspace(0.0, sp.tau, m + 1))

    def test_zero_crossing_fails(self):
        # real r passing through 0 flips the phase by pi at every resolution
        sp = SystemParams(omega=OMEGA, theta=0.5)
        with pytest.raises(UnwrapFailure):
            build_trace(lambda t: np.cos(sp.omega * t) + 0j, sp, 64)

    def test_initial_value_checked(self):
        sp = SystemParams(omega=OMEGA, theta=0.5)
        with pytest.raises(InvalidInitialValue):
            build_trace(lambda t: 0.5 * np.ones_like(t, dtype=complex), sp, 64)

    def test_minimum_samples(self):
        sp = SystemParams(omega=OMEGA, theta=0.5)
        with pytest.raises(ValidationError):
            build_trace(ones_sampler, sp, 32)

    def test_nan_sampler_fails(self):
        # every check of a trace is False on NaN, so a NaN sample used to pass
        # them all and give an all-NaN GpResult
        sp = SystemParams(omega=OMEGA, theta=0.5)

        def sampler(t):
            r = np.ones_like(t, dtype=complex)
            r[-1] = np.nan
            return r

        with pytest.raises(ValidationError, match="not finite"):
            build_trace(sampler, sp, 64)

    def test_grid_refinement_consistency(self):
        # sampled trace values agree with a 10x finer evaluation on shared points
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bath = paper_bath()
        tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 128)
        tr_fine = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 1280)
        np.testing.assert_allclose(tr.r_values, tr_fine.r_values[::10], atol=1e-8)
        np.testing.assert_allclose(
            tr.phase_unwrapped, tr_fine.phase_unwrapped[::10], atol=1e-8
        )

    def test_magnitude_phase_consistency(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        tr = build_trace(lambda t: decoherence_factor_oracle(paper_bath(), t), sp, 256)
        rebuilt = tr.magnitude * np.exp(-1j * tr.phase_unwrapped)
        np.testing.assert_allclose(rebuilt, tr.r_values, atol=1e-12)


class TestRateBound:
    """``build_trace`` under a sampler's declared bound on |d arg r / dt|."""

    def test_a_bound_that_fits_samples_once(self):
        # 6 pi over the cycle: 0.29 rad per interval of the 64-interval grid
        sp = SystemParams(omega=OMEGA, theta=0.5)
        w = 3.0 * sp.omega
        calls = []
        tr = build_trace(counting(lambda t: np.exp(-1j * w * t), calls), sp, 64, rate_bound=w)
        assert calls == [64 + 1]
        assert np.array_equal(tr.times, np.linspace(0.0, sp.tau, 64 + 1))
        assert tr.phase_unwrapped[-1] == pytest.approx(6.0 * np.pi, abs=1e-9)

    def test_a_bound_over_the_grid_samples_its_own_grid_once(self):
        # bound * tau / m at or over pi/2: the first of m * 2^j intervals under
        # it is sampled once, and the grids below it not at all
        sp = SystemParams(omega=OMEGA, theta=0.5)
        w = 100.0 * sp.omega
        cases = [(ones_sampler, np.pi / 2 * 64 / sp.tau * (1.0 + 1e-12), 128),
                 (lambda t: np.exp(-1j * w * t), w, 512)]
        for sampler, bound, grid in cases:
            calls = []
            tr = build_trace(counting(sampler, calls), sp, 64, rate_bound=bound)
            assert calls == [grid + 1]
            assert np.array_equal(tr.times, np.linspace(0.0, sp.tau, grid + 1))
        # the last case winds 100 times, 1.23 rad per interval of the 512
        assert tr.phase_unwrapped[-1] == pytest.approx(200.0 * np.pi, abs=1e-9)

    def test_a_bound_beyond_reach_fails_before_sampling(self):
        # 2^6 m = 4096 intervals are the reach of 64 samples: a bound just
        # under it is sampled there, one just over it never
        sp = SystemParams(omega=OMEGA, theta=0.5)
        edge = np.pi / 2 * 4096 / sp.tau
        calls = []
        build_trace(counting(ones_sampler, calls), sp, 64, rate_bound=edge * (1.0 - 1e-12))
        assert calls == [4097]
        calls = []
        with pytest.raises(UnwrapFailure, match="needs more than 4096 intervals; 64 samples "
                                                "reach 4096"):
            build_trace(counting(ones_sampler, calls), sp, 64, rate_bound=edge * (1.0 + 1e-12))
        assert calls == []

    def test_a_broken_bound_fails(self):
        sp = SystemParams(omega=OMEGA, theta=0.5)
        w = 3.0 * sp.omega
        with pytest.raises(UnwrapFailure, match="rate_bound"):
            build_trace(lambda t: np.exp(-1j * w * t), sp, 64, rate_bound=w / 10.0)

    def test_chain_traces_match_the_unbounded_route(self):
        # the paper-figA chain: its bound fits the requested grid, and the
        # m + 1 points sampled once are the even points of the 2m + 1 grid
        d = EXPERIMENTS["ising-sweep"].defaults
        sp = SystemParams(omega=d["omega_over_j"] * d["j_coupling"], theta=d["theta"])
        for lam in (0.0, 1.0, 2.0):
            p = IsingBathParams(d["n_spins"], d["j_coupling"], lam, d["coupling"])
            assert phase_rate_bound(p) * sp.tau / d["samples"] < np.pi / 2
            got = chain_trace(p, sp, d["samples"])
            want = build_trace(lambda t: decoherence_product(p, t), sp, d["samples"])
            for name in ("times", "r_values", "magnitude", "phase_unwrapped"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("n_spins, lam, coupling, grid", [
        (100, 1.5, 0.1, 64), (100, 1.5, 0.5, 256), (100, 1.5, 1.3, 1024), (100, 1.5, 3.0, 2048),
        (100, 1.5, 5.0, 4096), (100, 1.5, 8.0, 4096), (40, 2.473, 3.539, 1024),
        (100, 1.5, 10.0, None), (100, 1.5, 15.0, None),
    ])
    def test_chain_coupling_sweep_across_its_bound(self, n_spins, lam, coupling, grid,
                                                   monkeypatch):
        # the chain is sampled once, on the grid its bound picks from 64 samples,
        # and its phase is that of a 16x finer direct trace at the same times; the
        # doubling loop took delta = 1.3 on the 64- and 128-interval grids, off by
        # 128 * 2 pi.  Past 2^6 * 64 intervals the point fails unsampled
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        p = IsingBathParams(n_spins, 1.0, lam, coupling)
        calls = []

        def product(q, t):
            calls.append(len(t))
            return decoherence_product(q, t)

        monkeypatch.setattr(gphase.ising, "decoherence_product", product)
        if grid is None:
            with pytest.raises(UnwrapFailure, match="samples reach 4096"):
                chain_trace(p, sp, 64)
            assert calls == []
            return
        got = chain_trace(p, sp, 64)
        assert calls == [grid + 1]
        t = np.linspace(0.0, sp.tau, 16 * grid + 1)
        want = trace_from_samples(t, decoherence_product(p, t))
        np.testing.assert_allclose(got.phase_unwrapped, want.phase_unwrapped[::16], rtol=0,
                                   atol=1e-9)


class TestNonFiniteSamples:
    def test_nan_sample_names_its_time(self):
        r = np.ones(5, dtype=complex)
        r[2] = np.nan
        with pytest.raises(ValidationError, match=r"^sample 2 is not finite: r\(0\.5\)"):
            trace_from_samples(np.linspace(0.0, 1.0, 5), r)

    def test_non_finite_time(self):
        times = np.array([0.0, 0.25, np.inf, 0.75, 1.0])
        with pytest.raises(ValidationError, match=r"^sample 2 is not finite: r\(inf\)"):
            trace_from_samples(times, np.ones(5, dtype=complex))


def decay_to(sp, r_end, samples=256):
    """Trace of a real r(t) = r_end^(t/tau): r(0) = 1, |r(tau)| = r_end."""
    return build_trace(lambda t: r_end ** (t / sp.tau) + 0j, sp, samples)


def plus_eigenvectors(rho):
    """+ eigenvectors of a stack of 2x2 states, gauged so the |1> component
    is real and non-negative."""
    plus = np.linalg.eigh(rho)[1][..., 1]
    return plus * np.exp(-1j * np.angle(plus[..., 1:]))


class TestEpsPlus:
    """``eps_plus_final``, the larger eigenvalue (1 + R)/2 of rho(tau)."""

    def test_pure_state(self):
        sp = SystemParams(omega=OMEGA, theta=0.7)
        res = geometric_phase(build_trace(ones_sampler, sp, 64), sp)
        assert res.eps_plus_final == pytest.approx(1.0, abs=1e-15)

    def test_dephased_equator(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 2)
        assert geometric_phase(decay_to(sp, 1e-13), sp).eps_plus_final == pytest.approx(
            0.5, abs=1e-13)

    def test_intermediate(self):
        # eigenvalue of the explicit 2x2 matrix: (1 + sqrt(0.625))/2
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        assert geometric_phase(decay_to(sp, 0.5), sp).eps_plus_final == pytest.approx(
            0.5 * (1 + np.sqrt(0.625)), abs=1e-12)

    def test_matches_direct_diagonalization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r, th = rng.uniform(0.01, 1), rng.uniform(0.1, np.pi - 0.1)
            sp = SystemParams(omega=OMEGA, theta=th)
            tr = decay_to(sp, r, 64)
            w = np.linalg.eigvalsh(density_trajectory(tr, sp)[-1])
            assert geometric_phase(tr, sp).eps_plus_final == pytest.approx(w[1], abs=1e-12)


class TestBlochPlusAngle:
    """The + eigenvector direction g = sin^2(theta+/2) = (1 - cos(theta)/R)/2
    and the closing term it sets."""

    def test_unitary_limit(self):
        # r = 1: g = sin^2(theta/2) and the quadrature term is Omega tau g
        th = 0.9
        sp = SystemParams(omega=OMEGA, theta=th)
        res = geometric_phase(build_trace(ones_sampler, sp, 64), sp)
        assert res.integral_part == pytest.approx(2 * np.pi * np.sin(th / 2) ** 2, abs=1e-12)
        assert res.arctan_part == 0.0

    def test_degenerate_equator(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 2)
        with pytest.raises(DegenerateEigenvector):
            geometric_phase(decay_to(sp, 0.0), sp)

    def test_matches_eigenvector_components(self):
        # closing term = arg <v+(0)|v+(tau)> with both + eigenvectors in the
        # gauge whose |1> component is real positive
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        tr = build_trace(lambda t: 0.5 ** (t / sp.tau) * np.exp(0.7j * t / sp.tau), sp, 64)
        plus = plus_eigenvectors(density_trajectory(tr, sp)[[0, -1]])
        res = geometric_phase(tr, sp)
        assert res.arctan_part == pytest.approx(np.angle(np.vdot(plus[0], plus[1])), abs=1e-12)

    def test_normalization_property(self):
        # the same over random states, both hemispheres, down to |r(tau)| = 1e-6
        rng = np.random.default_rng(13)
        for _ in range(50):
            r, th, ph = 10 ** rng.uniform(-6, 0), rng.uniform(0.1, np.pi - 0.1), rng.uniform(-3, 3)
            sp = SystemParams(omega=OMEGA, theta=th)
            tr = build_trace(lambda t: r ** (t / sp.tau) * np.exp(1j * ph * t / sp.tau), sp, 64)
            plus = plus_eigenvectors(density_trajectory(tr, sp)[[0, -1]])
            assert geometric_phase(tr, sp).arctan_part == pytest.approx(
                np.angle(np.vdot(plus[0], plus[1])), abs=1e-10)

    def test_closing_term_without_cancellation(self):
        # south of the equator at |r(tau)| ~ 1e-8, R + cos(theta) ~ 3e-17 is
        # below the rounding of either term; a direct sum is off by 3e-9 here
        mpmath = pytest.importorskip("mpmath")
        sp = SystemParams(omega=OMEGA, theta=2.5)
        r_end = 1.2456613801138862e-08
        tr = build_trace(lambda t: r_end ** (t / sp.tau) * np.exp(0.5j * np.pi * t / sp.tau),
                         sp, 64)
        with mpmath.workdps(50):
            c, s = mpmath.cos(sp.theta), mpmath.sin(sp.theta)
            m, ph = mpmath.mpf(tr.magnitude[-1]), mpmath.mpf(-tr.phase_unwrapped[-1])
            a = (1 - c) * m
            lift = mpmath.sqrt(c**2 + m**2 * s**2) + c
            expected = float(mpmath.atan2(a * mpmath.sin(ph), a * mpmath.cos(ph) + lift))
        assert geometric_phase(tr, sp).arctan_part == pytest.approx(expected, abs=1e-12)


class TestGeometricPhase:
    def test_unitary_limit_sweep(self):
        for th in np.linspace(0.05, np.pi - 0.05, 20):
            sp = SystemParams(omega=OMEGA, theta=th)
            res = geometric_phase(build_trace(ones_sampler, sp, 256), sp)
            assert res.phi_total == pytest.approx(np.pi * (1 - np.cos(th)), abs=1e-8)
            assert abs(res.correction) < 1e-8

    def test_quarter_angle_value(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        res = geometric_phase(build_trace(ones_sampler, sp, 256), sp)
        assert res.phi_total == pytest.approx(np.pi * (1 - np.sqrt(2) / 2), abs=1e-9)

    def test_total_is_sum_of_parts(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        res = geometric_phase(
            build_trace(lambda t: decoherence_factor_oracle(paper_bath(), t), sp, 512), sp
        )
        assert res.phi_total == res.integral_part + res.arctan_part
        assert res.correction == res.phi_total - res.phi_unitary

    def test_poles(self):
        bath = paper_bath()
        for th, expected in ((0.0, 0.0), (np.pi, 2.0 * np.pi)):
            sp = SystemParams(omega=OMEGA, theta=th)
            res = geometric_phase(
                build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 128), sp
            )
            assert res.phi_total == pytest.approx(expected, abs=1e-12)

    def test_degenerate_propagates(self):
        # an equator trajectory whose coherence dies completely mid-cycle
        sp = SystemParams(omega=OMEGA, theta=np.pi / 2)
        decay = lambda t: np.exp(-((14.0 * t / sp.tau) ** 2)) + 0j
        with pytest.raises(DegenerateEigenvector):
            geometric_phase(build_trace(decay, sp, 256), sp)

    def test_deep_dephasing_south_of_equator(self):
        # |r(tau)| ~ 1e-85 at theta = 2.5 is no degeneracy: the eigenvalue gap
        # stays >= |cos(theta)| = 0.8
        sp = SystemParams(omega=OMEGA, theta=2.5)
        decay = lambda t: np.exp(-((14.0 * t / sp.tau) ** 2)
                                 + 0.3j * np.sin(2 * np.pi * t / sp.tau))
        tr = build_trace(decay, sp, 2048)
        closed = geometric_phase(tr, sp).phi_total
        transported = gp_from_trajectory(density_trajectory(tr, sp))
        assert abs((closed - transported + np.pi) % (2 * np.pi) - np.pi) < 1e-6

    def test_grid_convergence(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bath = paper_bath()
        vals = [
            geometric_phase(
                build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, m), sp
            ).phi_total
            for m in (2048, 4096)
        ]
        assert abs(vals[1] - vals[0]) < 1e-7

    def test_global_phase_covariance(self):
        # r -> r e^{i chi(t)} shifts the engine phase by -chi; verify the output
        # moves exactly as an independent recomputation of both affected terms
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bath = paper_bath()
        m = 2048
        base = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, m)
        amp, s0, c0 = 0.21, np.sin(sp.theta / 2), np.cos(sp.theta / 2)
        chi = lambda t: amp * np.sin(np.pi * t / sp.tau) ** 2 + 0.07 * t / sp.tau
        chi_dot = lambda t: (
            amp * np.pi / sp.tau * np.sin(2 * np.pi * t / sp.tau) + 0.07 / sp.tau
        )
        mod = build_trace(
            lambda t: decoherence_factor_oracle(bath, t) * np.exp(1j * chi(t)), sp, m
        )
        res0, res1 = geometric_phase(base, sp), geometric_phase(mod, sp)

        plus = plus_eigenvectors(density_trajectory(base, sp))
        sh = np.abs(plus[:, 0])
        g = sh**2
        dt = base.times[1] - base.times[0]
        w = np.ones(len(g))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        d_integral = -np.sum(w * chi_dot(base.times) * g) * dt / 3.0

        phi0 = -base.phase_unwrapped[-1]
        phi1 = phi0 + chi(base.times[-1])
        at = lambda ph: np.arctan2(
            np.sin(ph) * sh[-1] * s0, np.cos(ph) * sh[-1] * s0 + np.sqrt(1 - sh[-1] ** 2) * c0
        )
        predicted = res0.phi_total + d_integral + (at(phi1) - at(phi0))
        assert res1.phi_total == pytest.approx(predicted, abs=1e-8)


class TestTrajectoryRoute:
    def test_unitary_limit(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 3)
        tr = build_trace(ones_sampler, sp, 8192)
        phi = gp_from_trajectory(density_trajectory(tr, sp))
        assert phi == pytest.approx(np.pi / 2, abs=1e-6)

    def test_dual_formula_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            th = rng.uniform(0.3, 2.7)
            b = rng.uniform(-0.2, 0.2) * OMEGA
            sp = SystemParams(omega=OMEGA, theta=th)
            bath = paper_bath(b_over_omega=b / OMEGA)
            eq3 = geometric_phase(
                build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096), sp
            ).phi_total
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 32768)
            eq2 = gp_from_trajectory(density_trajectory(tr, sp))
            diff = (eq3 - eq2 + np.pi) % (2 * np.pi) - np.pi
            assert abs(diff) < 1e-6

    def test_time_reversal_negates(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        tr = build_trace(lambda t: decoherence_factor_oracle(paper_bath(), t), sp, 16384)
        rho = density_trajectory(tr, sp)
        fwd = gp_from_trajectory(rho)
        bwd = gp_from_trajectory(rho[::-1])
        diff = (fwd + bwd + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-6

    def test_gauge_invariance(self, monkeypatch):
        # scramble the eigensolver's phase gauge with a smooth profile; the
        # parallel-transport result must not move
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        tr = build_trace(lambda t: decoherence_factor_oracle(paper_bath(), t), sp, 4096)
        rho = density_trajectory(tr, sp)
        base = gp_from_trajectory(rho)

        true_eigh = np.linalg.eigh

        def scrambled(a):
            w, v = true_eigh(a)
            if v.ndim == 3:
                n = v.shape[0]
                gamma = 2.0 * np.sin(3.0 * np.pi * np.arange(n) / n) + 0.5
                v = v * np.exp(1j * gamma)[:, None, None]
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", scrambled)
        assert gp_from_trajectory(rho) == pytest.approx(base, abs=1e-8)

    def test_branch_crossing_detected(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 2)
        times = np.linspace(0.0, sp.tau, 257)
        r = np.exp(-((20.0 * times / sp.tau) ** 2))
        rho = np.zeros((257, 2, 2), dtype=complex)
        rho[:, 0, 0] = 0.5
        rho[:, 1, 1] = 0.5
        c = 0.5 * r * np.exp(-1j * sp.omega * times)
        rho[:, 0, 1] = c
        rho[:, 1, 0] = np.conj(c)
        with pytest.raises(EigenbranchCrossing):
            gp_from_trajectory(rho)

    def test_density_trajectory_structure(self):
        sp = SystemParams(omega=OMEGA, theta=np.pi / 3)
        tr = build_trace(lambda t: decoherence_factor_oracle(paper_bath(), t), sp, 128)
        rho = density_trajectory(tr, sp)
        expected = 0.5 * np.sin(sp.theta) * np.exp(-1j * sp.omega * tr.times) * tr.r_values
        np.testing.assert_allclose(rho[:, 0, 1], expected, atol=1e-15)
        np.testing.assert_allclose(np.einsum("tii->t", rho).real, 1.0, atol=1e-15)


class TestTraceFromSamples:
    def test_nonuniform_rejected(self):
        times = np.array([0.0, 0.1, 0.25, 0.4])
        with pytest.raises(ValidationError):
            trace_from_samples(times, np.ones(4, dtype=complex))

    def test_magnitude_bound(self):
        times = np.linspace(0.0, 1.0, 65)
        vals = np.ones(65, dtype=complex)
        vals[3] = 1.5
        with pytest.raises(ValidationError):
            trace_from_samples(times, vals)
