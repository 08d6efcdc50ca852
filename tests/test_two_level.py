import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from gphase.errors import UnwrapFailure, ValidationError
from gphase.gp import SystemParams, build_trace, geometric_phase, trace_from_samples
from gphase.protocol import X, Z
from gphase.reference import density_trajectory, gp_from_trajectory
from gphase.two_level import (
    CouplingConvention,
    TwoLevelBathParams,
    bandwidth,
    decoherence_factor_oracle,
    ground_state,
    oracle_trace,
    require_resolved,
)

OMEGA = 100.0 * np.pi


def paper_bath(**kw):
    base = TwoLevelBathParams(delta_gap=0.02 * OMEGA, b_field=0.05 * OMEGA, coupling=0.1 * OMEGA)
    return replace(base, **kw) if kw else base


class TestParams:
    def test_fields(self):
        # the bath is set by its field B; the paper's lambda and z*nu map onto
        # B outside this record
        names = [f.name for f in fields(TwoLevelBathParams)]
        assert names == ["delta_gap", "b_field", "coupling", "convention"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            TwoLevelBathParams(delta_gap=-1.0, b_field=0.0, coupling=0.1)

    @pytest.mark.parametrize("name, value", [
        ("b_field", np.nan), ("b_field", -np.inf), ("coupling", np.nan), ("coupling", np.inf)])
    def test_non_finite_field_or_coupling(self, name, value):
        # a NaN coupling used to give oracle_trace a NaN correction
        with pytest.raises(ValidationError, match="finite"):
            TwoLevelBathParams(**{"delta_gap": 1.0, "b_field": 0.1, "coupling": 0.1, name: value})


class TestEigenenergies:
    # the bath spectrum is +-sqrt(B^2 + Delta^2); ground_state must pick
    # the lower level
    def test_critical_point(self):
        p = TwoLevelBathParams(delta_gap=1.7, b_field=0.0, coupling=0.0)
        g = ground_state(p)
        h = p.b_field * Z + p.delta_gap * X
        assert np.vdot(g, h @ g).real == pytest.approx(-1.7, abs=1e-15)

    def test_unit_field(self):
        p = TwoLevelBathParams(delta_gap=1.0, b_field=1.0, coupling=0.0)
        g = ground_state(p)
        h = p.b_field * Z + p.delta_gap * X
        assert np.vdot(g, h @ g).real == pytest.approx(-np.sqrt(2), abs=1e-14)

    def test_matches_diagonalization(self):
        p = TwoLevelBathParams(delta_gap=2 * np.pi, b_field=np.pi, coupling=0.0)
        h = p.b_field * Z + p.delta_gap * X
        w = np.linalg.eigvalsh(h)
        g = ground_state(p)
        assert np.vdot(g, h @ g).real == pytest.approx(w[0], abs=1e-12)
        assert np.hypot(p.b_field, p.delta_gap) == pytest.approx(w[1], abs=1e-12)


class TestGroundState:
    def test_zero_field(self):
        p = TwoLevelBathParams(delta_gap=1.0, b_field=0.0, coupling=0.0)
        g = ground_state(p)
        np.testing.assert_allclose(g, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-14)

    def test_vanishing_gap_limit(self):
        p = TwoLevelBathParams(delta_gap=1e-9, b_field=1.0, coupling=0.0)  # gap -> 0
        g = ground_state(p)
        w, v = np.linalg.eigh(p.b_field * Z + p.delta_gap * X)
        assert abs(abs(np.vdot(v[:, 0], g)) - 1.0) < 1e-9

    def test_residual(self):
        for b in (1.3, -0.39, 0.0, 5.2):
            p = TwoLevelBathParams(delta_gap=1.3, b_field=b, coupling=0.0)
            h = p.b_field * Z + p.delta_gap * X
            g = ground_state(p)
            lo = np.linalg.eigvalsh(h)[0]
            assert np.linalg.norm(h @ g - lo * g) < 1e-12


class TestOracle:
    def test_uncoupled_is_one(self):
        p = paper_bath(coupling=0.0)
        t = np.linspace(0, 0.1, 50)
        np.testing.assert_allclose(decoherence_factor_oracle(p, t), 1.0, atol=1e-14)

    def test_initial_value_and_bound(self):
        p = paper_bath()
        assert decoherence_factor_oracle(p, 0.0) == pytest.approx(1.0, abs=0)
        t = np.linspace(0, 1.0, 2000)
        assert np.max(np.abs(decoherence_factor_oracle(p, t))) <= 1.0 + 1e-12

    def test_classical_field_limit(self):
        # gap -> 0 at B > 0: the ground state is |1> up to sign, and the
        # commuting branches give a pure phase e^{2 i d t}
        p = TwoLevelBathParams(delta_gap=1e-300, b_field=1.0, coupling=0.3)
        t = np.linspace(0, 5, 64)
        r = decoherence_factor_oracle(p, t)
        np.testing.assert_allclose(np.abs(r), 1.0, atol=1e-12)
        np.testing.assert_allclose(r, np.exp(2j * 0.3 * t), atol=1e-10)

    def test_never_reads_system_angle(self):
        sig = inspect.signature(decoherence_factor_oracle)
        assert "theta" not in sig.parameters

    def test_matches_dense_propagators(self):
        # independent oracle: dense matrix exponentials of the branch pair
        # applied to the bath ground state
        import scipy.linalg

        t = np.array([0.0, 0.0007, 0.0041, 0.013])
        for convention in CouplingConvention:
            p = paper_bath(b_field=0.07 * OMEGA, convention=convention)
            b, d = p.b_field, p.coupling
            b0, b1 = (b + d, b - d) if convention is CouplingConvention.ZZ_TARGET else (b, b + 2 * d)
            u1 = [scipy.linalg.expm(1j * (b1 * Z + p.delta_gap * X) * tt) for tt in t]
            u0 = [scipy.linalg.expm(-1j * (b0 * Z + p.delta_gap * X) * tt) for tt in t]
            v = ground_state(p)
            direct = [v.conj() @ w1 @ w0 @ v for w1, w0 in zip(u1, u0)]
            np.testing.assert_allclose(decoherence_factor_oracle(p, t), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("convention", list(CouplingConvention))
    def test_bandwidth_is_the_widest_branch_beat(self, convention):
        # r(t) = <psi| e^{+i H1 t} e^{-i H0 t} |psi> beats every eigenvalue of
        # H1 against every eigenvalue of H0
        p = paper_bath(b_field=-0.13 * OMEGA, convention=convention)
        b, d = p.b_field, p.coupling
        b0, b1 = (b + d, b - d) if convention is CouplingConvention.ZZ_TARGET else (b, b + 2 * d)
        e0 = np.linalg.eigvalsh(b0 * Z + p.delta_gap * X)
        e1 = np.linalg.eigvalsh(b1 * Z + p.delta_gap * X)
        assert bandwidth(p) == pytest.approx(np.max(np.abs(e1[:, None] - e0[None, :])), rel=1e-13)

    @pytest.mark.parametrize("d_over_omega, refines", [
        (0.1, False), (100.0, False), (255.9, True), (256.1, True), (1e3, None), (1e6, None),
    ])
    def test_oracle_trace_bandwidth_bound(self, d_over_omega, refines):
        # above d = 256 Omega the fastest frequency turns by pi or more per
        # interval of the requested 1024-interval grid, and build_trace refines
        # past it; the trace is kept only if the grid it was accepted on turns
        # by less than pi per interval, because an aliased winding passes
        # every unwrap check (here at d = 1e3 and 1e6 Omega)
        sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        p = paper_bath(coupling=d_over_omega * OMEGA)
        assert (bandwidth(p) * sysp.tau / 1024 >= np.pi) == (d_over_omega > 256.0)
        direct = build_trace(lambda t: decoherence_factor_oracle(p, t), sysp, 1024)
        turn = bandwidth(p) * sysp.tau / direct.samples
        assert (turn >= np.pi) == (refines is None)
        if refines is None:
            with pytest.raises(UnwrapFailure, match="bandwidth"):
                oracle_trace(p, sysp, 1024)
            return
        trace = oracle_trace(p, sysp, 1024)
        assert (trace.samples > 1024) == refines
        np.testing.assert_array_equal(trace.phase_unwrapped, direct.phase_unwrapped)

    def test_nan_turn_is_unresolved(self):
        # a NaN turn per interval used to pass the ">= pi" check
        with pytest.raises(UnwrapFailure):
            require_resolved(paper_bath(), np.nan, 64)


def one_sided_closed_forms(p, t):
    """Closed forms (z nu = 1) of the overlap for the one-sided branch pair (lambda,
    lambda + d), lambda = B/Delta and d = delta/Delta, from the ground state at
    lambda, as quoted and with the sin coefficient repaired, and the exact
    overlap: the projector oracle at half the coupling starts from the same
    ground state and evolves the branch pair in the other order, so the exact
    overlap is its complex conjugate."""
    lam, d = p.b_field / p.delta_gap, p.coupling / p.delta_gap
    eps = -p.delta_gap * np.sqrt(1.0 + lam**2)
    eps_s = -p.delta_gap * np.sqrt(1.0 + (lam + d) ** 2)
    quoted = (eps_s**2 - (p.delta_gap * d) ** 2) / (eps * eps_s)
    repaired = (eps**2 + eps_s**2 - (p.delta_gap * d) ** 2) / (2.0 * eps * eps_s)
    forms = [np.exp(1j * eps * t) * (np.cos(eps_s * t) - 1j * c * np.sin(eps_s * t))
             for c in (quoted, repaired)]
    half = replace(p, coupling=p.coupling / 2.0, convention=CouplingConvention.PROJECTOR)
    exact = np.conj(decoherence_factor_oracle(half, t))
    return forms[0], forms[1], exact


class TestAnalyticFormula:
    def test_uncoupled_and_initial(self):
        t = np.linspace(0, 0.05, 20)
        for form in one_sided_closed_forms(paper_bath(coupling=0.0), t):
            np.testing.assert_allclose(form, 1.0, atol=1e-12)
        for form in one_sided_closed_forms(paper_bath(), 0.0):
            assert form == pytest.approx(1.0, abs=0)

    def test_magnitude_periodicity(self):
        # |r| of the exact one-sided overlap repeats with the shifted branch's
        # half period pi / eps_shift
        p = paper_bath()
        eps_s = np.hypot(p.delta_gap, p.b_field + p.coupling)
        period = np.pi / eps_s
        t = np.linspace(0, period, 40)
        r0 = np.abs(one_sided_closed_forms(p, t)[2])
        r1 = np.abs(one_sided_closed_forms(p, t + period)[2])
        np.testing.assert_allclose(r0, r1, atol=1e-10)

    def test_discrepancy_report(self):
        # the quoted sin coefficient deviates from the exact one-sided overlap
        # at first order in lam*d; the repaired one removes the gap entirely
        p = paper_bath()
        eps_s = np.hypot(p.delta_gap, p.b_field + p.coupling)
        t = np.linspace(0.0, np.pi / eps_s, 512)  # one magnitude period
        quoted, repaired, exact = one_sided_closed_forms(p, t)
        dev_repaired = np.max(np.abs(repaired - exact))
        assert dev_repaired < 1e-12
        assert np.max(np.abs(quoted - exact)) > dev_repaired

    def test_matches_exact_at_critical_point(self):
        # at B = 0 the quoted coefficient is exact
        t = np.linspace(0, 0.02, 100)
        quoted, _, exact = one_sided_closed_forms(paper_bath(b_field=0.0), t)
        np.testing.assert_allclose(quoted, exact, atol=1e-10)


def dphi(bath, b, sysp, samples):
    """Phase correction of the bath at field b."""
    at_b = replace(bath, b_field=b)
    trace = build_trace(lambda t: decoherence_factor_oracle(at_b, t), sysp, samples)
    return geometric_phase(trace, sysp).correction


class TestCorrectionCurve:
    def test_uncoupled_curve_is_zero(self):
        sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bs = np.linspace(-1, 1, 5) * OMEGA / 10
        assert max(abs(dphi(paper_bath(coupling=0.0), b, sysp, 256)) for b in bs) < 1e-8

    def test_peak_at_criticality_and_asymmetry(self):
        sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bs = np.linspace(-0.2 * OMEGA, 0.2 * OMEGA, 21)
        curve = np.array([dphi(paper_bath(), b, sysp, 512) for b in bs])
        assert np.argmax(np.abs(curve)) == np.argmin(np.abs(bs))
        ip, im = np.argmin(np.abs(bs - 0.1 * OMEGA)), np.argmin(np.abs(bs + 0.1 * OMEGA))
        rel = abs(abs(curve[ip]) - abs(curve[im])) / max(abs(curve[ip]), abs(curve[im]))
        assert rel > 0.05

    def test_single_point_vs_trajectory_pipeline(self):
        # independent route: exact 4x4 evolution read out on a grid far finer
        # than the protocol's -> trajectory -> Eq-2 transport
        from gphase.protocol import (
            ProtocolParams,
            _exact_states,
            _initial_state,
            _system_coherence,
        )

        sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bath = paper_bath(b_field=0.1 * OMEGA)
        point = dphi(bath, bath.b_field, sysp, 2048)
        p = ProtocolParams(sys=sysp, bath=bath)
        times = np.linspace(0.0, sysp.tau, 32769)
        states = _exact_states(p, times, _initial_state(p, np.pi / 2))
        # input angle pi/2: r(t) = 2 <0|rho_S(t)|1> e^{2 i W t}
        r = 2.0 * _system_coherence(states) * np.exp(2j * OMEGA * times)
        phi_traj = gp_from_trajectory(density_trajectory(trace_from_samples(times, r), sysp))
        baseline = np.pi * (1 - np.cos(sysp.theta))
        diff = (point - (phi_traj - baseline) + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-6

    def test_failed_points_flagged(self):
        # a coupling winding faster than the refinement cap can resolve fails
        # loudly at B = 0; a sane point still succeeds
        sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        with pytest.raises(UnwrapFailure):
            dphi(paper_bath(coupling=1e6 * OMEGA), 0.0, sysp, 256)
        assert np.isfinite(dphi(paper_bath(), 0.1 * OMEGA, sysp, 256))


class TestLandscape:
    def test_deepest_collapse_at_critical_field(self):
        # the time-minimum of |r(t)|^2 over one cycle is deepest at B = 0
        sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        bath = paper_bath()
        bs = np.linspace(-0.2 * OMEGA, 0.2 * OMEGA, 21)
        t = np.linspace(0.0, sysp.tau, 257)
        mins = [
            np.min(np.abs(decoherence_factor_oracle(replace(bath, b_field=b), t)) ** 2)
            for b in bs
        ]
        assert np.argmin(mins) == np.argmin(np.abs(bs))
        # collapse-revival: the critical trace dips well below 1 and revives
        # (the revival period ~pi/sqrt(d^2+D^2) spans several cycles)
        t5 = np.linspace(0.0, 5.0 * sysp.tau, 1025)
        r2 = np.abs(decoherence_factor_oracle(replace(bath, b_field=0.0), t5)) ** 2
        assert np.min(r2) < 0.2
        assert np.max(r2[np.argmin(r2):]) > 0.9
