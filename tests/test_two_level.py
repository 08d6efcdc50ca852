import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

import gphase.two_level

from conftest import OMEGA, field_grid, point, rows, two_level
from gphase.errors import UnwrapFailure, ValidationError
from gphase.gp import build_trace, first_grid, geometric_phase, trace_from_samples
from gphase.reference import X, Z, density_trajectory, gp_from_trajectory
from gphase.two_level import (
    TwoLevelBathParams,
    bandwidth,
    decoherence_factor_oracle,
    ground_state,
    oracle_trace,
)

class TestParams:
    def test_fields(self):
        # the bath is set by its field B; the paper's lambda and z*nu map onto
        # B outside this record
        names = [f.name for f in fields(TwoLevelBathParams)]
        assert names == ["delta_gap", "b_field", "coupling"]

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
        _, p = two_level(coupling=0.0)
        t = np.linspace(0, 0.1, 50)
        np.testing.assert_allclose(decoherence_factor_oracle(p, t), 1.0, atol=1e-14)

    def test_initial_value_and_bound(self):
        _, p = two_level()
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
        t = np.array([0.0, 0.0007, 0.0041, 0.013])
        _, p = two_level(b_field=0.07 * OMEGA)
        b0, b1 = p.b_field + p.coupling, p.b_field - p.coupling
        u1 = [scipy.linalg.expm(1j * (b1 * Z + p.delta_gap * X) * tt) for tt in t]
        u0 = [scipy.linalg.expm(-1j * (b0 * Z + p.delta_gap * X) * tt) for tt in t]
        v = ground_state(p)
        direct = [v.conj() @ w1 @ w0 @ v for w1, w0 in zip(u1, u0)]
        np.testing.assert_allclose(decoherence_factor_oracle(p, t), direct, rtol=0, atol=1e-12)

    # the projector coupling, with branch fields B and B + 2d, is the zz bath
    # at field B + d and coupling -d; the zz coupling has branch fields B +- d
    @pytest.mark.parametrize("projector", [True, False], ids=["projector", "zz"])
    def test_bandwidth_is_the_widest_branch_beat(self, projector):
        # r(t) = <psi| e^{+i H1 t} e^{-i H0 t} |psi> beats every eigenvalue of
        # H1 against every eigenvalue of H0
        b, d = -0.13 * OMEGA, point("gp-curve")["coupling"]
        if projector:
            _, p = two_level(b_field=b + d, coupling=-d)
            b0, b1 = b, b + 2 * d
        else:
            _, p = two_level(b_field=b)
            b0, b1 = b + d, b - d
        e0 = np.linalg.eigvalsh(b0 * Z + p.delta_gap * X)
        e1 = np.linalg.eigvalsh(b1 * Z + p.delta_gap * X)
        assert bandwidth(p) == pytest.approx(np.max(np.abs(e1[:, None] - e0[None, :])), rel=1e-13)

    @pytest.mark.parametrize("d_over_omega, refines", [
        (0.1, False), (100.0, False), (255.9, True), (256.1, True), (1e3, True), (1e6, None),
    ])
    def test_oracle_trace_bandwidth_bound(self, d_over_omega, refines, monkeypatch):
        # above d = 256 Omega the fastest frequency turns by pi or more per
        # interval of the requested 1024-interval grid, where an aliased winding
        # passes every unwrap check; the doubling loop starts on the first grid
        # that turns by less than pi per interval (4096 at d = 256.1 Omega and
        # 16384 at 1e3 Omega, where the 1024 samples' own doubling loop stops
        # at 1024 on an aliased winding), and its trace is that of a 16x finer
        # direct trace.  At 1e6 Omega that grid lies past the reach of 2^18
        # intervals, and the oracle is never sampled
        sysp, p = two_level(coupling=d_over_omega * OMEGA)
        need = bandwidth(p) * sysp.tau / np.pi
        assert (need >= 1024) == (d_over_omega > 256.0)
        calls = []

        def oracle(q, t):
            calls.append(len(t))
            return decoherence_factor_oracle(q, t)

        monkeypatch.setattr(gphase.two_level, "decoherence_factor_oracle", oracle)
        if refines is None:
            with pytest.raises(UnwrapFailure, match="past the reach of 262144"):
                oracle_trace(p, sysp, 1024)
            assert calls == []
            return
        trace = oracle_trace(p, sysp, 1024)
        assert (trace.samples > 1024) == refines
        assert trace.samples > need and calls[0] == 2 * first_grid(1024, need, "") + 1
        t = np.linspace(0.0, sysp.tau, 16 * trace.samples + 1)
        fine = trace_from_samples(t, decoherence_factor_oracle(p, t))
        np.testing.assert_allclose(trace.phase_unwrapped, fine.phase_unwrapped[::16], rtol=0,
                                   atol=1e-9)
        if d_over_omega == 1e3:
            assert trace.samples == 16384
        else:  # where the requested grid's own loop lands on a resolved grid, nothing moves
            direct = build_trace(lambda t: decoherence_factor_oracle(p, t), sysp, 1024)
            np.testing.assert_array_equal(trace.phase_unwrapped, direct.phase_unwrapped)

    def test_nan_turn_is_unresolved(self):
        # a NaN turn per interval (here from tau = NaN) is resolved by no grid:
        # not (grid > NaN), so the grid rule fails instead of passing it
        band = bandwidth(two_level()[1])
        with pytest.raises(UnwrapFailure, match="needs more than nan intervals"):
            first_grid(64, band * np.nan / np.pi, f"bandwidth {band:.6g} rad/s")


def one_sided_closed_forms(p, t):
    """Closed forms (z nu = 1) of the overlap for the one-sided branch pair (lambda,
    lambda + d), lambda = B/Delta and d = delta/Delta, from the ground state at
    lambda, as quoted and with the sin coefficient repaired, and the exact
    overlap <v| e^{+i H0 t} e^{-i H1 t} |v> from dense propagators of H0 = B Z + Delta X
    and H1 = (B + delta) Z + Delta X, v the ground state of H0."""
    lam, d = p.b_field / p.delta_gap, p.coupling / p.delta_gap
    eps = -p.delta_gap * np.sqrt(1.0 + lam**2)
    eps_s = -p.delta_gap * np.sqrt(1.0 + (lam + d) ** 2)
    quoted = (eps_s**2 - (p.delta_gap * d) ** 2) / (eps * eps_s)
    repaired = (eps**2 + eps_s**2 - (p.delta_gap * d) ** 2) / (2.0 * eps * eps_s)
    forms = [np.exp(1j * eps * t) * (np.cos(eps_s * t) - 1j * c * np.sin(eps_s * t))
             for c in (quoted, repaired)]
    h0 = p.b_field * Z + p.delta_gap * X
    h1 = h0 + p.coupling * Z
    v = ground_state(p)
    exact = np.array([v.conj() @ scipy.linalg.expm(1j * h0 * tt) @ scipy.linalg.expm(-1j * h1 * tt)
                      @ v for tt in np.ravel(t)]).reshape(np.shape(t))
    return forms[0], forms[1], exact


class TestAnalyticFormula:
    def test_uncoupled_and_initial(self):
        t = np.linspace(0, 0.05, 20)
        for form in one_sided_closed_forms(two_level(coupling=0.0)[1], t):
            np.testing.assert_allclose(form, 1.0, atol=1e-12)
        for form in one_sided_closed_forms(two_level()[1], 0.0):
            assert form == pytest.approx(1.0, abs=0)

    def test_magnitude_periodicity(self):
        # |r| of the exact one-sided overlap repeats with the shifted branch's
        # half period pi / eps_shift
        _, p = two_level()
        eps_s = np.hypot(p.delta_gap, p.b_field + p.coupling)
        period = np.pi / eps_s
        t = np.linspace(0, period, 40)
        r0 = np.abs(one_sided_closed_forms(p, t)[2])
        r1 = np.abs(one_sided_closed_forms(p, t + period)[2])
        np.testing.assert_allclose(r0, r1, atol=1e-10)

    def test_discrepancy_report(self):
        # the quoted sin coefficient deviates from the exact one-sided overlap
        # at first order in lam*d; the repaired one removes the gap entirely
        _, p = two_level()
        eps_s = np.hypot(p.delta_gap, p.b_field + p.coupling)
        t = np.linspace(0.0, np.pi / eps_s, 512)  # one magnitude period
        quoted, repaired, exact = one_sided_closed_forms(p, t)
        dev_repaired = np.max(np.abs(repaired - exact))
        assert dev_repaired < 1e-12
        assert np.max(np.abs(quoted - exact)) > dev_repaired

    def test_matches_exact_at_critical_point(self):
        # at B = 0 the quoted coefficient is exact
        t = np.linspace(0, 0.02, 100)
        quoted, _, exact = one_sided_closed_forms(two_level(b_field=0.0)[1], t)
        np.testing.assert_allclose(quoted, exact, atol=1e-10)


class TestCorrectionCurve:
    """The gp-curve correction column (``rows(...)[0, 2]``) across the fields."""

    def test_uncoupled_curve_is_zero(self):
        # sampled on purpose: gp-curve itself returns the closed-form unitary
        # record at coupling 0, so its rows would pass without any sampling
        bs = field_grid(b_points=5) / 2
        curve = []
        for b in bs:
            sysp, bath = two_level(coupling=0.0, b_field=b)
            curve.append(geometric_phase(oracle_trace(bath, sysp, 256), sysp).correction)
        assert max(np.abs(curve)) < 1e-8

    def test_peak_at_criticality_and_asymmetry(self):
        bs = field_grid()
        curve = np.array([rows("gp-curve", b_field=b, samples=512)[0, 2] for b in bs])
        assert np.argmax(np.abs(curve)) == np.argmin(np.abs(bs))
        ip, im = np.argmin(np.abs(bs - bs[-1] / 2)), np.argmin(np.abs(bs - bs[0] / 2))
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

        sysp, bath = two_level(b_field=0.1 * OMEGA)
        phi = rows("gp-curve", b_field=bath.b_field, samples=2048)[0, 0]
        p = ProtocolParams(sys=sysp, bath=bath)
        times = np.linspace(0.0, sysp.tau, 32769)
        states = _exact_states(p, times, _initial_state(p, np.pi / 2))
        # input angle pi/2: r(t) = 2 <0|rho_S(t)|1> e^{2 i W t}
        r = 2.0 * _system_coherence(states) * np.exp(2j * OMEGA * times)
        phi_traj = gp_from_trajectory(density_trajectory(trace_from_samples(times, r), sysp))
        diff = (phi - phi_traj + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-6

    def test_failed_points_flagged(self):
        # a coupling winding faster than the refinement cap can resolve fails
        # loudly at B = 0; a sane point still succeeds
        with pytest.raises(UnwrapFailure):
            rows("gp-curve", coupling=1e6 * OMEGA, b_field=0.0, samples=256)
        assert np.isfinite(rows("gp-curve", b_field=0.1 * OMEGA, samples=256)[0, 2])


class TestLandscape:
    def test_deepest_collapse_at_critical_field(self):
        # the time-minimum of |r(t)|^2 over one cycle is deepest at B = 0
        sysp, bath = two_level()
        bs = field_grid()
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
