"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each test also enforces its runtime budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from conftest import field_grid, ones_sampler, point, protocol, rows, trotter, two_level
from gphase.cli import main as cli_main
from gphase.gp import build_trace, geometric_phase
from gphase.ising import IsingBathParams, decoherence_product
from gphase.protocol import run_protocol, worst_cycle_fidelity
from gphase.reference import (
    PINNED_TROTTER_STEPS,
    brute_force_oracle,
    density_trajectory,
    extract_coefficients_numeric,
    fidelity_bound,
    find_min_trotter_steps,
    gp_from_trajectory,
    gp_third_order,
)
from gphase.two_level import decoherence_factor_oracle


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds budget {self.limit}s"
            )


def test_c01_unitary_limit():
    with Budget(1.0) as b:
        worst = 0.0
        for th in np.linspace(0.02, np.pi - 0.02, 20):
            sp, _ = two_level(theta=th)
            res = geometric_phase(build_trace(ones_sampler, sp, 128), sp)
            worst = max(worst, abs(res.phi_total - np.pi * (1.0 - np.cos(th))))
        assert worst < 1e-8
    print(f"\nC01 unitary limit: PASS (worst {worst:.2e} rad, {b.elapsed:.2f}s)")


def test_c02_dual_formula_equivalence():
    with Budget(10.0) as bud:
        b_grid = field_grid()
        cases = [(np.pi / 4, b) for b in b_grid]
        rng = np.random.default_rng(2024)
        cases += [
            (rng.uniform(0.3, np.pi - 0.3), rng.uniform(b_grid[0], b_grid[-1]))
            for _ in range(10)
        ]
        worst = 0.0
        for th, b in cases:
            sp, bath = two_level(theta=th, b_field=b)
            eq3 = geometric_phase(
                build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096), sp
            ).phi_total
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 32768)
            eq2 = gp_from_trajectory(density_trajectory(tr, sp))
            diff = abs((eq3 - eq2 + np.pi) % (2.0 * np.pi) - np.pi)
            worst = max(worst, diff)
        assert worst < 1e-6
    print(f"\nC02 dual-formula equivalence: PASS (worst {worst:.2e} rad, {bud.elapsed:.1f}s)")


def test_c03_protocol_vs_branch_oracle():
    with Budget(10.0) as bud:
        worst = 0.0
        for b in field_grid():
            p = protocol(b_field=b)
            trace = run_protocol(p)
            ref = decoherence_factor_oracle(p.bath, trace.times)
            worst = max(worst, float(np.max(np.abs(trace.r_values - ref))))
        assert worst < 1e-10
    print(f"\nC03 protocol vs branch oracle: PASS (worst {worst:.2e}, {bud.elapsed:.1f}s)")


def test_c04_trotter_fidelity_claim():
    with Budget(30.0) as bud:
        budget = point("trotter-check")["fidelity_threshold"]
        n = find_min_trotter_steps(*trotter(1))
        assert n == PINNED_TROTTER_STEPS  # frozen regression anchor
        stepped, b_grid = trotter(n)
        worst = worst_cycle_fidelity(stepped, b_grid)
        assert worst >= budget
        # the commutator bound certifies the whole interval, not only the grid
        certified = fidelity_bound(stepped, b_grid[0], b_grid[-1])
        assert budget <= certified <= worst
    print(f"\nC04 trotter fidelity: PASS (n = {n}, worst fidelity {worst:.6f}, "
          f"certified {certified:.6f}, {bud.elapsed:.1f}s)")


def test_c05_correction_curve_structure():
    with Budget(30.0) as bud:
        b_grid, dphi = field_grid(), rows("correction")[:, 0]
        assert np.argmax(np.abs(dphi)) == np.argmin(np.abs(b_grid))
        ip = np.argmin(np.abs(b_grid - b_grid[-1] / 2))
        im = np.argmin(np.abs(b_grid - b_grid[0] / 2))
        rel = abs(abs(dphi[ip]) - abs(dphi[im])) / max(abs(dphi[ip]), abs(dphi[im]))
        assert rel > 0.05
    print(
        f"\nC05 correction-curve structure: PASS (peak at B=0, "
        f"asymmetry {100 * rel:.0f}%, {bud.elapsed:.1f}s)"
    )


def test_c06_ising_product_vs_brute_force():
    with Budget(120.0) as bud:
        t = np.linspace(0.0, 2.0, 16)
        worst = 0.0
        for n in (2, 4, 6, 8):
            for lam in (0.25, 0.75, 1.0, 1.25):
                for d in (1e-3, 1e-2):
                    p = IsingBathParams(n, 1.0, lam, d)
                    dv = np.abs(decoherence_product(p, t) - brute_force_oracle(p, t))
                    worst = max(worst, float(np.max(dv)))
        assert worst < 1e-6
    print(f"\nC06 ising product vs brute force: PASS (worst {worst:.2e}, {bud.elapsed:.1f}s)")


def test_c07_appendix_figure_desk_scale():
    with Budget(300.0) as bud:
        # the paper-figA rows at lambda = 0.2, 0.25, ..., 0.9 and 1.1, ..., 1.8
        ex, o2, o3 = np.concatenate([
            rows("ising-sweep", lambda_min=lo, lambda_max=hi, lambda_points=15)
            for lo, hi in ((0.2, 0.9), (1.1, 1.8))]).T
        rel_errs = np.abs(o3 - ex) / np.abs(ex)
        wins = np.sum(np.abs(o3 - ex) < np.abs(o2 - ex))
        assert max(rel_errs) < 0.10
        assert wins >= 0.9 * len(ex)
    print(
        f"\nC07 chain weak-coupling figure: PASS (worst 3rd-order rel err "
        f"{100 * max(rel_errs):.2f}%, 3rd beats 2nd on {wins}/{len(ex)}, {bud.elapsed:.0f}s)"
    )


def test_c08_criticality_grows_with_size():
    """|dphi| at the critical point lambda = 1 grows over N = 20, 50 and 100.

    This does not show that criticality is imprinted: the growth holds off the
    critical point too.  At delta = 5e-5 and 4096 samples, dphi / (N delta^2)
    reads -0.093, -0.100, -0.124 at lambda = 0.5 and -0.074, -0.33, -1.26 at
    lambda = 1.5 over the same N.  It comes from the first-order phase
    delta T G1, proportional to delta N, inside the third-order terms,
    wherever G1 != 0, that is at every lambda but 0.
    """
    with Budget(120.0) as bud:
        # the paper-figA exact column is dphi / (N delta^2)
        delta = point("ising-sweep")["coupling"]
        vals = [abs(rows("ising-sweep", n_spins=n, lambda_min=1.0, lambda_max=1.0,
                         lambda_points=1)[0, 0]) * n * delta**2 for n in (20, 50, 100)]
        assert vals[0] < vals[1] < vals[2]
    print(f"\nC08 criticality vs size: PASS ({[f'{v:.2e}' for v in vals]}, {bud.elapsed:.1f}s)")


def test_c09_perturbative_order():
    with Budget(60.0) as bud:
        sp, base = two_level()

        def sampler(delta, t):
            return decoherence_factor_oracle(replace(base, coupling=delta), t)

        times = np.linspace(0.0, sp.tau, 2049)
        co = extract_coefficients_numeric(sampler, times, h=1e-4 * sp.omega)
        deltas = np.array([0.02, 0.01, 0.005, 0.0025]) * sp.omega
        residuals = []
        for d in deltas:
            bath = replace(base, coupling=d)
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096)
            exact = geometric_phase(tr, sp).correction
            residuals.append(abs(gp_third_order(co, sp, d).order3 - exact))
        slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)
    print(f"\nC09 perturbative order: PASS (residual slope {slope:.3f}, {bud.elapsed:.1f}s)")


def test_c10_elliptic_integrals():
    with Budget(1.0) as bud:
        assert abs(ellipk(0.0) - np.pi / 2) < 1e-14
        assert abs(ellipe(0.0) - np.pi / 2) < 1e-14
        assert abs(ellipe(1.0) - 1.0) < 1e-14
        worst = 0.0
        for m in np.linspace(0.01, 0.99, 50):
            lhs = (
                ellipe(m) * ellipk(1.0 - m)
                + ellipe(1.0 - m) * ellipk(m)
                - ellipk(m) * ellipk(1.0 - m)
            )
            worst = max(worst, abs(lhs - np.pi / 2))
        assert worst < 1e-12
    print(f"\nC10 elliptic integrals: PASS (Legendre worst {worst:.2e}, {bud.elapsed:.2f}s)")


def test_c11_determinism(tmp_path):
    with Budget(60.0) as bud:
        def run_preset(experiment, preset, name, workers):
            path = tmp_path / name
            rc = cli_main(
                [experiment, "--preset", preset, "--output", str(path),
                 "--workers", str(workers)]
            )
            assert rc == 0
            return path.read_bytes()

        a = run_preset("correction", "paper-fig1c", "c1.csv", 1)
        b = run_preset("correction", "paper-fig1c", "c2.csv", 1)
        c = run_preset("correction", "paper-fig1c", "c3.csv", 8)
        assert a == b == c
        t1 = run_preset("trotter-check", "trotter-claim", "t1.csv", 1)
        t2 = run_preset("trotter-check", "trotter-claim", "t2.csv", 8)
        assert t1 == t2
        i1 = run_preset("ising-sweep", "paper-figA", "i1.csv", 1)
        i2 = run_preset("ising-sweep", "paper-figA", "i2.csv", 8)
        assert i1 == i2
    print(f"\nC11 determinism: PASS (3 presets byte-identical, {bud.elapsed:.0f}s)")
