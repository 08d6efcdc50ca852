import concurrent.futures
import dataclasses
import json
import time

import numpy as np
import pytest

from gphase import cli, protocol
from gphase.cli import EXPERIMENTS, PRESETS, _results, main, parse_config
from gphase.errors import GphaseError, PerturbativeBreakdown
from gphase.gp import SystemParams, build_trace, geometric_phase
from gphase.protocol import ProtocolParams
from gphase.reference import (
    PINNED_TROTTER_STEPS,
    TROTTER_FIDELITY_THRESHOLD,
    find_min_trotter_steps,
)
from gphase.two_level import TwoLevelBathParams, decoherence_factor_oracle


def run_cli(argv, tmp_path, name="out"):
    path = tmp_path / name
    rc = main(argv + ["--output", str(path)])
    return rc, path.read_bytes() if path.exists() else b""


def exit_code(argv):
    """``main(argv)``, or the status of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def settable(exp):
    return [k for k in exp.defaults if k not in exp.fixed]


class TestPresets:
    def test_exactly_three(self):
        assert list(PRESETS) == ["paper-fig1c", "paper-figA", "trotter-claim"]

    def test_figA_parameters(self):
        p = parse_config(["ising-sweep", "--preset", "paper-figA"]).parameters
        assert p["n_spins"] == 100
        assert p["coupling"] == pytest.approx(5e-5)
        assert p["omega_over_j"] == 1.0

    def test_fig1c_parameters(self):
        p = parse_config(["correction", "--preset", "paper-fig1c"]).parameters
        assert p["theta"] == pytest.approx(np.pi / 4)
        assert p["delta_gap"] == pytest.approx(0.02 * p["omega"])
        assert p["coupling"] == pytest.approx(0.1 * p["omega"])
        assert (p["b_min"], p["b_max"]) == (-0.2 * p["omega"], 0.2 * p["omega"])

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_preset_is_its_experiments_defaults(self, name):
        experiment = PRESETS[name]
        with_preset = parse_config([experiment, "--preset", name])
        assert with_preset.parameters == EXPERIMENTS[experiment].defaults
        assert with_preset.config_hash == parse_config([experiment]).config_hash

    def test_listing_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_listing_names_only_settable_keys(self, capsys):
        assert main(["presets"]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        for name, experiment in PRESETS.items():
            exp = EXPERIMENTS[experiment]
            keys = [cell.split("=")[0] for cell in lines[name].split()[1:]]
            assert keys == settable(exp)


class TestGpCurve:
    def test_matches_library(self, tmp_path):
        argv = ["gp-curve", "--theta", "0.7853981634", "--omega", "314.159",
                "--delta-gap", "6.2832", "--coupling", "31.416", "--b-field", "15.708",
                "--format", "json"]
        rc, raw = run_cli(argv, tmp_path, "gp.json")
        assert rc == 0
        doc = json.loads(raw)
        sysp = SystemParams(omega=314.159, theta=0.7853981634)
        bath = TwoLevelBathParams(delta_gap=6.2832, b_field=15.708, coupling=31.416)
        ref = geometric_phase(
            build_trace(lambda t: decoherence_factor_oracle(bath, t), sysp, 1024), sysp
        )
        row = doc["rows"][0]
        cols = doc["columns"]
        assert row[cols.index("phi_total")] == pytest.approx(ref.phi_total, abs=1e-12)
        assert row[cols.index("correction")] == pytest.approx(ref.correction, abs=1e-12)
        assert doc["provenance"]["config_hash"] == row[cols.index("config_hash")]

    def test_sweep_axis(self, tmp_path, point_calls):
        argv = ["gp-curve", "--sweep", "b_field", "-15", "15", "3", "--samples", "256"]
        rc, raw = run_cli(argv, tmp_path, "sweep.csv")
        assert rc == 0
        lines = raw.decode().strip().splitlines()
        assert lines[0].startswith("b_field,phi_total")
        assert len(lines) == 4
        assert len(point_calls) == 3
        # the swept field reaches the physics, not only the first column
        assert len({line.split(",", 1)[1] for line in lines[1:]}) == 3


class TestWeakCouplingOrders:
    """The order columns are corrections in their own right, so weak coupling
    cannot cancel them to multiples of ulp(pi (1 - cos theta)) / (N d^2)."""

    def _orders(self, tmp_path, coupling):
        argv = ["ising-approx", "--lambda-points", "1", "--lambda-min", "2",
                "--lambda-max", "2", "--coupling", coupling]
        rc, raw = run_cli(argv, tmp_path, f"approx-{coupling}.csv")
        assert rc == 0
        _, o2, o3, _ = raw.decode().strip().splitlines()[1].split(",")
        return float(o2), float(o3)

    def test_columns_do_not_quantise(self, tmp_path):
        tiny, fig = self._orders(tmp_path, "1e-9"), self._orders(tmp_path, "5e-5")
        # the normalised second order is independent of the coupling
        assert tiny[0] == pytest.approx(fig[0], rel=1e-12, abs=0)
        # and the third-order term scales as the coupling
        ratio = (tiny[1] - tiny[0]) / (fig[1] - fig[0])
        assert ratio == pytest.approx(1e-9 / 5e-5, rel=1e-10, abs=0)


class TestTraceExperiment:
    def test_schema(self, tmp_path):
        rc, raw = run_cli(["trace", "--samples", "64"], tmp_path, "trace.csv")
        assert rc == 0
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "t,re_r,im_r,abs_r,phase,config_hash"
        assert len(lines) == 66  # header + 65 grid points
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)  # r(0) = 1


class TestDeterminism:
    def test_repeat_and_workers_identical(self, tmp_path):
        argv = ["ising-approx", "--lambda-points", "5", "--n-spins", "40"]
        _, a = run_cli(argv + ["--workers", "1"], tmp_path, "a.csv")
        _, b = run_cli(argv + ["--workers", "1"], tmp_path, "b.csv")
        _, c = run_cli(argv + ["--workers", "4"], tmp_path, "c.csv")
        assert a == b == c
        assert len(a) > 0

    @pytest.mark.parametrize("workers,points,cpus,sizes", [
        (64, 2, 8, [2]),      # never more workers than points
        (64, 5, 3, [3]),      # nor than CPUs
        (3, 5, 8, [3]),
        (64, 5, None, []),    # CPU count unknown: serial
        (64, 1, 8, []),       # one point: serial
    ], ids=["points", "cpus", "workers", "cpus-unknown", "one-point"])
    def test_pool_sized_to_work(self, tmp_path, monkeypatch, workers, points, cpus, sizes):
        created = []

        class InlinePool:
            """Records its size and runs each task at submit; starts no process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["ising-approx", "--lambda-points", str(points), "--n-spins", "40",
                "--workers", str(workers)]
        rc, raw = run_cli(argv, tmp_path, "p.csv")
        assert rc == 0
        assert len(raw.decode().strip().splitlines()) == points + 1
        assert created == sizes

    def test_hash_ignores_output_and_workers(self):
        base = parse_config(["ising-approx", "--lambda-points", "2"])
        other = parse_config(["ising-approx", "--lambda-points", "2", "--workers", "7",
                              "--output", "x.csv"])
        assert base.config_hash == other.config_hash
        changed = parse_config(["ising-approx", "--lambda-points", "3"])
        assert changed.config_hash != base.config_hash


def _fail_first(task):
    """Pool point function: task 0 fails, every other task leaves a file."""
    index, folder = task
    if index == 0:
        raise GphaseError("first point fails")
    time.sleep(0.1)
    (folder / str(index)).touch()
    return [[float(index)]]


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        assert main(["gp-curve", "--omega", "-3"]) == 3

    def test_preset_experiment_mismatch(self):
        assert main(["gp-curve", "--preset", "paper-figA"]) == 2

    def test_bad_sweep_spec(self):
        assert main(["gp-curve", "--sweep", "b_field", "0", "1", "xyz"]) == 2

    # at B = 0 this coupling (d = omega) makes r(t) a sign-flipping real
    # cosine whose unwrap fails at every resolution; the grid includes that
    # point, and at B = +-0.2 omega both columns resolve r(t)
    _BAD = ["correction", "--coupling", str(100 * np.pi), "--b-points", "3"]

    def test_runtime_failure_without_keep_going(self, tmp_path):
        rc = main(self._BAD + ["--output", str(tmp_path / "f.csv")])
        assert rc == 1

    def test_stops_at_first_failed_point(self, tmp_path, point_calls):
        # B = -0.2 omega runs, B = 0 fails, B = +0.2 omega must not run
        assert main(self._BAD + ["--output", str(tmp_path / "f.csv")]) == 1
        assert len(point_calls) == 2

    def test_failure_log_names_the_typed_error(self, tmp_path, caplog):
        assert main(self._BAD + ["--output", str(tmp_path / "f.csv")]) == 1
        assert "UnwrapFailure: " in caplog.text
        assert "GphaseError" not in caplog.text

    def test_pool_cancels_points_not_started(self, tmp_path):
        tasks = [(i, tmp_path) for i in range(20)]
        results = _results(_fail_first, tasks, workers=2)
        assert isinstance(next(results), GphaseError)
        results.close()
        assert len(list(tmp_path.iterdir())) < len(tasks) // 2

    def test_failed_point_label_is_exact(self, monkeypatch, caplog):
        # a .6g label named a failure at lambda = 1 + 1e-8 "lambda=1"
        exp = EXPERIMENTS["ising-approx"]

        def point(args):
            if args[0].lam != 1.0:
                raise RuntimeError("fails off the critical point")
            return exp.point(args)

        monkeypatch.setitem(EXPERIMENTS, "ising-approx", dataclasses.replace(exp, point=point))
        config = parse_config(["ising-approx", "--lambda-min", "1", "--lambda-max", "1.00000001",
                               "--lambda-points", "2"])
        with pytest.raises(GphaseError, match=r"^point lambda=1\.00000001: RuntimeError"):
            cli.run(config)
        assert "lambda=1.00000001: RuntimeError" in caplog.text

    def test_keep_going_flags_and_succeeds(self, tmp_path):
        rc, raw = run_cli(self._BAD + ["--keep-going"], tmp_path, "kg.csv")
        assert rc == 0
        rows = raw.decode().strip().splitlines()[1:]
        assert len(rows) == 3
        assert any("nan" in r for r in rows)

    def test_aliasing_coupling_fails_every_point(self, tmp_path):
        # r(t) winds about 2e6 times per cycle, far beyond the protocol's
        # 64-interval readout grid: every field fails in both columns
        rc, raw = run_cli(["correction", "--coupling", "314159265.3589793", "--b-points", "3",
                           "--keep-going"], tmp_path, "alias.csv")
        assert rc == 0
        rows = [r.split(",") for r in raw.decode().strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(r[1] == "nan" and r[2] == "nan" for r in rows)

    def test_failed_cells_are_json_null(self, tmp_path):
        # RFC 8259 has no NaN: a failed cell is null, and a strict parser
        # reads the whole document
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        rc, raw = run_cli(["correction", "--coupling", "314159265.3589793", "--b-points", "3",
                           "--keep-going", "--format", "json"], tmp_path, "alias.json")
        assert rc == 0
        doc = json.loads(raw, parse_constant=reject)
        assert [row[1:3] for row in doc["rows"]] == [[None, None]] * 3

    @pytest.mark.parametrize("flags", [["--coupling", "1e-9"], ["--theta", "1.5707963267948966"]])
    def test_correction_under_its_rounding_floor_fails(self, tmp_path, caplog, flags):
        # the exact column is a difference of O(1) phases; it used to print
        # rounding noise as a value: -1.11, -6.66 and -4.44 next to order 2
        # at -0.069, -0.838 and -0.0058 at delta = 1e-9, and -1.78e-8 at
        # every lambda at theta = pi/2, where the correction is exactly 0
        rc, raw = run_cli(["ising-sweep", "--lambda-points", "3", "--samples", "1024", *flags,
                           "--keep-going"], tmp_path, "floor.csv")
        assert rc == 0
        rows = [r.split(",") for r in raw.decode().strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["nan"] * 3
        assert caplog.text.count("CancellationFloor: ") == 3

    @pytest.mark.parametrize("flags", [["--coupling", "1e-6"], ["--coupling", "1e-5"],
                                       ["--theta", "1.5707963267948966"]])
    def test_gp_curve_under_the_floor_fails(self, flags, capsys):
        # it printed -2.22e-16, -4.11e-15 (delta^2 scaling gives -3.99e-15)
        # and, where theta = pi/2 makes the correction 0, 4.44e-16
        assert main(["gp-curve", *flags]) == 1
        assert "CancellationFloor" in capsys.readouterr().err

    def test_floor_fails_both_correction_columns(self, tmp_path):
        # dphi_protocol printed 4.44e-16 at B = -0.2 omega
        rc, raw = run_cli(["correction", "--theta", "1.5707963267948966", "--b-points", "3",
                           "--keep-going"], tmp_path, "floor.csv")
        assert rc == 0
        rows = [r.split(",") for r in raw.decode().strip().splitlines()[1:]]
        assert [r[1:3] for r in rows] == [["nan", "nan"]] * 3

    @pytest.mark.parametrize("argv, cells", [
        (["gp-curve", "--coupling", "0"], slice(2, 3)),
        (["correction", "--coupling", "0", "--b-points", "3"], slice(1, 3)),
    ], ids=["gp-curve", "correction"])
    def test_uncoupled_bath_is_exactly_zero_unsampled(self, argv, cells, tmp_path, monkeypatch):
        # r = 1 in closed form: the correction is 0, not the 1.1e-16 and
        # +-4.4e-16 of a sampled run
        def sampled(*args):
            raise AssertionError("an uncoupled bath was sampled")

        for owner in (cli, protocol):
            monkeypatch.setattr(owner, "oracle_trace", sampled)
        monkeypatch.setattr(protocol, "run_protocol", sampled)
        rc, raw = run_cli(argv, tmp_path, "zero.csv")
        assert rc == 0
        rows = [r.split(",") for r in raw.decode().strip().splitlines()[1:]]
        assert all(c == "0" for r in rows for c in r[cells])

    def test_pole_correction_is_exactly_zero(self, tmp_path):
        # the pole's closed-form record subtracts nothing, so its 0 passes
        rc, raw = run_cli(["gp-curve", "--theta", "0"], tmp_path, "pole.csv")
        assert rc == 0
        assert raw.decode().splitlines()[1].split(",")[2] == "0"

    def test_smallest_measured_correction_clears_the_floor(self, tmp_path):
        # N = 10 at omega = 2 J holds the smallest correction seen on any
        # grid, about 1.9e-10 rad, three decades above the floor
        rc, raw = run_cli(["ising-sweep", "--n-spins", "10", "--omega-over-j", "2"], tmp_path,
                          "small.csv")
        assert rc == 0
        rows = [r.split(",") for r in raw.decode().strip().splitlines()[1:]]
        assert len(rows) == 41
        assert min(abs(float(r[1])) for r in rows) * 10 * 5e-5**2 < 1e-9

    def test_aliasing_coupling_fails_the_oracle_trace(self, capsys):
        # r(t) winds about 2e6 times per cycle; the 1024-sample trace used to
        # unwrap it anyway and print a correction of -1056.59
        assert main(["gp-curve", "--coupling", "314159265.3589793",
                     "--b-field", "62.83185307179586"]) == 1
        assert "UnwrapFailure" in capsys.readouterr().err

    def test_chain_winding_past_the_requested_grid_is_resolved(self, tmp_path):
        # L = 130 rad/s needs more than 520 intervals: the 64-sample request is
        # sampled on 1024.  The doubling loop accepted the 64- and 128-interval
        # grids, 128 * 2 pi off, and printed 0.00661
        argv = ["ising-sweep", "--n-spins", "100", "--lambda-min", "1.5", "--lambda-max", "1.5",
                "--lambda-points", "1", "--coupling", "1.3", "--samples", "64"]
        with pytest.warns(PerturbativeBreakdown):
            rc, raw = run_cli(argv, tmp_path, "wind.csv")
        assert rc == 0
        dphi = float(raw.decode().splitlines()[1].split(",")[1])
        assert dphi == pytest.approx(-0.20298, abs=1e-4)

    def test_underflowing_chain_point_fails_on_its_first_grid(self, capsys):
        # N = 8000, lambda = 0, delta = 1: L = 8000 rad/s picks the 32768-interval
        # grid of 512 samples, and log|r| falls below -700 on it, so the point
        # fails on the one grid it samples and the error names the cause (G1 = 0
        # at lambda = 0, so no PerturbativeBreakdown)
        argv = ["ising-sweep", "--n-spins", "8000", "--coupling", "1", "--lambda-min", "0",
                "--lambda-max", "0", "--lambda-points", "1", "--samples", "512"]
        assert main(argv) == 1
        assert "MagnitudeUnderflow: log|r(0.518293758706861)| = -700.2" in capsys.readouterr().err

    def test_chain_point_beyond_its_grid_reach_fails_unsampled(self, tmp_path, capsys):
        # N = 20000, delta = 0.5: L = 7090.3 rad/s needs more than 28361
        # intervals, past the 4096 that 64 samples reach
        argv = ["ising-sweep", "--n-spins", "20000", "--coupling", "0.5", "--lambda-min", "0.5",
                "--lambda-max", "0.5", "--lambda-points", "1", "--samples", "64"]
        with pytest.warns(PerturbativeBreakdown):
            assert main(argv) == 1
        assert ("UnwrapFailure: rate_bound 7090.3 rad/s needs more than 28361.2 intervals; "
                "64 samples reach 4096") in capsys.readouterr().err
        with pytest.warns(PerturbativeBreakdown):
            rc, raw = run_cli(argv + ["--keep-going"], tmp_path, "reach.csv")
        assert rc == 0
        assert raw.decode().splitlines()[1].split(",")[:4] == ["0.5", "nan", "nan", "nan"]

    def test_slow_cycle_fails_before_quadrature(self, capsys):
        # the panel count grows with the cycle: 8e300 panels here
        assert main(["ising-approx", "--omega-over-j", "1e-300", "--lambda-points", "2"]) == 1
        assert "QuadratureNonconvergence" in capsys.readouterr().err

    def test_slow_cycle_under_the_ceiling_runs(self, tmp_path):
        # 2.4e4 panels at lambda = 2, well under the ceiling; the small
        # coupling keeps |d T G1| under 1 rad over the long cycle
        rc, raw = run_cli(["ising-approx", "--omega-over-j", "1e-3", "--lambda-points", "2",
                           "--coupling", "1e-6"], tmp_path, "slow.csv")
        assert rc == 0
        rows = [r.split(",") for r in raw.decode().strip().splitlines()[1:]]
        assert len(rows) == 2
        assert all(np.isfinite(float(c)) for r in rows for c in r[1:3])


class TestOutputFormats:
    def test_csv_full_precision(self, tmp_path):
        rc, raw = run_cli(["trace", "--samples", "64"], tmp_path, "p.csv")
        text = raw.decode()
        # 17 significant digits survive a round trip
        val = text.strip().splitlines()[5].split(",")[1]
        assert float(val) == float(format(float(val), ".17g"))

    def test_json_toplevel_schema(self, tmp_path):
        rc, raw = run_cli(["trace", "--samples", "64", "--format", "json"], tmp_path, "p.json")
        doc = json.loads(raw)
        assert set(doc) == {"config", "provenance", "columns", "rows"}
        assert doc["provenance"]["version"]
        assert all(len(r) == len(doc["columns"]) for r in doc["rows"])

    def test_rows_carry_hash(self, tmp_path):
        rc, raw = run_cli(["trace", "--samples", "64"], tmp_path, "h.csv")
        lines = raw.decode().strip().splitlines()
        tail = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert len(tail) == 1


class TestScaleInvariance:
    def test_rescaling_omega_changes_nothing(self):
        # all preset scales are ratios of omega: scaling omega by 10 with the
        # ratios fixed must leave the phase unchanged
        outs = []
        for scale in (1.0, 10.0):
            w = 100.0 * np.pi * scale
            sysp = SystemParams(omega=w, theta=np.pi / 4)
            bath = TwoLevelBathParams(delta_gap=0.02 * w, b_field=0.05 * w, coupling=0.1 * w)
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sysp, 1024)
            outs.append(geometric_phase(tr, sysp).phi_total)
        assert abs(outs[0] - outs[1]) < 1e-10


class TestPhysicalFlags:
    @pytest.mark.parametrize("key", sorted({k for e in EXPERIMENTS.values() for k in settable(e)}))
    def test_flag_parses_for_each_experiment_with_the_key(self, key):
        # one flag per key, typed by the key's default in every experiment
        owners = {name: exp.defaults[key] for name, exp in EXPERIMENTS.items()
                  if key in settable(exp)}
        assert len({type(v) for v in owners.values()}) == 1
        # correction accepts --trotter-steps only with the stepped decomposition
        context = ["--decomposition", "coarse-trotter"] if key == "trotter_steps" else []
        for name, default in owners.items():
            argv = [name, *context, f"--{key.replace('_', '-')}", str(default)]
            value = parse_config(argv).parameters[key]
            assert type(value) is type(default)
            assert value == default


class TestEveryFlagMoves:
    """Every flag an experiment accepts moves its payload.  A key that cannot
    is fixed: its flag exits 2 instead of printing the same numbers under a
    new config_hash."""

    # small grids; coarse-trotter makes correction read --trotter-steps, and
    # trotter-check scans fields past 0.3 omega, where the worst fidelity is
    # no longer at the largest |B|, so that --b-points can move it
    BASE = {
        "trace": ["--samples", "64"],
        "gp-curve": ["--samples", "64"],
        "correction": ["--decomposition", "coarse-trotter", "--b-points", "2"],
        "ising-sweep": ["--n-spins", "10", "--lambda-points", "2", "--samples", "64"],
        "ising-approx": ["--lambda-points", "2"],
        "trotter-check": ["--max-steps", "2", "--b-points", "3", "--b-min", "0",
                          "--b-max", "200"],
    }

    @staticmethod
    def payload(argv):
        """CSV payload of ``argv`` without its config_hash column, or None
        if the run fails."""
        try:
            columns, rows = cli._rows(parse_config(argv))
        except GphaseError:
            return None
        return cli._render_csv(columns[:-1], [row[:-1] for row in rows])

    @staticmethod
    def moved(key, value):
        if isinstance(value, str):
            return next(c for c in cli._CHOICES[key] if c != value)
        if key == "theta":
            # doubling pi/4 reaches pi/2, where every correction is exactly 0
            # and the ising-sweep exact column fails its rounding floor
            return value / 2
        return 2 * value if value else 0.5

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_each_flag_moves_the_payload(self, name):
        base = [name, *self.BASE[name]]
        params = parse_config(base).parameters
        before = self.payload(base)
        assert before is not None
        still = [key for key in settable(EXPERIMENTS[name])
                 if self.payload(base + [f"--{key.replace('_', '-')}",
                                         str(self.moved(key, params[key]))]) in (before, None)]
        assert still == []


def test_two_level_bath_holds_the_grid_field_exactly(monkeypatch):
    # solving lambda from B and mapping it back moved 7 of the 21 default
    # correction fields by one ulp
    def hexes(values):
        return [float(v).hex() for v in values]

    seen = []
    run_protocol = protocol.run_protocol
    monkeypatch.setattr(protocol, "run_protocol",
                        lambda p: seen.append(p.bath.b_field) or run_protocol(p))
    exp = EXPERIMENTS["correction"]
    points = exp.grid(exp.defaults)
    assert hexes(exp.prepare(p)[0].bath.b_field for p in points) == hexes(
        p["b_field"] for p in points)
    for p in points:
        exp.point(exp.prepare(p))
    assert hexes(seen) == hexes(p["b_field"] for p in points)

    seen.clear()
    monkeypatch.setattr(protocol, "cycle_fidelity", lambda p: seen.append(p.bath.b_field) or 1.0)
    exp = EXPERIMENTS["trotter-check"]
    proto, b_grid = exp.prepare(exp.grid(exp.defaults)[0])
    assert len(b_grid) == 21
    exp.point((proto, b_grid))
    assert hexes(seen) == hexes(b_grid)


# config_hash of each experiment's defaults, as written by earlier releases;
# reference payloads carry these hashes
@pytest.mark.parametrize("argv, digest", [
    (["trace"], "9fb8bfa3981a65c4"),
    (["gp-curve"], "f05a7d9a3fb00661"),
    (["ising-sweep"], "34032a84da4dba98"),
    (["ising-sweep", "--preset", "paper-figA"], "34032a84da4dba98"),
    (["ising-approx"], "25ffccbcae8ff61d"),
    (["trotter-check"], "81e3c1f4845bee68"),
    (["trotter-check", "--preset", "trotter-claim"], "81e3c1f4845bee68"),
    (["correction"], "bc5ab4947ef156f3"),
    (["correction", "--preset", "paper-fig1c"], "bc5ab4947ef156f3"),
])
def test_config_hash_pinned(argv, digest):
    assert parse_config(argv).config_hash == digest


@pytest.fixture
def point_calls(monkeypatch):
    """Count the point-function calls of every experiment."""
    calls = []
    for name, exp in EXPERIMENTS.items():
        def spy(args, point=exp.point):
            calls.append(args)
            return point(args)
        monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(exp, point=spy))
    return calls


class TestRejectedBeforeWork:
    """Inputs the experiment table rejects, each with its documented exit code."""

    def test_unknown_sweep_axis(self, point_calls):
        # a misspelt axis used to sweep nothing and print identical rows
        assert main(["gp-curve", "--sweep", "bfield", "0", "10", "3"]) == 2
        assert point_calls == []

    def test_znu_is_no_gp_curve_axis(self, point_calls):
        # gp-curve fixes B, not lambda, so a znu sweep printed identical rows
        assert main(["gp-curve", "--sweep", "znu", "0.5", "2", "4"]) == 2
        assert point_calls == []

    @pytest.mark.parametrize("argv", [
        ["correction", "--sweep", "theta", "0.5", "0.7", "2"],      # used theta as B
        ["ising-approx", "--sweep", "n_spins", "10", "20", "2"],    # used N as lambda
        ["trotter-check", "--sweep", "b_min", "1", "3", "2"],       # ran 3 Trotter steps
        ["trace", "--sweep", "theta", "0.5", "0.7", "2"],           # ignored the sweep
    ])
    def test_sweep_on_experiment_without_axis(self, argv, point_calls):
        assert main(argv) == 2
        assert point_calls == []

    def test_pulse_level_is_no_decomposition(self, point_calls):
        # the pulse form of the Z rotations is the coarse step itself; argparse
        # rejects the choice with exit status 2
        with pytest.raises(SystemExit) as exc:
            main(["correction", "--decomposition", "pulse-level"])
        assert exc.value.code == 2
        assert point_calls == []

    def test_flag_the_experiment_does_not_use(self, point_calls):
        # omega used to enter the parameters and the hash and change nothing
        assert main(["ising-approx", "--omega", "5"]) == 2
        assert point_calls == []

    def test_samples_below_trace_floor(self, point_calls):
        assert main(["gp-curve", "--samples", "10"]) == 3
        assert point_calls == []

    def test_out_of_range_sweep_point(self, point_calls):
        # theta = 3 is valid and must not run before theta = 4 is rejected
        assert main(["gp-curve", "--sweep", "theta", "3", "4", "2"]) == 3
        assert point_calls == []

    def test_nan_coupling(self, point_calls):
        # used to refine up to 65536 samples before failing
        assert main(["gp-curve", "--coupling", "nan"]) == 3
        assert point_calls == []

    def test_protocol_convention(self, point_calls):
        # the protocol simulates the zz coupling whatever the flag says, so
        # its column used to disagree in sign with the projector theory column
        assert main(["correction", "--convention", "projector", "--b-points", "3"]) == 2
        assert point_calls == []

    @pytest.mark.parametrize("steps", ["64", "128"])
    def test_trotter_steps_under_exact(self, steps, point_calls, capsys):
        # the exact decomposition never reads the step count, so --trotter-steps
        # used to print the same rows under a new config_hash
        assert main(["correction", "--trotter-steps", steps, "--b-points", "3"]) == 2
        assert "--decomposition coarse-trotter" in capsys.readouterr().err
        assert point_calls == []

    @pytest.mark.parametrize("argv", [
        ["trace", "--znu", "0"],   # exited 3 on a > 0 check, its only reader
        *([name, f"--{key.replace('_', '-')}", str(exp.defaults[key])]
          for name, exp in EXPERIMENTS.items() for key in exp.fixed),
    ], ids=" ".join)
    def test_fixed_key_flag(self, argv, point_calls):
        # each used to print its experiment's numbers unmoved under a new hash
        assert exit_code(argv) == 2
        assert point_calls == []

    def test_nan_lambda(self, point_calls):
        # used to escape as a bare ValueError
        assert main(["ising-approx", "--lambda-min", "nan"]) == 3
        assert point_calls == []

    @pytest.mark.parametrize("argv", [
        ["trace", "--b-field", "inf"],
        ["correction", "--b-points", "0"],
        ["trotter-check", "--max-steps", "0"],
        ["ising-sweep", "--n-spins", "5"],
        ["ising-approx", "--omega-over-j", "-1"],
        ["ising-approx", "--omega-over-j", "0"],
        ["gp-curve", "--sweep", "theta", "0.5", "0.7", "0"],
        ["correction", "--decomposition", "coarse-trotter", "--trotter-steps", "0"],
        # the chain columns are divided by N delta^2
        ["ising-approx", "--coupling", "0", "--lambda-points", "2"],
        ["ising-sweep", "--coupling", "0", "--lambda-points", "2"],
        # 2 steps cannot reach the readout grid's 64 intervals
        ["correction", "--decomposition", "coarse-trotter", "--trotter-steps", "2",
         "--b-points", "3"],
    ])
    def test_other_invalid_values(self, argv, point_calls):
        assert main(argv) == 3
        assert point_calls == []


def test_trotter_grid_is_doublings(tmp_path):
    rc, raw = run_cli(["trotter-check", "--max-steps", "5", "--b-points", "2"], tmp_path, "t.csv")
    assert rc == 0
    steps = [float(line.split(",")[0]) for line in raw.decode().strip().splitlines()[1:]]
    assert steps == [1.0, 2.0, 4.0]


def test_trotter_check_agrees_with_library(tmp_path):
    argv = ["trotter-check", "--preset", "trotter-claim"]
    rc, raw = run_cli(argv + ["--max-steps", "4"], tmp_path, "t.csv")
    assert rc == 0
    rows = [line.split(",") for line in raw.decode().strip().splitlines()[1:]]
    first = next(int(float(n)) for n, fid, _ in rows
                 if float(fid) >= TROTTER_FIDELITY_THRESHOLD)

    p = parse_config(argv).parameters
    bath = TwoLevelBathParams(delta_gap=p["delta_gap"], b_field=0.0, coupling=p["coupling"])
    proto = ProtocolParams(sys=SystemParams(omega=p["omega"], theta=p["theta"]), bath=bath)
    b_grid = np.linspace(p["b_min"], p["b_max"], p["b_points"])
    assert len(b_grid) == 21
    assert first == find_min_trotter_steps(proto, b_grid) == PINNED_TROTTER_STEPS
