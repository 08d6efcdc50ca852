"""Command-line front end: presets, parameter sweeps, CSV/JSON output.

Experiments
-----------
trace         sample the two-level bath decoherence factor over one cycle
gp-curve      geometric phase for one parameter set (or a sweep of one axis)
correction    coupling-induced phase correction across a field sweep,
              protocol simulation plus the theory column
ising-sweep   exact chain pipeline vs 2nd/3rd order approximations over lambda
ising-approx  2nd/3rd order approximations only (fast)
trotter-check minimum fidelity over the field range per step count

Each experiment is one ``Experiment`` record in ``EXPERIMENTS``: defaults
and the fixed keys among them, output columns, ``--sweep`` axes, point grid,
the point's call and row label.  Each is also an argparse subcommand built
from its record, so ``gphase <experiment> --help`` lists exactly the flags it
accepts: the run options, one flag per default that is not fixed, and
``--preset`` and ``--sweep`` where it has a preset or an axis; one process
builds the parser once.  Every point is validated before any point runs.
Presets name an experiment and run its defaults.

Outputs are deterministic: identical configurations produce byte-identical
files regardless of worker count, and every row carries the configuration
hash.  Wall-clock information goes to the stderr log only, never into the
payload.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import logging
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, partial

import numpy as np

from . import __version__
from .errors import ConfigParseError, GphaseError, UnwrapFailure, ValidationError
from .gp import (
    MIN_SAMPLES,
    SystemParams,
    checked_correction,
    geometric_phase,
    unitary_result,
)
from .ising import IsingBathParams, chain_trace
from .perturbative import gp_approx_ising
from .protocol import (
    Decomposition,
    ProtocolParams,
    correction_point,
    readout_grid,
    step_counts,
    worst_cycle_fidelity,
)
from .two_level import TwoLevelBathParams, oracle_trace

log = logging.getLogger("gphase")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    experiment: str
    parameters: dict
    output: str | None
    fmt: str
    sweep: tuple[str, float, float, int] | None
    workers: int
    keep_going: bool
    verbose: bool = False

    @property
    def identity(self) -> dict:
        """What names the output: the JSON ``config`` block and the hash's input."""
        return {"experiment": self.experiment, "parameters": self.parameters,
                "sweep": self.sweep, "format": self.fmt}

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.identity, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# parameter objects of one point; each constructor validates its ranges

def _linspace(lo: float, hi: float, n: int, what: str) -> np.ndarray:
    if int(n) < 1:
        raise ValidationError(f"{what} must be >= 1, got {n}")
    if not np.isfinite(hi - lo):  # a bound is not finite, or their difference overflows
        raise ValidationError(f"{what} must span a finite range, got {lo} to {hi}")
    return np.linspace(lo, hi, int(n))


def _span(p: dict, name: str) -> np.ndarray:
    """Grid of ``--{name}-min/max/points``."""
    return _linspace(p[f"{name}_min"], p[f"{name}_max"], p[f"{name}_points"], f"{name}_points")


def _samples(p: dict) -> int:
    n = int(p["samples"])
    if n < MIN_SAMPLES:
        raise ValidationError(f"samples must be >= {MIN_SAMPLES}, got {n}")
    return n


def _two_level(p: dict) -> tuple[SystemParams, TwoLevelBathParams]:
    """System cycle and two-level bath at field ``b_field`` (0 if absent)."""
    bath = TwoLevelBathParams(
        delta_gap=p["delta_gap"], b_field=p.get("b_field", 0.0), coupling=p["coupling"])
    return SystemParams(omega=p["omega"], theta=p["theta"]), bath


def _chain(p: dict) -> tuple[IsingBathParams, SystemParams]:
    bath = IsingBathParams(
        n_spins=int(p["n_spins"]), j_coupling=p["j_coupling"],
        lam=p["lambda"], coupling=p["coupling"],
    )
    if bath.coupling == 0:
        raise ValidationError("coupling must be nonzero: the columns are normalised by N delta^2")
    return bath, SystemParams(omega=p["omega_over_j"] * p["j_coupling"], theta=p["theta"])


def _protocol(p: dict) -> ProtocolParams:
    """Protocol at one field; a stepped one's step count is checked against its
    ``readout_grid`` here, while a bath past the grid's reach fails at its own point."""
    sysp, bath = _two_level(p)
    proto = ProtocolParams(
        sys=sysp, bath=bath, trotter_steps=int(p["trotter_steps"]),
        decomposition=Decomposition(p["decomposition"]),
    )
    if proto.decomposition is not Decomposition.EXACT:
        with contextlib.suppress(UnwrapFailure):
            readout_grid(proto)
    return proto


def _trotter_scan(p: dict) -> partial:
    """The scan of the coarse-Trotter protocol at ``n_steps`` steps over the field grid."""
    sysp, bath = _two_level(p)
    proto = ProtocolParams(sys=sysp, bath=bath, trotter_steps=int(p["n_steps"]),
                           decomposition=Decomposition.COARSE_TROTTER)
    return partial(_trotter_rows, proto, _span(p, "b"))


# ---------------------------------------------------------------------------
# point functions: the payload rows of one point after its label cells; each
# experiment's ``prepare`` binds their arguments (top level: picklable for
# process pools)

def _trace_rows(sysp: SystemParams, bath: TwoLevelBathParams, samples: int) -> list[list[float]]:
    trace = oracle_trace(bath, sysp, samples)
    return [
        [t, r.real, r.imag, m, ph]
        for t, r, m, ph in zip(trace.times, trace.r_values, trace.magnitude, trace.phase_unwrapped)
    ]


def _gp_curve_rows(sysp: SystemParams, bath: TwoLevelBathParams,
                   samples: int) -> list[list[float]]:
    g = (unitary_result(sysp) if bath.coupling == 0
         else geometric_phase(oracle_trace(bath, sysp, samples), sysp))
    return [[g.phi_total, g.phi_unitary, checked_correction(g), g.integral_part,
             g.arctan_part, g.eps_plus_final]]


def _correction_rows(proto: ProtocolParams) -> list[list[float]]:
    return [list(correction_point(proto))]


def _ising_approx_rows(bath: IsingBathParams, sysp: SystemParams) -> list[list[float]]:
    norm = bath.n_spins * bath.coupling**2
    gp = gp_approx_ising(bath, sysp)
    return [[gp.order2 / norm, gp.order3 / norm]]


def _ising_sweep_rows(bath: IsingBathParams, sysp: SystemParams,
                      samples: int) -> list[list[float]]:
    (orders,) = _ising_approx_rows(bath, sysp)
    g = geometric_phase(chain_trace(bath, sysp, samples), sysp)
    return [[checked_correction(g) / (bath.n_spins * bath.coupling**2), *orders]]


def _trotter_rows(proto: ProtocolParams, b_values: np.ndarray) -> list[list[float]]:
    return [[worst_cycle_fidelity(proto, b_values)]]


# ---------------------------------------------------------------------------
# the experiment table

@dataclass(frozen=True)
class Experiment:
    """Everything the command line knows about one experiment.

    A run builds the points with ``grid`` (crossed with the ``--sweep`` axis,
    if any), turns every point's parameters into the point's call with
    ``prepare``, which validates them, and only then makes each call.
    """

    defaults: dict                          # parameters, all in the config hash
    columns: tuple[str, ...]                # payload columns before config_hash
    prepare: Callable[[dict], partial]      # point parameters -> call of the rows after the label
    grid: Callable[[dict], list[dict]] = lambda p: [p]  # parameters of each point
    axes: tuple[str, ...] = ()              # parameters --sweep may vary
    label: Callable[[dict], list] = lambda p: []  # leading cells of every row of a point
    fixed: tuple[str, ...] = ()             # defaults no flag sets: they move no output


# Frequencies are angular (rad/s); every two-level scale is a ratio of omega,
# so the physics output is invariant under rescaling.
_OMEGA_REF = 100.0 * np.pi
_TWO_LEVEL = {"omega": _OMEGA_REF, "theta": np.pi / 4.0, "delta_gap": 0.02 * _OMEGA_REF,
              "coupling": 0.1 * _OMEGA_REF}
_FIELD = {"b_field": 0.05 * _OMEGA_REF, "znu": 1.0, "convention": "zz"}
_B_RANGE = {"b_min": -0.2 * _OMEGA_REF, "b_max": 0.2 * _OMEGA_REF, "b_points": 21}
_CHAIN = {"n_spins": 100, "j_coupling": 1.0, "coupling": 5e-5, "omega_over_j": 1.0,
          "theta": np.pi / 4.0, "lambda_min": 0.0, "lambda_max": 2.0, "lambda_points": 41}

# A fixed key cannot move its experiment's output, so no flag sets it; it stays
# in the config hash at its default, which keeps every earlier hash.
# - znu, of the paper's B = sign(lambda)|lambda|^{z nu} Delta: the two-level
#   bath is set by its field B;
# - theta in trace and trotter-check: under pure dephasing r(t) does not
#   depend on the system state, and the cycle fidelity starts from a fixed one;
# - j_coupling: the chain's Loschmidt echo depends on J t only, and its cycle
#   is omega_over_j times J;
# - convention, the zz coupling delta Z_S Z_E of the protocol's target
#   Hamiltonian: the bath couples through it alone;
# - correction's samples: no column reads it;
# - fidelity_threshold: trotter-check reports the fidelity, not a verdict.
EXPERIMENTS: dict[str, Experiment] = {
    "trace": Experiment(
        defaults={**_TWO_LEVEL, **_FIELD, "samples": 256},
        columns=("t", "re_r", "im_r", "abs_r", "phase"),
        prepare=lambda p: partial(_trace_rows, *_two_level(p), _samples(p)),
        fixed=("theta", "znu", "convention"),
    ),
    "gp-curve": Experiment(
        defaults={**_TWO_LEVEL, **_FIELD, "samples": 1024},
        columns=("phi_total", "phi_unitary", "correction", "integral_part",
                 "arctan_part", "eps_plus_final"),
        prepare=lambda p: partial(_gp_curve_rows, *_two_level(p), _samples(p)),
        axes=("omega", "theta", "delta_gap", "coupling", "b_field"),
        fixed=("znu", "convention"),
    ),
    "correction": Experiment(
        defaults={**_TWO_LEVEL, **_B_RANGE, "trotter_steps": 64, "decomposition": "exact",
                  "samples": 64, "znu": 1.0, "convention": "zz"},
        columns=("b_over_omega", "dphi_protocol", "dphi_theory"),
        prepare=lambda p: partial(_correction_rows, _protocol(p)),
        grid=lambda p: [{**p, "b_field": b} for b in _span(p, "b")],
        label=lambda p: [p["b_field"] / p["omega"]],
        fixed=("samples", "znu", "convention"),
    ),
    "ising-sweep": Experiment(
        defaults={**_CHAIN, "samples": 4096},
        columns=("lambda", "dphi_exact_norm", "dphi_order2_norm", "dphi_order3_norm"),
        prepare=lambda p: partial(_ising_sweep_rows, *_chain(p), _samples(p)),
        grid=lambda p: [{**p, "lambda": lam} for lam in _span(p, "lambda")],
        label=lambda p: [p["lambda"]],
        fixed=("j_coupling",),
    ),
    "ising-approx": Experiment(
        defaults=dict(_CHAIN),
        columns=("lambda", "dphi_order2_norm", "dphi_order3_norm"),
        prepare=lambda p: partial(_ising_approx_rows, *_chain(p)),
        grid=lambda p: [{**p, "lambda": lam} for lam in _span(p, "lambda")],
        label=lambda p: [p["lambda"]],
        fixed=("j_coupling",),
    ),
    "trotter-check": Experiment(
        defaults={**_TWO_LEVEL, **_B_RANGE, "fidelity_threshold": 0.997, "max_steps": 512},
        columns=("n_steps", "min_fidelity"),
        prepare=_trotter_scan,
        grid=lambda p: [{**p, "n_steps": n} for n in step_counts(p["max_steps"])],
        label=lambda p: [float(p["n_steps"])],
        fixed=("theta", "fidelity_threshold"),
    ),
}


def _settable(exp: Experiment) -> dict:
    """The defaults of ``exp`` that a flag can set."""
    return {k: v for k, v in exp.defaults.items() if k not in exp.fixed}

_CHOICES = {"decomposition": [d.value for d in Decomposition]}

# Bundled parameter sets: each is its experiment's defaults.
PRESETS: dict[str, str] = {
    "paper-fig1c": "correction",
    "paper-figA": "ising-sweep",
    "trotter-claim": "trotter-check",
}


def _capture(task):
    """``task()``, or the exception it raised (top level: picklable)."""
    try:
        return task()
    except Exception as exc:
        return exc


def _results(tasks: list[partial], workers: int):
    """Each task's result, or the exception it raised, in task order; closing
    the iterator early leaves every task not yet started unrun.  The pool is
    no larger than the task count or the CPU count, because a forked pool
    starts all of its workers at the first submit."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers < 2:
        yield from map(_capture, tasks)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield from (f.result() for f in [pool.submit(_capture, t) for t in tasks])
        finally:
            pool.shutdown(cancel_futures=True)


def _rows(config: RunConfig) -> tuple[list[str], list[list]]:
    """Payload columns and rows; every point is validated before any runs."""
    exp = EXPERIMENTS[config.experiment]
    for key, val in config.parameters.items():
        if isinstance(val, float) and not np.isfinite(val):
            raise ValidationError(f"{key} must be finite, got {val}")
    points = exp.grid(config.parameters)
    axis: list[str] = []
    if config.sweep is not None:
        name, lo, hi, n = config.sweep
        axis = [name]
        points = [{**p, name: v} for v in _linspace(lo, hi, n, "sweep points") for p in points]
    tasks = [exp.prepare(p) for p in points]
    columns = axis + list(exp.columns)

    digest = config.config_hash
    rows: list[list] = []
    with contextlib.closing(_results(tasks, config.workers)) as results:
        for p, result in zip(points, results):
            head = [p[a] for a in axis] + exp.label(p)
            if isinstance(result, Exception):
                where = "".join(f" {c}={float(x)!r}" for c, x in zip(columns, head))
                msg = f"point{where}: {type(result).__name__}: {result}"
                log.warning("point failed: %s", msg)
                if not config.keep_going:
                    raise GphaseError(msg)
                result = [[None] * (len(columns) - len(head))]  # CSV nan, JSON null
            rows += [head + row + [digest] for row in result]
    return columns + ["config_hash"], rows


def _fmt_cell(x) -> str:
    if isinstance(x, str):
        return x
    return "nan" if x is None else format(float(x), ".17g")


def _render_csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _render_json(config: RunConfig, columns: list[str], rows: list[list]) -> str:
    doc = {
        "config": config.identity,
        "provenance": {"version": __version__, "config_hash": config.config_hash},
        "columns": columns,
        "rows": rows,
    }
    return json.dumps(doc, sort_keys=True, indent=1, default=float, allow_nan=False) + "\n"


def run(config: RunConfig) -> int:
    """Execute a configuration and write its output. Returns exit code."""
    log.setLevel(logging.INFO if config.verbose else logging.NOTSET)
    log.info("run start experiment=%s hash=%s at %s",
             config.experiment, config.config_hash,
             datetime.now(timezone.utc).isoformat())
    folder = os.path.dirname(config.output or "") or "."
    if not os.path.isdir(folder):
        raise ValidationError(f"output directory {folder!r} does not exist")
    columns, rows = _rows(config)

    text = (_render_csv(columns, rows) if config.fmt == "csv"
            else _render_json(config, columns, rows))
    if config.output is None:
        sys.stdout.write(text)
    else:
        with open(config.output, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        log.info("wrote %s (%d rows)", config.output, len(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a token of '-' and a digit, '.digit', 'inf' or 'nan' as a value, not
    as a flag as argparse does with -1e-3 and -inf; no gphase flag has one dash."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """One subparser per experiment, holding the run options and only the
    flags that experiment accepts; no parser takes an abbreviated flag.  Built
    once per process: the parsers are only read."""
    ap = _Parser(
        prog="gphase", allow_abbrev=False,
        description="Geometric phase of a dephased qubit near a critical bath.",
    )
    sub = ap.add_subparsers(dest="experiment", required=True)
    sub.add_parser("presets", allow_abbrev=False, help="list bundled parameter sets")
    for name, exp in EXPERIMENTS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--output", help="output file (default: stdout)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
        sp.add_argument("--keep-going", action="store_true",
                        help="flag failed sweep points instead of aborting")
        sp.add_argument("--verbose", action="store_true", help="log progress to stderr")
        presets = [preset for preset, target in PRESETS.items() if target == name]
        if presets:
            sp.add_argument("--preset", choices=presets, help="start from a bundled parameter set")
        if exp.axes:
            sp.add_argument("--sweep", nargs=4, metavar=("AXIS", "MIN", "MAX", "POINTS"),
                            help=f"sweep one parameter axis: {', '.join(exp.axes)}")
        phys = sp.add_argument_group("physical parameters",
                                     "units: README, 'Units and conventions'")
        for key, default in _settable(exp).items():
            phys.add_argument(f"--{key.replace('_', '-')}", type=type(default),
                              choices=_CHOICES.get(key), default=argparse.SUPPRESS)
    return ap


def parse_config(argv) -> RunConfig | None:
    """Resolve argv into a RunConfig (None for the 'presets' listing)."""
    args = vars(_build_parser().parse_args(argv))
    experiment = args["experiment"]
    if experiment == "presets":
        for name, target in PRESETS.items():
            print(f"{name}: {target}  "
                  + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in _settable(EXPERIMENTS[target]).items()))
        return None

    exp = EXPERIMENTS[experiment]
    params = {k: args.get(k, v) for k, v in exp.defaults.items()}
    if "trotter_steps" in args and params["decomposition"] == Decomposition.EXACT.value:
        raise ConfigParseError("--trotter-steps is read only under --decomposition coarse-trotter")

    sweep = None
    if args.get("sweep"):
        axis, lo, hi, n = args["sweep"]
        axis = axis.replace("-", "_")
        if axis not in exp.axes:
            raise ConfigParseError(
                f"{experiment} cannot sweep {axis!r}; --sweep axes: {', '.join(exp.axes)}")
        try:
            sweep = (axis, float(lo), float(hi), int(n))
        except ValueError as exc:
            raise ConfigParseError(f"bad sweep specification: {exc}") from exc

    if args["workers"] < 1:
        raise ConfigParseError("--workers must be >= 1")
    return RunConfig(experiment=experiment, parameters=params, output=args["output"],
                     fmt=args["fmt"], sweep=sweep, workers=args["workers"],
                     keep_going=args["keep_going"], verbose=args["verbose"])


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    try:
        config = parse_config(argv)
    except ConfigParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config is None:
        return 0
    try:
        return run(config)
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    except (GphaseError, OSError) as exc:  # OSError: the output file cannot be written
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
