"""Benchmark of the gphase CLI, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-exact --seed 1 --seconds 25 --trace 0

Each run starts a fresh interpreter that calls ``gphase.cli.main(argv)`` for
the workload's CLI calls, repeated for ``--seconds``, and checks the payloads
it wrote.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics, from repetitions traced by
``tracing.py`` that alternate with untraced ones in the same child.  The
last line of stdout is one JSON object; a run that cannot produce one exits
non-zero.  Times are scaled for host contention by ``speed.SpeedProbe``
(see ``speed.py``); the raw times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
IMPORT_CODE = ("import time, speed; speed.pin_to_one_cpu(); p = speed.SpeedProbe().start(); "
               "t0 = time.perf_counter(); import gphase.cli; t1 = time.perf_counter(); p.stop(); "
               "print(t1 - t0, p.scaled(t0, t1))")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def run_child(calls, workdir: Path, seconds: float, trace: bool, t_start: float) -> dict:
    """Run the workload in a fresh interpreter; return its result and payloads."""
    outputs = [workdir / f"{c.name}.csv" for c in calls]
    spec = {"calls": [list(c.argv) + ["--output", str(o)] for c, o in zip(calls, outputs)],
            "outputs": [str(o) for o in outputs], "seconds": seconds, "trace": trace}
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="ascii")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=_remaining(t_start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the workload did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="ascii"))
    if Path(result["gphase_file"]).resolve().parent.parent != SRC:
        raise BenchError(f"the workload imported gphase from {result['gphase_file']}, not {SRC}")
    result["payloads"] = {c.name: o.read_bytes() if o.exists() else b"" for c, o in zip(calls, outputs)}
    return result


def measure_setup(t_start: float) -> list[tuple[float, float]]:
    """Raw and scaled import time of gphase.cli in SETUP_SAMPLES fresh
    interpreters, each pinned to one CPU next to a speed probe."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=_remaining(t_start))
        if proc.returncode != 0:
            raise BenchError(f"import gphase.cli failed:\n{proc.stderr[-2000:]}")
        raw, scaled = proc.stdout.split()
        samples.append((float(raw), float(scaled)))
    return samples


def check_outputs(workload: str, seed: int, calls, result: dict, gphase) -> tuple[list, int, int]:
    """Checks on one child's payloads; returns (checks, attempted, failed)."""
    reps = len(result["codes"])  # traced repetitions included
    checks, attempted, failed, parsed = [], 0, 0, {}
    for i, call in enumerate(calls):
        attempted += call.points * reps
        codes = [rep[i] for rep in result["codes"]]
        if any(codes):
            failed += call.points * sum(1 for c in codes if c)
            checks.append((f"{call.name} exit codes", False, f"{codes}"))
            continue
        digests = {rep[i] for rep in result["digests"]}
        checks.append((f"{call.name} payload repeats", len(digests) == 1,
                       f"{len(digests)} distinct payload(s) over {reps} repetitions"))
        try:
            payload = workloads.parse_payload(result["payloads"][call.name])
        except ValueError as exc:
            checks.append((f"{call.name} payload", False, str(exc)))
            continue
        parsed[call.name] = payload
        bad = payload.failed_rows
        failed += bad * reps
        checks.append((f"{call.name} rows", len(payload.rows) == call.points and bad == 0,
                       f"{len(payload.rows)} rows, {bad} failed, {call.points} expected"))
        if seed == 0:
            ok, detail = workloads.check_reference(workload, call, result["payloads"][call.name])
            checks.append((f"{call.name} vs reference", ok, detail))
    if len(parsed) == len(calls) and all(ok for _, ok, _ in checks):
        checks += workloads.check_routes(workload, seed, parsed, gphase)
    return checks, attempted, failed


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-repetition calls, self time and counters from a traced child's spans."""
    names, spans, reps = dump["names"], dump["spans"], dump["reps"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s = defaultdict(int), defaultdict(float)
    for i, (nid, start, end, _) in enumerate(spans):
        calls[names[nid]] += 1
        self_s[names[nid]] += end - start - child_time[i]
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name] / reps
        out[f"{name}.self_s"] = self_s[name] / reps
    for key, value in dump["counters"].items():
        out[key] = value / reps
    sampled = out["gp.build_trace.sampler_points"]
    out["gp.build_trace.useful_ratio"] = out["gp.build_trace.final_points"] / sampled if sampled else 0.0
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(versions: dict, loadavg: tuple) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), **versions,
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
            "loadavg_start": loadavg, "commit": _git_commit()}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def run(args) -> tuple[bool, int, int, dict[str, float]]:
    t_start = time.perf_counter()
    loadavg = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    calls = workloads.calls(args.workload, args.seed)
    frac = workloads.grid_fraction(args.seed)
    print(f"workload {args.workload}, seed {args.seed} (grids shifted by {frac:.4f} of a step), "
          f"trace {args.trace}")
    for call in calls:
        print(f"  gphase {' '.join(call.argv)}")

    sys.path.insert(0, str(SRC))
    import gphase

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        setup = [] if args.trace else measure_setup(t_start)
        result = run_child(calls, workdir, args.seconds, bool(args.trace), t_start)
        checks, attempted, failed = check_outputs(args.workload, args.seed, calls, result, gphase)
        dump = json.loads(Path(result["spans"]).read_text(encoding="ascii")) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # left in place while another run uses it

    # the first repetition of each kind warms up: checked, but not timed
    walls, traced_walls = result["walls"][1:], result["traced_walls"][1:]
    scaled, scaled_traced = result["scaled_walls"][1:], result["scaled_traced_walls"][1:]
    print(f"  speed probe: {result['probe_samples']} samples, fastest kernel "
          f"{result['probe_fastest_s'] * 1e6:.2f} us")
    print(f"  timed repetitions: {len(walls)}, wall times (s) raw / scaled: "
          + ", ".join(f"{w:.3f}/{v:.3f}" for w, v in zip(walls, scaled)))
    print(f"  wall_s raw median = {statistics.median(walls):.6g} s")
    if args.trace:
        print(f"  timed traced repetitions: {len(traced_walls)}, wall times (s) raw / scaled: "
              + ", ".join(f"{w:.3f}/{v:.3f}" for w, v in zip(traced_walls, scaled_traced)))
        metrics = layer_metrics(dump)
        metrics["trace_overhead_frac"] = (statistics.median(scaled_traced)
                                          / statistics.median(scaled) - 1.0)
        # self times are means over all traced repetitions, so is the base
        base = statistics.mean(result["traced_walls"])
        for key in sorted(k for k in metrics if k.endswith(".self_s")):
            print(f"  share {key[:-7]:<40} {metrics[key] / base:7.2%}")
    else:
        setup_raw, setup_scaled = zip(*setup)
        print("  setup samples (s) raw / scaled: "
              + ", ".join(f"{w:.4f}/{v:.4f}" for w, v in zip(setup_raw, setup_scaled)))
        print(f"  setup_s raw median = {statistics.median(setup_raw):.6g} s")
        metrics = {"wall_s": statistics.median(scaled), "setup_s": statistics.median(setup_scaled),
                   "peak_rss_mb": result["maxrss_kb"] / 1024.0}
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} points)")
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print("stamp " + json.dumps(stamp(result["versions"], loadavg)))
    correct = all(ok for _, ok, _ in checks) and failed == 0
    return correct, attempted, failed, {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                        for m in wanted}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gphase" / "cli.py").is_file():
        print(f"error: no gphase sources under {SRC}", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
