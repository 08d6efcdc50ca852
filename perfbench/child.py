"""Run one workload through ``gphase.cli.main`` in this fresh process.

Usage: child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``calls`` (argv lists, one repetition), ``outputs`` (the
payload files they write), ``seconds`` and ``trace``.  Repetitions run back
to back until ``seconds`` have passed, and at least MIN_REPS of them.  With
``trace`` each untraced repetition is followed by a traced one, so both see
the same machine state.  The process runs on one CPU next to a
``speed.SpeedProbe``.  RESULT_JSON receives the import time, each
repetition's wall time and its wall time scaled by the probe, exit codes and payload digests, and the peak RSS; a traced run also
writes its spans next to it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import speed

MIN_REPS = 3


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="ascii") as fh:
        spec = json.load(fh)
    # before numpy starts its threads, so that they inherit the CPU
    speed.pin_to_one_cpu()
    probe = speed.SpeedProbe().start()
    start = time.perf_counter()
    import gphase.cli as cli
    import_s = time.perf_counter() - start

    modes = [False]
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        traced_cli = tracer.wrap("cli", cli.main)
        modes.append(True)

    spans = {False: [], True: []}
    codes, digests = [], []
    begin = time.perf_counter()
    while len(spans[False]) < MIN_REPS or time.perf_counter() - begin < spec["seconds"]:
        for traced in modes:
            if spec["trace"]:
                tracing.switch(patches, traced)
            run_cli = traced_cli if traced else cli.main
            rep_codes, rep_spans = [], []
            for argv in spec["calls"]:
                t0 = time.perf_counter()
                rep_codes.append(run_cli(argv))
                rep_spans.append((t0, time.perf_counter()))
            spans[traced].append(rep_spans)
            codes.append(rep_codes)
            digests.append([_sha256(path) for path in spec["outputs"]])

    probe.stop()
    walls = {k: [sum(t1 - t0 for t0, t1 in rep) for rep in v] for k, v in spans.items()}
    scaled = {k: [sum(probe.scaled(t0, t1) for t0, t1 in rep) for rep in v] for k, v in spans.items()}

    result = {
        "import_s": import_s,
        "walls": walls[False],
        "traced_walls": walls[True],
        "scaled_walls": scaled[False],
        "scaled_traced_walls": scaled[True],
        "probe_fastest_s": min(probe.times),
        "probe_samples": len(probe.times),
        "codes": codes,
        "digests": digests,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "gphase_file": cli.__file__,
        "versions": _versions(),
    }
    if spec["trace"]:
        result["spans"] = result_path + ".spans"
        tracer.dump(result["spans"], len(spans[True]))
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    main(*sys.argv[1:3])
