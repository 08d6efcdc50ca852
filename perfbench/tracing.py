"""Layer spans and counters for a traced run, installed from outside gphase.

Each traced function is replaced by a wrapper under every name a gphase
module holds it by, so a caller that imported the name directly (``cli``
imports ``build_trace``, ``protocol`` imports ``partial_trace_env``,
``perturbative`` imports scipy's ``quad``) calls the wrapper.  Spans are kept
in memory as (name, start, end, parent) and written out by ``dump``.
``switch`` turns the wrappers on and off, so traced and untraced repetitions
can alternate in one process.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counters, bound_args, result)``
        adds counters after each call."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        sig = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(counters, bound.arguments, result)
            return result

        return traced

    def dump(self, path: str, reps: int) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, "reps": reps}, fh)


# ---------------------------------------------------------------------------
# counters computed from a call's arguments and result

def _count_product(c, a, result):
    n = a["p"].n_spins // 2 * _size(a["t"])
    c["ising.decoherence_product.mode_samples"] += n
    # the per-mode factors z_k(t) are complex128: 16 bytes per mode-sample
    c["ising.decoherence_product.bytes_computed"] += 16 * n


def _count_trace(c, a, trace):
    samples = a["samples"]
    c["gp.build_trace.final_points"] += len(trace.times)
    c["gp.build_trace.doublings"] += round(math.log2(trace.samples / (samples + samples % 2)))


def _count_oracle(c, a, result):
    c["two_level.decoherence_factor_oracle.points"] += _size(a["t"])


def _count_steps(c, a, result):
    p = a["p"]
    if p.decomposition.value != "exact":
        c["protocol.step_matvecs"] += p.trotter_steps


def _size(t) -> int:
    return int(getattr(t, "size", 1))


def _count_sampler(build_trace, counters):
    """``build_trace`` with its sampler wrapped to count the points it is asked for."""
    sig = inspect.signature(build_trace)

    @functools.wraps(build_trace)
    def counted(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        sampler = bound.arguments["sampler"]

        def counting_sampler(t):
            counters["gp.build_trace.sampler_points"] += _size(t)
            return sampler(t)

        bound.arguments["sampler"] = counting_sampler
        return build_trace(*bound.args, **bound.kwargs)

    return counted


COUNTERS = (
    "ising.decoherence_product.mode_samples", "ising.decoherence_product.bytes_computed",
    "gp.build_trace.sampler_points", "gp.build_trace.final_points", "gp.build_trace.doublings",
    "two_level.decoherence_factor_oracle.points", "protocol.step_matvecs",
)

# (layer name, module, attribute, counter)
FUNCTIONS = (
    ("ising.decoherence_product", "gphase.ising", "decoherence_product", _count_product),
    ("gp.build_trace", "gphase.gp", "build_trace", _count_trace),
    ("gp.geometric_phase", "gphase.gp", "geometric_phase", None),
    ("gp.trace_from_samples", "gphase.gp", "trace_from_samples", None),
    ("perturbative.gp_approx_ising", "gphase.perturbative", "gp_approx_ising", None),
    ("perturbative.quad", "gphase.perturbative", "quad", None),
    ("protocol.run_protocol", "gphase.protocol", "run_protocol", _count_steps),
    ("protocol.cycle_fidelity", "gphase.protocol", "cycle_fidelity", _count_steps),
    ("protocol.trotter_step", "gphase.protocol", "trotter_step", None),
    ("two_level.decoherence_factor_oracle", "gphase.two_level", "decoherence_factor_oracle",
     _count_oracle),
    ("qmat.expm_hermitian", "gphase.qmat", "expm_hermitian", None),
    ("qmat.partial_trace_env", "gphase.qmat", "partial_trace_env", None),
)
# IsingClosedForms methods, patched on the class, and their layer names; F2
# (the time integral of R2) is renamed so no two names differ only in case.
METHODS = {"f2": "perturbative.f2", "F2": "perturbative.F2_int", "F3": "perturbative.F3",
           "g1": "perturbative.g1"}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function; returns the patches for ``switch``."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gphase" or name.startswith("gphase."))]
    patches = []
    for layer, module, attr, count in FUNCTIONS:
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            print(f"trace: {module}.{attr} not found; {layer} reads 0", file=sys.stderr)
            tracer.names.append(layer)
            continue
        inner = _count_sampler(orig, tracer.counters) if layer == "gp.build_trace" else orig
        traced = tracer.wrap(layer, inner, count)
        patches += [(mod, key, orig, traced) for mod in modules
                    for key, value in vars(mod).items() if value is orig]
    cls = getattr(sys.modules.get("gphase.perturbative"), "IsingClosedForms", None)
    for attr, layer in METHODS.items():
        orig = vars(cls).get(attr) if cls is not None else None
        if orig is None:
            print(f"trace: IsingClosedForms.{attr} not found; {layer} reads 0", file=sys.stderr)
            tracer.names.append(layer)
            continue
        patches.append((cls, attr, orig, tracer.wrap(layer, orig)))
    return patches


def switch(patches: list[tuple], on: bool) -> None:
    """Put the traced (``on``) or the original functions in place."""
    for owner, attr, orig, traced in patches:
        setattr(owner, attr, traced if on else orig)
