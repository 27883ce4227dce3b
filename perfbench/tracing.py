"""Layer spans for the traced run, and the per-layer metrics derived from them.

The child process installs a :class:`Tracer` after importing the package:
it wraps every public function of each layer module and rebinds the
wrapper in every ``heisenberg_star`` namespace that holds the original
(``cli.level_table``, ``dynamics.build_star_hamiltonian``, ...), so calls
across modules and within a module both pass through it. No file of the
package changes. Spans stay in memory as ``[name, start, end, parent,
info]`` lists and are written out with the unit's report at the end.

:func:`layer_metrics` turns one unit's spans into the per-layer metrics.
A self time is a span's duration minus the durations of its child spans;
the run is single-threaded (``--threads 1``), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("core", "operators", "spectrum", "states", "dynamics", "csvio")
# csvio.fmt runs once per printed number; a span per call would cost more
# than the formatting it measures, so its time stays in the writer's span.
UNTRACED = frozenset({"csvio.fmt"})

ENUMERATE = ("core.enumerate_sector", "core.enumerate_bath_sector")
BUILDERS = ("bath_ring", "system_bath", "L_squared", "staggered", "zeeman")
SOLVERS = ("spectrum.lowest_eigenpair", "spectrum.lanczos_lowest")

# name -> unit of every per-layer metric, in report order
METRIC_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "cli.self_s": "s",
    "core.self_s": "s",
    "core.enumerate_s": "s",
    "core.enumerate_calls": "count",
    "core.basis_states": "count",
    "core.sector_reuse": "ratio",
    "operators.self_s": "s",
    "operators.build_s": "s",
    **{f"operators.build_{b}_s": "s" for b in BUILDERS},
    "operators.apply_bath_lowering_s": "s",
    "operators.nnz": "count",
    "operators.ns_per_nnz": "ns",
    "spectrum.self_s": "s",
    "spectrum.solve_s": "s",
    "spectrum.solve_calls": "count",
    "spectrum.solve_dim_max": "count",
    "spectrum.dense_frac": "ratio",
    "spectrum.bath_state_s": "s",
    "states.self_s": "s",
    "states.multiplet_s": "s",
    "states.subground_s": "s",
    "dynamics.propagate_s": "s",
    "dynamics.prepare_s": "s",
    "dynamics.blocks": "count",
    "dynamics.block_dim_max": "count",
    "dynamics.state_samples": "count",
    "dynamics.ns_per_state_sample": "ns",
    "dynamics.norm_drift": "abs",
    "dynamics.energy_drift": "abs",
    "csvio.write_s": "s",
    "csvio.bytes": "B",
}
# metrics whose run value is the worst unit, not the median one
WORST_OF_RUN = ("dynamics.norm_drift", "dynamics.energy_drift")


def _observe(name, args, kwargs, result):
    """Counts recorded at the layer boundary, from arguments and results."""
    if name in ENUMERATE:
        return {"dim": result.dim, "key": [result.N, result.two_S, result.two_m]}
    if name.startswith("operators.build_"):
        return {"nnz": int(result.matrix.nnz)}
    if name in SOLVERS:
        return {"dim": int(args[0].dim)}
    if name == "dynamics.run_observables":
        state = args[1]
        t_grid = args[2]
        values, diagnostics = result
        return {"dims": [s.dim for s in state.sectors], "n_t": len(t_grid),
                "norm_drift": diagnostics["norm_drift"],
                "energy_drift": diagnostics["energy_drift"]}
    if name.startswith("csvio.write_"):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


class Tracer:
    """Wraps the layer functions of a package and records their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _observe(name, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "heisenberg_star") -> int:
        """Wrap the public functions of every layer; returns how many."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED
                        and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = (obj, self.wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def merge(processes) -> tuple[list[list], float]:
    """One span list and wall time for a unit from its ``(spans, wall)`` processes.

    Parent indices are shifted into the merged list, and sector keys get
    the process number, since a fresh process can reuse nothing.
    """
    merged, wall = [], 0.0
    for k, (spans, proc_wall) in enumerate(processes):
        base = len(merged)
        for name, start, end, parent, info in spans:
            if info and "key" in info:
                info = {**info, "key": [k, *info["key"]]}
            merged.append([name, start, end, parent + base if parent >= 0 else -1, info])
        wall += proc_wall
    return merged, wall


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced unit whose CLI wall time is ``wall``."""
    own = self_times(spans)
    names = [s[0] for s in spans]

    def self_sum(pred):
        return sum(t for n, t in zip(names, own) if pred(n))

    def info(span, key, default=0):
        # a span whose call raised (and was caught by its caller) has no info
        return (span[4] or {}).get(key, default)

    def outermost(group):
        return [s for s in spans if s[0] in group
                and (s[3] < 0 or spans[s[3]][0] not in group)]

    m = {"trace.wall_s": wall,
         "cli.self_s": wall - sum(s[2] - s[1] for s in spans if s[3] < 0)}
    for layer in ("core", "operators", "spectrum", "states"):
        m[f"{layer}.self_s"] = self_sum(lambda n, p=layer + ".": n.startswith(p))

    enum = outermost(ENUMERATE)
    m["core.enumerate_s"] = self_sum(lambda n: n in ENUMERATE)
    m["core.enumerate_calls"] = len(enum)
    m["core.basis_states"] = sum(info(s, "dim") for s in enum)
    m["core.sector_reuse"] = (len({tuple(info(s, "key", ())) for s in enum}) / len(enum)
                              if enum else 0.0)

    m["operators.build_s"] = self_sum(lambda n: n.startswith("operators.build_"))
    for b in BUILDERS:
        m[f"operators.build_{b}_s"] = self_sum(lambda n, f=f"operators.build_{b}": n == f)
    m["operators.apply_bath_lowering_s"] = self_sum(
        lambda n: n == "operators.apply_bath_lowering")
    m["operators.nnz"] = sum(info(s, "nnz") for s in spans
                             if s[0].startswith("operators.build_"))
    m["operators.ns_per_nnz"] = (1e9 * m["operators.build_s"] / m["operators.nnz"]
                                 if m["operators.nnz"] else 0.0)

    solves = outermost(SOLVERS)
    lanczos_parents = {s[3] for s in spans if s[0] == "spectrum.lanczos_lowest"}
    dense = [i for i, s in enumerate(spans)
             if s[0] == "spectrum.lowest_eigenpair" and i not in lanczos_parents]
    m["spectrum.solve_s"] = self_sum(lambda n: n in SOLVERS)
    m["spectrum.solve_calls"] = len(solves)
    m["spectrum.solve_dim_max"] = max((info(s, "dim") for s in solves), default=0)
    m["spectrum.dense_frac"] = len(dense) / len(solves) if solves else 0.0
    m["spectrum.bath_state_s"] = sum(
        s[2] - s[1] for s in outermost(("spectrum.bath_subground_state",)))

    m["states.multiplet_s"] = self_sum(lambda n: n == "states.bath_multiplet")
    m["states.subground_s"] = self_sum(lambda n: n == "states.subground_state")

    runs = [s[4] for s in spans if s[0] == "dynamics.run_observables" and s[4]]
    m["dynamics.propagate_s"] = self_sum(lambda n: n == "dynamics.run_observables")
    m["dynamics.prepare_s"] = self_sum(
        lambda n: n.startswith("dynamics.") and n != "dynamics.run_observables")
    m["dynamics.blocks"] = sum(len(r["dims"]) for r in runs)
    m["dynamics.block_dim_max"] = max((d for r in runs for d in r["dims"]), default=0)
    m["dynamics.state_samples"] = sum(sum(r["dims"]) * r["n_t"] for r in runs)
    m["dynamics.ns_per_state_sample"] = (
        1e9 * m["dynamics.propagate_s"] / m["dynamics.state_samples"]
        if m["dynamics.state_samples"] else 0.0)
    m["dynamics.norm_drift"] = max((r["norm_drift"] for r in runs), default=0.0)
    m["dynamics.energy_drift"] = max((r["energy_drift"] for r in runs), default=0.0)

    m["csvio.write_s"] = self_sum(lambda n: n.startswith("csvio."))
    m["csvio.bytes"] = sum(info(s, "bytes") for s in spans
                           if s[0].startswith("csvio.write_"))
    return m
