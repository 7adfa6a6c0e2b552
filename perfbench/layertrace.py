"""Outside-in spans around the public functions of each shelyap module.

install() replaces every shelyap.* module attribute bound to a target function
with a wrapper, so names bound by `from .x import f` are wrapped too. A
recursive call of a function already on the span stack runs unwrapped and is
folded into the outer span. Spans stay in memory as (name, start_ns, end_ns,
parent, op, work) and are summarised or written out after the run. The tracer
assumes one thread: the workload process clears LYAP_THREADS.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from pathlib import Path

TARGETS = {
    "cli": ("main", "dumps_json"),
    "instance": ("validate_instance", "flatten"),
    "solvers": ("solve_gamma1", "solve_gamma2", "isotonic_nonincreasing",
                "check_minimizer_structure", "bruteforce_chain_qp"),
    "clusters": ("simulate_inertia", "first_optimal_merge", "separation_margins"),
    "closedform": ("gamma_report", "gamma3", "verify_recursion_identity"),
    "quadrature": ("contour_moment_complex", "default_contour_config"),
    "sampling": ("random_instance", "sample_matching"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counts read from a call's arguments and return value.
def _inertia_work(args, kwargs, res):
    inst = _arg(args, kwargs, 0, "inst")
    return {"events": len(res.events), "n": inst.n,
            "path_values": inst.n * len(res.inertia_paths[0].breakpoints)}


WORK = {
    "clusters.simulate_inertia": _inertia_work,
    "solvers.isotonic_nonincreasing":
        lambda a, k, r: {"elements": len(_arg(a, k, 0, "z"))},
    "solvers.bruteforce_chain_qp":
        lambda a, k, r: {"subsets": 1 << max(len(_arg(a, k, 0, "weights")) - 1, 0)},
    "closedform.gamma3": lambda a, k, r: {"pair_terms": sum(
        len(b) * (len(b) - 1) // 2 for b in _arg(a, k, 1, "res").partition)},
    "quadrature.contour_moment_complex": lambda a, k, r: {
        "grid_points": _arg(a, k, 2, "cfg").points ** _arg(a, k, 1, "inst").nu},
    "sampling.sample_matching": lambda a, k, r: {"accepted": len(r)},
}

COUNTS = (
    ("clusters.simulate_inertia.events", "count", "lower"),
    ("clusters.simulate_inertia.path_values", "count", "lower"),
    ("solvers.isotonic_nonincreasing.elements", "count", "lower"),
    ("solvers.bruteforce_chain_qp.subsets", "count", "lower"),
    ("closedform.gamma3.pair_terms", "count", "lower"),
    ("quadrature.contour_moment_complex.grid_points", "count", "lower"),
)

# Every per-layer metric a traced run emits, as (name, unit, better).
PER_LAYER = (
    *((f"{f}.{kind}", unit, "lower") for f in FUNCTIONS
      for kind, unit in (("calls", "count"), ("self_ms", "ms"))),
    *((f"{mod}.self_ms", "ms", "lower") for mod in TARGETS),
    ("uninstrumented.self_ms", "ms", "lower"),
    ("traced_wall_ms", "ms", "lower"),
    *COUNTS,
    ("clusters.simulate_inertia.size_exponent", "log/log", "lower"),
    ("sampling.sample_matching.accept_ratio", "ratio", "higher"),
    ("cli.main.output_bytes", "bytes", "lower"),
    ("trace_overhead", "ratio", "higher"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.op = -1
        self._restore: list = []

    def _wrap(self, name, orig):
        spans, stack, active = self.spans, self.stack, self.active
        work = WORK.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if name in active:
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active.add(name)
            result = None
            start = clock()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                counts = work(args, kwargs, result) if work and result is not None else None
                spans[idx] = (name, start, end, parent, self.op, counts)

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        """Wrap every target; raise if one no longer exists."""
        originals = {}
        for mod, fns in TARGETS.items():
            module = importlib.import_module(f"shelyap.{mod}")
            for fn in fns:
                orig = getattr(module, fn, None)
                if not callable(orig):
                    raise LookupError(f"trace target shelyap.{mod}.{fn} no longer exists")
                originals[id(orig)] = (f"{mod}.{fn}", orig)
        wrappers = {key: self._wrap(name, orig) for key, (name, orig) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "shelyap" and not modname.startswith("shelyap."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)][1] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "work": counts}) + "\n")


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0 when x does not vary."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({p[0] for p in pts}) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def summarize(spans: list, ops: int, wall_ns: int, output_bytes: int,
              overhead: float) -> dict[str, float]:
    """Per-op layer metrics from the spans of `ops` traced ops.

    wall_ns is the traced ops' time as the harness measured it around
    cli.main; what no span covers is reported as uninstrumented.
    """
    self_ns = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    if min(self_ns, default=0) < 0:
        raise RuntimeError("child spans outlast their parent; spans do not nest")
    calls = dict.fromkeys(FUNCTIONS, 0)
    fn_ns = dict.fromkeys(FUNCTIONS, 0)
    work: dict[str, int] = {}
    inertia_points, drawn = [], 0
    for (name, _, _, parent, _, counts), own in zip(spans, self_ns):
        calls[name] += 1
        fn_ns[name] += own
        for key, value in (counts or {}).items():
            work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value
        if name == "clusters.simulate_inertia" and counts:
            inertia_points.append((counts["n"], own))
        if name == "sampling.random_instance" and parent >= 0 \
                and spans[parent][0] == "sampling.sample_matching":
            drawn += 1
    root_ns = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    if root_ns > wall_ns:
        raise RuntimeError("spans cover more than the traced wall time")
    ms = 1e-6 / ops
    out: dict[str, float] = {}
    for f in FUNCTIONS:
        out[f"{f}.calls"] = calls[f] / ops
        out[f"{f}.self_ms"] = fn_ns[f] * ms
    for mod in TARGETS:
        out[f"{mod}.self_ms"] = sum(fn_ns[f] for f in FUNCTIONS
                                    if f.startswith(mod + ".")) * ms
    out["uninstrumented.self_ms"] = (wall_ns - root_ns) * ms
    out["traced_wall_ms"] = wall_ns * ms
    for name, _, _ in COUNTS:
        out[name] = work.get(name, 0) / ops
    out["clusters.simulate_inertia.size_exponent"] = _slope(inertia_points)
    accepted = work.get("sampling.sample_matching.accepted", 0)
    out["sampling.sample_matching.accept_ratio"] = accepted / drawn if drawn else 0.0
    out["cli.main.output_bytes"] = output_bytes / ops
    out["trace_overhead"] = overhead
    return out
