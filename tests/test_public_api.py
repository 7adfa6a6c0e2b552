"""The package's public names and result fields, pinned.

Adding or removing a public name, or a field of a public result type, is a
deliberate API change: update these lists in the same change and report the
new count.
"""

import ast
import dataclasses
import importlib.util
import json
import time
import types
from pathlib import Path

import pytest

import shelyap
import shelyap.cli

PUBLIC = (
    "ClusterResult", "ContourConfig", "DimensionTooLarge", "FirstMerge",
    "GammaReport", "InvalidContour", "InvalidFitInput",
    "LengthMismatch", "MergeEvent", "MomentInstance", "NoMerge",
    "NonFiniteResult", "NonPositiveMoment", "NonPositiveMultiplicity",
    "NonPositiveTime", "NuTooLarge", "PiecewiseLinearPath", "RecursionCheck",
    "ShelyapError", "StructureReport", "UnsortedLocations",
    "VariationalSolution", "bruteforce_chain_qp", "check_minimizer_structure",
    "contour_moment_complex", "default_contour_config",
    "first_optimal_merge", "flatten", "gamma2_objective",
    "gamma3", "gamma_report", "heat_kernel", "initial_speeds",
    "isotonic_nonincreasing", "oracle_gamma1", "oracle_gamma2",
    "random_instance", "sample_matching", "separation_margins",
    "simulate_inertia", "solve_gamma1", "solve_gamma2", "upper_bound_value",
    "validate_instance", "verify_recursion_identity",
)

FIELDS = {
    "VariationalSolution": ("values", "objective"),
    "GammaReport": ("gamma1", "gamma2", "gamma3", "max_pairwise_dev",
                    "partition", "minimizer_a", "minimizer_b", "structure_ok"),
    "StructureReport": ("tight", "same_block", "near_threshold",
                        "near_terminal_merge"),
    "ClusterResult": ("partition", "cluster_masses", "terminal_positions",
                      "drifts", "events", "inertia_paths"),
    "MergeEvent": ("time", "merged", "position", "speed"),
    "ContourConfig": ("offsets", "truncation", "points", "rule"),
    "MomentInstance": ("t", "x", "m"),
    "RecursionCheck": ("lhs", "rhs"),
}


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(shelyap)
        if not n.startswith("_")
        and not isinstance(getattr(shelyap, n), types.ModuleType)
    )
    assert names == sorted(PUBLIC)
    assert len(names) == 45


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_result_fields_are_pinned(name):
    fields = dataclasses.fields(getattr(shelyap, name))
    assert tuple(f.name for f in fields) == FIELDS[name]


def _runtime_imports(module):
    """Sibling modules a shelyap module imports at run time.

    Relative `from .x import` lines count; those under `if TYPE_CHECKING:`
    serve annotations only and do not.
    """
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            node.body = []
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("name, allowed", [
    # the three routes and the quadrature check share no code
    ("solvers", {"errors", "instance"}),
    ("clusters", {"errors", "instance"}),
    ("quadrature", {"errors", "instance"}),
    ("sampling", {"errors", "instance"}),
    ("closedform", {"clusters", "instance", "solvers"}),
])
def test_module_graph_keeps_the_routes_apart(name, allowed):
    imports = _runtime_imports(importlib.import_module(f"shelyap.{name}"))
    assert imports <= allowed


def _layertrace():
    # perfbench's tracer imports only the standard library, so load it by path
    path = Path(__file__).parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layertrace_targets_resolve():
    # perfbench's tracer wraps these by name and fails on a missing one
    layertrace = _layertrace()
    for mod, names in layertrace.TARGETS.items():
        module = importlib.import_module(f"shelyap.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"shelyap.{mod}.{name}"


def test_layertrace_traces_the_commands(tmp_path, capsys):
    # the tracer counts work from result fields (merge events, path
    # breakpoints, a partition), so a reshaped result fails here
    layertrace = _layertrace()
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"t": 1.0, "x": [0.0, 0.3, 0.6, 3.0, 3.3], "m": [1, 2, 1, 3, 1]}))
    ops = [["clusters", "--input", str(inst)],
           ["clusters", "--input", str(inst), "--format", "csv"],
           ["gamma", "--input", str(inst)],
           ["verify", "--count", "2"]]
    tracer = layertrace.Tracer()
    tracer.install()
    codes = []
    start = time.perf_counter_ns()
    try:
        for k, argv in enumerate(ops):
            tracer.op = k
            codes.append(shelyap.cli.main(argv))
        # no command expands the paths, clusters included: it prints them from
        # the forest, so the library's expansion is traced as a fifth op
        tracer.op = len(ops)
        shelyap.simulate_inertia(shelyap.validate_instance(1.0, [0.0, 0.3, 0.6, 3.0, 3.3],
                                                           [1, 2, 1, 3, 1]))
    finally:
        wall = time.perf_counter_ns() - start
        tracer.uninstall()
    out = capsys.readouterr().out.encode()
    assert codes == [0] * len(ops)
    layers = layertrace.summarize(tracer.spans, len(ops) + 1, wall, len(out), overhead=1.0)
    assert layers["clusters.simulate_inertia.calls"] == 1 / (len(ops) + 1)
    assert layers["clusters.simulate_inertia.path_values"] > 0
    assert layers["clusters.simulate_inertia.events"] > 0
    assert layers["closedform.verify_recursion_identity.calls"] == 2 / (len(ops) + 1)
