"""The package's public names and result fields, pinned.

Adding or removing a public name, or a field of a public result type, is a
deliberate API change: update these lists in the same change and report the
new count.
"""

import dataclasses
import importlib.util
import types
from pathlib import Path

import pytest

import shelyap

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
                      "drifts", "events", "inertia_paths", "optimal_paths",
                      "momentum_at_breakpoints"),
    "MergeEvent": ("time", "merged", "position"),
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


def test_layertrace_targets_resolve():
    # perfbench's tracer wraps these by name and fails on a missing one; its
    # module imports only the standard library, so load it by path
    path = Path(__file__).parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for mod, names in layertrace.TARGETS.items():
        module = importlib.import_module(f"shelyap.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"shelyap.{mod}.{name}"
