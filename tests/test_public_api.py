"""The package's public names, pinned.

Adding or removing a public name is a deliberate API change: update this list
in the same change and report the new count.
"""

import types

import shelyap

PUBLIC = (
    "ClusterResult", "ContourConfig", "DimensionTooLarge", "FirstMerge",
    "GammaReport", "HypothesisNotMet", "InvalidContour", "InvalidFitInput",
    "LengthMismatch", "MergeEvent", "MomentInstance", "NoMerge",
    "NonFiniteResult", "NonPositiveMoment", "NonPositiveMultiplicity",
    "NonPositiveTime", "NuTooLarge", "PiecewiseLinearPath", "RecursionCheck",
    "ShelyapError", "StructureReport", "UnsortedLocations",
    "VariationalSolution", "bruteforce_chain_qp", "check_minimizer_structure",
    "contour_moment", "contour_moment_complex", "default_contour_config",
    "first_optimal_merge", "flatten", "gamma1_objective", "gamma2_objective",
    "gamma3", "gamma_report", "heat_kernel", "initial_speeds",
    "isotonic_nonincreasing", "oracle_gamma1", "oracle_gamma2",
    "random_instance", "sample_matching", "separation_margins",
    "simulate_inertia", "solve_gamma1", "solve_gamma2", "upper_bound_value",
    "validate_instance", "verify_recursion_identity",
)


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(shelyap)
        if not n.startswith("_")
        and not isinstance(getattr(shelyap, n), types.ModuleType)
    )
    assert names == sorted(PUBLIC)
    assert len(names) == 48
