"""The public surface of the spclust package, pinned name by name.

A name removed from the library (or one kept only for tests) cannot be
re-exported without this list changing with it.
"""

import types

import spclust

PUBLIC_NAMES = [
    "ClusterLabels",
    "Diagnostics",
    "DimensionMismatch",
    "LabeledPoint",
    "LengthMismatch",
    "MissingColumn",
    "NoConvergence",
    "NotPositiveDefinite",
    "ParseError",
    "SpcError",
    "SpcModel",
    "SpcParams",
    "StreamSpec",
    "Structure",
    "UnknownIdentifier",
    "assign_points",
    "build_stream",
    "contingency_table",
    "covariance_union",
    "decision_distance",
    "fuse",
    "gen_gaussian_highdim",
    "gen_overlapping_triangle",
    "gen_sine_waves",
    "gen_two_circles",
    "get_clustering",
    "load_csv",
    "nlt",
    "nmi",
    "pad_covariance",
    "purity",
    "reorder",
    "structure_distance",
    "typicality",
    "typicality_spherical",
]


def test_public_names_are_pinned():
    # submodules appear as attributes once imported anywhere, so they are
    # not part of the pinned list
    names = sorted(
        name for name, value in vars(spclust).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
