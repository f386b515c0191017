"""Combinatorial models of surfaces glued from foliated strips.

The package models such a surface as a finite atlas of strips with glued
boundary intervals, derives the (generally non-Hausdorff) leaf space of
its foliation, enumerates the combinatorial automorphism group, and
decides whether the induced action on the leaf space has trivial kernel
or kernel of order two.
"""

from .atlas import (
    AtlasError,
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    canonical_form,
    connected_components,
    component_atlases,
    is_connected,
    is_valid,
    isomorphic,
    parse_atlas,
    serialize_atlas,
    validate,
)
from .dualgraph import DualGraph, build_dual_graph, euler_invariant, export_dot
from .fixtures import FIXTURE_NAMES, all_fixtures, fixture_atlas, fixture_text
from .leafspace import (
    ArcEnd,
    Attachment,
    FiniteBasisSpace,
    LeafClass,
    LeafPoint,
    LeafSpaceModel,
    Sample,
    boundary_points,
    build_leaf_space,
    classify_leaf,
    hcl_bruteforce,
    hcl_point,
    sampled_space,
    special_points,
)
from .reduction import (
    SurfaceClass,
    SurfaceKind,
    is_reduced,
    reduce_atlas,
    reduce_component,
    regular_seams,
)
from .symmetry import (
    AtlasAutomorphism,
    DisconnectedAtlasError,
    HomeotopyReport,
    KernelResult,
    LeafMap,
    all_leaf_reversal,
    enumerate_automorphisms,
    homeotopy_report,
    identity_automorphism,
    induced_leaf_map,
    leaf_action_kernel,
    leaf_model_automorphism_count,
    reversal_witness,
)

__version__ = "0.1.0"
