"""Combinatorial models of surfaces glued from foliated strips.

The package models such a surface as a finite atlas of strips with glued
boundary intervals, derives the (generally non-Hausdorff) leaf space of
its foliation, enumerates the combinatorial automorphism group, and
decides whether the induced action on the leaf space has trivial kernel
or kernel of order two.

``import stripes`` loads no submodule.  Each public name below is looked
up in its home module on first access (PEP 562) and then kept here, so a
program pays only for the modules it uses; ``stripes.symmetry`` and the
other submodules load the same way.
"""

__version__ = "0.1.0"

# Home module -> the public names it provides here.
_EXPORTS = {
    "atlas": (
        "AtlasError",
        "DisconnectedAtlasError",
        "Gluing",
        "Parity",
        "Strip",
        "StripedAtlas",
        "canonical_form",
        "connected_components",
        "component_atlases",
        "is_connected",
        "is_valid",
        "isomorphic",
        "parse_atlas",
        "serialize_atlas",
        "validate",
    ),
    "dualgraph": ("DualGraph", "build_dual_graph", "euler_invariant", "export_dot"),
    "fixtures": ("FIXTURE_NAMES", "all_fixtures", "fixture_atlas", "fixture_text"),
    "leafspace": (
        "ArcEnd",
        "Attachment",
        "FiniteBasisSpace",
        "LeafClass",
        "LeafPoint",
        "LeafSpaceModel",
        "Sample",
        "boundary_points",
        "build_leaf_space",
        "classify_leaf",
        "hcl_bruteforce",
        "hcl_point",
        "sampled_space",
        "special_points",
    ),
    "reduction": (
        "SurfaceClass",
        "SurfaceKind",
        "is_reduced",
        "reduce_atlas",
        "reduce_component",
        "regular_seams",
    ),
    "symmetry": (
        "AtlasAutomorphism",
        "HomeotopyReport",
        "KernelResult",
        "LeafMap",
        "all_leaf_reversal",
        "enumerate_automorphisms",
        "homeotopy_report",
        "identity_automorphism",
        "induced_leaf_map",
        "leaf_action_kernel",
        "leaf_model_automorphism_count",
        "reversal_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    "atlas cli corpus dualgraph fixtures leafspace reduction render selfcheck symmetry".split()
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
