"""Acceptance criteria, one test per criterion.

Each test prints a single ``PASS criterion-N`` / ``FAIL criterion-N`` line
(visible with ``pytest -s`` or on failure) and enforces the stated exact
tolerances and runtime limits.  Corpora are seeded and deterministic.
"""

from __future__ import annotations

import time
from random import Random

from bruteforce import (
    is_isotopically_trivial_on_leaf_space,
    kernel_members,
    reduce_stepwise,
)
from stripes.atlas import (
    component_atlases,
    is_connected,
    isomorphic,
)
from stripes.corpus import (
    dedup_by_isomorphism,
    exhaustive_family,
    random_atlas,
    random_connected_atlas,
)
from stripes.dualgraph import build_dual_graph, euler_invariant
from stripes.fixtures import fixture_atlas
from stripes.leafspace import (
    LeafClass,
    LeafPoint,
    boundary_points,
    build_leaf_space,
    classify_leaf,
    hcl_bruteforce,
    hcl_point,
    sampled_space,
    special_points,
)
from stripes.reduction import SurfaceKind, is_reduced, reduce_component
from stripes.symmetry import (
    enumerate_automorphisms,
    homeotopy_report,
    identity_automorphism,
    induced_leaf_map,
    leaf_action_kernel,
    reversal_witness,
)

FIXTURES = ("PLANE", "HALFPLANE", "CYL", "MOEB", "SAMESIDE", "PUNCTURED", "LADDER")


def report(number: int, label: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"{status} criterion-{number}: {label}")
    assert not violations, violations[:10]


def _oracle_corpus():
    atlases = [fixture_atlas(name) for name in FIXTURES]
    atlases += [random_atlas(1 + seed % 4, 3, 41_000 + seed) for seed in range(100)]
    return atlases


def test_criterion_1_kernel_dichotomy():
    """Kernel is Trivial or Z2 and agrees with the reversal-witness route."""
    started = time.perf_counter()
    violations = []

    small = [a for a in exhaustive_family(2, 2) if is_connected(a)]
    corpus = dedup_by_isomorphism(small)
    corpus += [
        random_connected_atlas(1 + seed % 12, 3, 51_000 + seed) for seed in range(500)
    ]

    for atlas in corpus:
        try:
            kernel = leaf_action_kernel(atlas)
        except Exception as exc:  # any escape from the dichotomy is a failure
            violations.append((atlas, repr(exc)))
            continue
        if kernel.order not in (1, 2):
            violations.append((atlas, "kernel order", kernel.order))
        outcome = reduce_component(atlas)
        if outcome.kind is SurfaceKind.PROPER:
            members = kernel_members(outcome.atlas)
            witness = reversal_witness(outcome.atlas)
            if len(members) not in (1, 2):
                violations.append((atlas, "member count", len(members)))
            if (len(members) == 2) != (witness is not None):
                violations.append((atlas, "witness disagrees with enumeration"))
            if kernel.order != len(members):
                violations.append((atlas, "kernel order disagrees"))
        else:
            if kernel.order != 2 or reversal_witness(atlas) is None:
                violations.append((atlas, "exceptional component not Z2"))

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        violations.append(("runtime", elapsed))
    report(1, f"kernel dichotomy on {len(corpus)} atlases in {elapsed:.1f}s", violations)


def test_criterion_2_cylinder_facts():
    """The one-strip cylinder: group of order 4 and exponent 2, image 2, kernel Z2."""
    violations = []
    cyl = fixture_atlas("CYL")
    group = enumerate_automorphisms(cyl)
    if len(group) != 4:
        violations.append(("order", len(group)))
    if not all(a.compose(a).is_identity for a in group):
        violations.append("exponent exceeds 2")
    result = homeotopy_report(cyl)
    if result.image_order != 2:
        violations.append(("imageOrder", result.image_order))
    if result.kernel.label() != "Z2":
        violations.append(("kernel", result.kernel.label()))
    report(2, "cylinder group facts", violations)


def test_criterion_3_punctured_plane():
    """Two special seams forming one mutual Hausdorff-closure pair; trivial kernel."""
    violations = []
    atlas = fixture_atlas("PUNCTURED")
    model = build_leaf_space(atlas)
    for point in model.points:
        if classify_leaf(atlas, point) is not LeafClass.SPECIAL:
            violations.append((point, "not special"))
        if hcl_point(model, point) != set(model.points):
            violations.append((point, "closure is not the pair"))
    if len(special_points(model)) != 2:
        violations.append(("special count", len(special_points(model))))
    if not leaf_action_kernel(atlas).is_trivial:
        violations.append("kernel not trivial")
    report(3, "punctured-plane facts", violations)


def test_criterion_4_oracle_equivalence():
    """Brute-force closures on sampled spaces match the shared-end rule."""
    started = time.perf_counter()
    violations = []
    corpus = _oracle_corpus()
    for atlas in corpus:
        model = build_leaf_space(atlas)
        for k in (1, 2, 3):
            space = sampled_space(model, k)
            for point in model.points:
                brute = frozenset(
                    x for x in hcl_bruteforce(space, point) if isinstance(x, LeafPoint)
                )
                if brute != hcl_point(model, point):
                    violations.append((atlas, k, point))
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        violations.append(("runtime", elapsed))
    report(4, f"oracle equivalence on {len(corpus)} atlases in {elapsed:.1f}s", violations)


def test_criterion_5_hcl_symmetry():
    """Mutual membership of Hausdorff closures is symmetric over the corpus."""
    violations = []
    for atlas in _oracle_corpus():
        model = build_leaf_space(atlas)
        closures = {p: hcl_point(model, p) for p in model.points}
        for p in model.points:
            for q in model.points:
                if (q in closures[p]) != (p in closures[q]):
                    violations.append((atlas, p, q))
    report(5, "closure symmetry", violations)


def test_criterion_6_functoriality(exhaustive_connected):
    """The induced leaf-space action respects identity and composition."""
    violations = []
    for atlas in exhaustive_connected:
        group = enumerate_automorphisms(atlas)
        model = build_leaf_space(atlas)
        maps = {aut: induced_leaf_map(model, aut) for aut in group}
        for aut in group:
            if aut.is_identity and not maps[aut].is_identity:
                violations.append((atlas, "identity not preserved"))
        for a in group:
            for b in group:
                if maps[a.compose(b)] != maps[a].compose(maps[b]):
                    violations.append((atlas, a, b))
    report(6, f"functoriality on {len(exhaustive_connected)} classes", violations)


def test_criterion_7_reduction_correctness():
    """Named reductions plus invariants over 200 random atlases."""
    started = time.perf_counter()
    violations = []

    (ladder,) = [reduce_component(fixture_atlas("LADDER"))]
    if ladder.kind is not SurfaceKind.PROPER or not isomorphic(
        ladder.atlas, fixture_atlas("PLANE")
    ):
        violations.append("LADDER does not reduce to PLANE")
    if reduce_component(fixture_atlas("CYL")).kind is not SurfaceKind.OPEN_CYLINDER:
        violations.append("CYL not a cylinder")
    if (
        reduce_component(fixture_atlas("MOEB")).kind
        is not SurfaceKind.OPEN_MOEBIUS_BAND
    ):
        violations.append("MOEB not a Moebius band")

    for seed in range(200):
        atlas = random_atlas(1 + seed % 4, 3, 61_000 + seed)
        for sub in component_atlases(atlas):
            outcome = reduce_component(sub)
            shuffled = reduce_stepwise(sub, Random(seed))
            if shuffled.kind is not outcome.kind:
                violations.append((sub, "merge order changed the kind"))
            if outcome.kind is not SurfaceKind.PROPER:
                continue
            if shuffled.atlas != outcome.atlas and not isomorphic(
                shuffled.atlas, outcome.atlas
            ):
                violations.append((sub, "merge order changed the class"))
            reduced = outcome.atlas
            if euler_invariant(build_dual_graph(reduced)) != euler_invariant(
                build_dual_graph(sub)
            ):
                violations.append((sub, "euler drift"))
            before, after = build_leaf_space(sub), build_leaf_space(reduced)
            if len(special_points(before)) != len(special_points(after)):
                violations.append((sub, "special count drift"))
            if len(boundary_points(before)) != len(boundary_points(after)):
                violations.append((sub, "boundary count drift"))
            again = reduce_component(reduced)
            if again.kind is not SurfaceKind.PROPER or (
                again.atlas != reduced and not isomorphic(again.atlas, reduced)
            ):
                violations.append((sub, "not idempotent"))

    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        violations.append(("runtime", elapsed))
    report(7, f"reduction invariants in {elapsed:.1f}s", violations)


def test_criterion_8_identity_alignment(exhaustive_connected):
    """Surface-isotopy triviality singles out the identity triple and
    implies leaf-space-isotopy triviality."""
    violations = []
    corpus = []
    for atlas in exhaustive_connected:
        if is_reduced(atlas):
            corpus.append(atlas)
        else:
            outcome = reduce_component(atlas)
            if outcome.kind is SurfaceKind.PROPER:
                corpus.append(outcome.atlas)
    for seed in range(100):
        outcome = reduce_component(random_connected_atlas(1 + seed % 4, 3, 71_000 + seed))
        if outcome.kind is SurfaceKind.PROPER:
            corpus.append(outcome.atlas)

    for atlas in corpus:
        group = enumerate_automorphisms(atlas)
        # On a reduced atlas surface-isotopy triviality is the identity triple.
        if [aut for aut in group if aut.is_identity] != [identity_automorphism(atlas)]:
            violations.append((atlas, "identity mismatch"))
        for aut in group:
            if aut.is_identity and not is_isotopically_trivial_on_leaf_space(atlas, aut):
                violations.append((atlas, aut, "does not map into leaf-space identity"))
    report(8, f"identity alignment on {len(corpus)} reduced atlases", violations)
