"""Cross-validation of the library's invariants on a single atlas.

Runs, per connected component, each dual-route check the package offers
once: the closure rule against the first-principles oracle on one sampled
finite space (every depth gives the same leaf-point closures), closure
symmetry, classification consistency, group laws of the automorphism
group, functoriality of the induced leaf-space action, the kernel
dichotomy with its witness cross-check, and the reduction invariants.

The group laws and functoriality are checked in one closure pass over a
greedy generating set, which forms each generator product once.  The
enumerated automorphisms and their leaf maps from :func:`induced_leaf_map`
compose through their own methods, on position codes, so a product is
one pick of entries out of the generator's table.  The kernel comes from
the same route as in ``kernel`` and ``report``, read off the working
atlas's sides: the reduced atlas of a proper component, the canonical
one-strip atlas of a cylinder or Moebius band.  The same two checks run
for every kind.  The kernel dichotomy and the witness cross-check compare
the kernel with the members of the working atlas's enumerated group that
act trivially on the leaf space, and the cross-check requires the
input's own all-leaf reversal to exist exactly when the kernel's does.
Each of those members must also pass the witness-validity oracle,
``is_valid_witness``, on the working atlas; no other command runs it.
"""

from __future__ import annotations

from typing import NamedTuple

from .atlas import StripedAtlas, component_atlases, is_valid_witness, isomorphic, validate
from .leafspace import (
    LeafClass,
    LeafSpaceModel,
    boundary_points,
    build_leaf_space,
    classify_leaf,
    hcl_bruteforce,
    hcl_point,
    sampled_space,
    special_points,
)
from .reduction import SurfaceKind, is_reduced, reduce_component
from .symmetry import (
    _reversal,
    _working_atlas,
    enumerate_automorphisms,
    identity_automorphism,
    induced_leaf_map,
)


class CheckResult(NamedTuple):
    component: str
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{status} {self.component}:{self.name}{suffix}"


class SelfCheckReport(NamedTuple):
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def selfcheck(atlas: StripedAtlas) -> SelfCheckReport:
    """Run all invariant checks."""
    report = SelfCheckReport([])
    problems = validate(atlas)
    report.results.append(
        CheckResult("*", "valid-atlas", not problems, "; ".join(problems))
    )
    if problems:
        return report
    for sub in component_atlases(atlas):
        label = min(sub.strip_ids)
        _check_component(report, sub, label)
    return report


def _check_component(report: SelfCheckReport, atlas: StripedAtlas, label: str) -> None:
    # The kernel's route gives the working atlas (the reduction, or the
    # canonical atlas of an exceptional kind) and the kernel; a component
    # that is its own working atlas shares its model.
    outcome = reduce_component(atlas)
    working, kernel = _working_atlas(outcome)
    own = working == atlas
    working_model = build_leaf_space(working)
    model = working_model if own else build_leaf_space(atlas)
    closures, special, boundary = facts = _point_facts(model)
    add = lambda name, ok, detail="": report.results.append(
        CheckResult(label, name, ok, detail)
    )

    # Interval bookkeeping: every interval in exactly one point.
    counted = sorted(
        name for point in model.points for name in point.intervals
    )
    add(
        "interval-partition",
        counted == sorted(atlas.intervals())
        and len(model.points) == len(atlas.gluings) + len(atlas.free_intervals),
    )

    # Closure rule against the brute-force oracle on one sampled space: a
    # basic set of a point holds samples of all its ends at every depth.
    points = frozenset(model.points)
    space = sampled_space(model, 2)
    wrong = [p.label() for p in model.points if hcl_bruteforce(space, p) & points != closures[p]]
    add("hcl-oracle-agreement", not wrong, f"depth 2, point {wrong[0]}" if wrong else "")

    # Closure symmetry: q in hcl(p) implies p in hcl(q).
    add(
        "hcl-symmetry",
        all(p in closures[q] for p in model.points for q in closures[p]),
    )

    # Classification against the closure-derived point sets.
    ok = True
    for point in model.points:
        leaf_class = classify_leaf(atlas, point)
        if (leaf_class is LeafClass.SPECIAL) != (point in special):
            ok = False
        if leaf_class is LeafClass.SINGULAR_NON_SPECIAL and (
            point not in boundary or point in special
        ):
            ok = False
    add("classification-consistency", ok)

    # Group laws of the enumerated automorphisms and functoriality of the
    # induced leaf-space action, both read off one closure pass.
    group = enumerate_automorphisms(atlas)
    leaf_maps = [induced_leaf_map(model, aut) for aut in group]
    identity = identity_automorphism(atlas)
    laws, functorial = _closure(identity, group, dict(zip(group, leaf_maps)))
    add("group-laws", laws)
    add("psi-functoriality", functorial)

    # Kernel dichotomy on the enumerated group of the working atlas, and the
    # kernel's single reversal candidate against it.  A component that is
    # its own working atlas filters the group and maps it already has.  The
    # members must pass the witness-validity oracle on the working atlas.
    maps = zip(group, leaf_maps) if own else (
        (aut, induced_leaf_map(working_model, aut)) for aut in enumerate_automorphisms(working)
    )
    members = [aut for aut, m in maps if m.is_identity]
    nontrivial = [aut for aut in members if not aut.is_identity]
    valid = all(
        is_valid_witness(working, working, aut.strip_map, aut.side_flip, aut.reversal)
        for aut in members
    )
    # The input's own reversal must exist exactly when the kernel's does.
    witness = kernel.witness if own else _reversal(atlas)
    add("kernel-dichotomy", *_kernel_dichotomy(members))
    add(
        "witness-crosscheck",
        valid
        and nontrivial == ([] if kernel.is_trivial else [kernel.witness])
        and (witness is not None) == (not kernel.is_trivial),
    )

    # Reduction invariants.
    ok = True
    detail = ""
    if outcome.kind is SurfaceKind.PROPER:
        # A reduced atlas reduces to itself, so this is also idempotence.
        if not is_reduced(working):
            ok, detail = False, "result not reduced"
        # The dual graph has one vertex per strip and one edge per gluing.
        if len(working.strips) - len(working.gluings) != len(atlas.strips) - len(atlas.gluings):
            ok, detail = False, "euler drift"
        reduced_closures, reduced_special, reduced_boundary = (
            facts if own else _point_facts(working_model)
        )
        if len(special) != len(reduced_special) or len(boundary) != len(reduced_boundary):
            ok, detail = False, "point count drift"
        surviving = set(working_model.points)
        if not surviving <= set(model.points):
            ok, detail = False, "points renamed"
        else:
            for p in surviving:
                if closures[p] & surviving != reduced_closures[p]:
                    ok, detail = False, "hcl drift"
    # Another merge order (strips and gluings listed in reverse) must agree.
    other = reduce_component(StripedAtlas(atlas.strips[::-1], atlas.gluings[::-1]))
    if other.kind is not outcome.kind:
        ok, detail = False, "merge order changed the kind"
    elif outcome.kind is SurfaceKind.PROPER and not (
        other.atlas == outcome.atlas or isomorphic(other.atlas, outcome.atlas)
    ):
        ok, detail = False, "merge order changed the class"
    add("reduction-invariants", ok, detail)


def _point_facts(model: LeafSpaceModel):
    """The Hausdorff closure of each point of ``model``, its special points
    and its boundary points."""
    closures = {p: hcl_point(model, p) for p in model.points}
    return closures, special_points(model), boundary_points(model)


def _kernel_dichotomy(members) -> tuple[bool, str]:
    """Whether ``members``, the automorphisms of a working atlas that act
    trivially on the leaf space, are the identity and at most one more
    element, none with non-constant reversal bits; and the FAIL detail."""
    nontrivial = [aut for aut in members if not aut.is_identity]
    detail = ""
    if any(len(set(aut.reversal.values())) > 1 for aut in members):
        detail = "kernel member with non-constant reversal bits"
    elif len(nontrivial) > 1:
        detail = "kernel larger than order two"
    return not detail and len(members) == len(nontrivial) + 1, detail


def _closure(identity, group, psi) -> tuple[bool, bool]:
    """Whether the automorphism list ``group`` holds ``identity`` and every
    inverse and is closed, and whether ``psi`` (automorphism -> leaf map)
    respects composition on it: psi(e) = id and psi(a*b) = psi(a)*psi(b).

    Each element not yet reached from ``identity`` by left products of the
    earlier generators that stay inside ``group`` becomes a generator.  Each
    product s*b of a generator s and a reached element b is formed once: a
    new generator is multiplied by every element reached so far, a newly
    reached element by every generator so far.  The product must lie in
    ``group``, and psi(s*b) must equal psi(s)*psi(b).  Every element is a
    product of generators, so both facts hold for every pair (a, b) by
    induction on the length of a.  Only generators compose on the left, so
    only they, and their leaf maps, build a table."""
    members = set(group)
    laws = identity in members and all(aut.inverse() in members for aut in group)
    functorial = identity in psi and psi[identity].is_identity
    generators, reached, pending = [], {identity}, []
    for aut in group:
        if aut in reached:
            continue
        generators.append(aut)
        pending += [(aut, b) for b in reached]
        while pending:
            s, b = pending.pop()
            product = s.compose(b)
            if functorial:
                functorial = psi.get(product) == psi[s].compose(psi[b])
            if product not in members:
                laws = False
            elif product not in reached:
                reached.add(product)
                pending += [(generator, product) for generator in generators]
    return laws, functorial
