"""Brute-force oracles for the witness search, the reduction and the kernel.

Both witness routes try every one of the n!·4^n candidate triples (strip
assignment, side flip bits, reversal bits), so they are only usable on a
few strips.  The package's rooted traversal is checked against them.
``reduce_stepwise`` merges one regular seam at a time and rescans after
every merge, in any order; the package's one-pass chain walk is checked
against it.  ``reduce_per_component`` splits an atlas into its components
before reducing each; ``reduce_atlas`` reduces the whole atlas first and
must return the same outcomes.  ``leaf_map`` pushes an automorphism to the
leaf space through the positional interval bijection instead of the
model's arc ends, and
``kernel_members`` keeps the enumerated automorphisms that act trivially
through it: the enumeration route of the kernel.  ``closure_scan`` tests
every ground element of a finite space against all its basic sets.
``connected_witnesses`` traverses all 4n root frames of ``dst``, with no
root-signature pruning and no reuse of the reference traversal (it
ignores a reference walk passed in); the package's matcher must yield the
same witnesses in the same order.
``compose_triples``, ``inverse_triple``, ``triple_key``, ``format_triple``
and ``compose_leaf_triples`` are the dict formulas of the group elements,
which the package holds as position codes; ``group_laws_all_pairs`` and
``functorial_all_pairs`` compose every pair through them, on the
elements' dict views.
``iter_witnesses_recursive`` pairs the components of disconnected atlases
by recursion, one generator frame per component, so it stops at the
recursion limit; the package's explicit stack must yield the same
witnesses in the same order.  ``component_atlases_filtered`` scans every
strip and gluing once per component; the package buckets both in one
pass and must return the same sub-atlases in the same order.
``parse_atlas_stepwise`` parses line by line with one check per interval
and per request; the package's parser must return the same tuples or
raise the same error.  ``validate_stepwise`` walks every strip, interval,
gluing and identifier of an atlas value; the package's ``validate``
trusts the parser's mark on a parsed atlas and walks any other, and must
return the same problems in the same order.
``build_leaf_space_located``, ``classify_leaf_located`` and
``regular_seams_located`` read every interval through ``atlas.location``
and compare side tuples, where the package's layers read the index once
and compare side lengths.  ``classify_text`` and ``leafspace_text`` build
the plain ``classify`` and ``leafspace`` output from the located model,
one point at a time; the CLI reads its points off the atlas and renders
each label once.  ``leafspace_text`` with ``build_leaf_space`` is the
model route of plain ``leafspace``, where the CLI reads one position pass
(``leaf_point_table``) and builds no model.
``build_parser`` is the argparse parser the CLI read its argv with, and
``argparse_values`` its reading of one argv; the CLI's own reader of its
command table must accept the same argv with the same values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
from math import factorial
from random import Random

from stripes.atlas import (
    AtlasError,
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    _connected_witnesses,
    _rows,
    _traverse,
    canonical_form as traversal_canonical_form,
    component_atlases,
    connected_components,
    is_connected,
    is_valid_witness,
    serialize_atlas,
    witness_interval_map,
)
from stripes.leafspace import (
    ArcEnd,
    Attachment,
    FiniteBasisSpace,
    LeafClass,
    LeafPoint,
    LeafSpaceModel,
    build_leaf_space,
    classify_leaf,
    hcl_point,
)
from stripes.reduction import (
    SurfaceClass,
    SurfaceKind,
    canonical_exceptional_atlas,
    is_reduced,
    reduce_component,
)
from stripes.symmetry import AtlasAutomorphism, LeafMap, enumerate_automorphisms


def _candidates(src: StripedAtlas, dst: StripedAtlas):
    ids = src.strip_ids
    for assignment in itertools.permutations(dst.strip_ids):
        for flips in itertools.product((0, 1), repeat=len(ids)):
            for bits in itertools.product((0, 1), repeat=len(ids)):
                yield dict(zip(ids, assignment)), dict(zip(ids, flips)), dict(zip(ids, bits))


def witness_key(witness) -> tuple:
    return tuple(tuple(sorted(part.items())) for part in witness)


def witnesses(src: StripedAtlas, dst: StripedAtlas) -> list[tuple]:
    """Sorted keys of every valid witness from ``src`` to ``dst``."""
    if len(src.strips) != len(dst.strips) or len(src.gluings) != len(dst.gluings):
        return []
    return sorted(
        witness_key(w) for w in _candidates(src, dst) if is_valid_witness(src, dst, *w)
    )


def _relabelled(atlas: StripedAtlas, strip_map, side_flip, reversal) -> StripedAtlas:
    # Strips renamed by strip_map and listed in the order of their new
    # names, sides read through the flip and reversal, intervals positional.
    names: dict[str, str] = {}
    strips = []
    for s in sorted(atlas.strips, key=lambda s: strip_map[s.id]):
        sides = []
        for which in (0, 1):
            side = s.side(which ^ side_flip[s.id])
            if reversal[s.id]:
                side = side[::-1]
            renamed = tuple(f"{strip_map[s.id]}.{which}.{i}" for i in range(len(side)))
            names.update(zip(side, renamed))
            sides.append(renamed)
        strips.append(Strip(strip_map[s.id], sides[0], sides[1]))
    gluings = sorted(
        (
            Gluing(
                names[g.a],
                names[g.b],
                g.parity.xor(
                    reversal[atlas.location(g.a)[0]] ^ reversal[atlas.location(g.b)[0]]
                ),
            )
            for g in atlas.gluings
        ),
        key=lambda g: (g.a, g.b),
    )
    return StripedAtlas(tuple(strips), tuple(gluings))


def connected_witnesses(src: StripedAtlas, dst: StripedAtlas, reference=None):
    """Witnesses from a connected atlas from every root frame of ``dst``
    whose traversal reads like ``src``'s frame 0, in frame order.
    ``reference``, the package's walk of that frame, is ignored."""

    def strip_frames(atlas: StripedAtlas, root: int) -> list[tuple[str, int, int]]:
        # (strip id, side flip, reversal) of each strip in visit order.
        frames: list[int] = []
        for _ in _rows(atlas, root, frames):
            pass
        return [(atlas.strips[f // 4].id, f // 2 % 2, f % 2) for f in frames]

    text, walk = _traverse(src, 0), strip_frames(src, 0)
    for root in range(4 * len(dst.strips)):
        if _traverse(dst, root) != text:
            continue
        other = strip_frames(dst, root)
        yield (
            {s: t for (s, _, _), (t, _, _) in zip(walk, other)},
            {s: f ^ g for (s, f, _), (_, g, _) in zip(walk, other)},
            {s: r ^ q for (s, _, r), (_, _, q) in zip(walk, other)},
        )


def iter_witnesses_recursive(src: StripedAtlas, dst: StripedAtlas):
    """``iter_witnesses`` with components paired by a recursive generator:
    for each target of component i's form, each witness onto it, then
    every pairing of the components after i."""
    if len(src.strips) != len(dst.strips) or len(src.gluings) != len(dst.gluings):
        return
    src_parts, dst_parts = component_atlases(src), component_atlases(dst)
    if len(src_parts) != len(dst_parts):
        return
    if len(src_parts) == 1:
        yield from _connected_witnesses(src, dst)
        return
    src_forms = [traversal_canonical_form(part) for part in src_parts]
    dst_forms = [traversal_canonical_form(part) for part in dst_parts]
    if sorted(src_forms) != sorted(dst_forms):
        return

    def pairings(i: int, unused: tuple[int, ...]):
        if i == len(src_parts):
            yield {}, {}, {}
            return
        for j in unused:
            if dst_forms[j] != src_forms[i]:
                continue
            rest = tuple(k for k in unused if k != j)
            for head in _connected_witnesses(src_parts[i], dst_parts[j]):
                for tail in pairings(i + 1, rest):
                    yield tuple({**h, **t} for h, t in zip(head, tail))

    yield from pairings(0, tuple(range(len(dst_parts))))


def component_atlases_filtered(atlas: StripedAtlas) -> tuple[StripedAtlas, ...]:
    """``component_atlases`` by one scan of every strip and every gluing
    per component, on freshly found components."""
    components = connected_components(atlas)
    if len(components) == 1:
        return (atlas,)
    out = []
    for component in components:
        strips = tuple(s for s in atlas.strips if s.id in component)
        gluings = tuple(g for g in atlas.gluings if atlas.locations[g.a][0] in component)
        out.append(StripedAtlas(strips, gluings))
    return tuple(out)


def canonical_form(atlas: StripedAtlas) -> str:
    """Least text over every relabelling onto strips T1..Tn."""
    target = StripedAtlas(
        tuple(Strip(f"T{i}") for i in range(1, len(atlas.strips) + 1)), ()
    )
    return min(
        serialize_atlas(_relabelled(atlas, *w)) for w in _candidates(atlas, target)
    )


def _merge_regular_seam(
    atlas: StripedAtlas, seam: Gluing
) -> StripedAtlas | SurfaceClass:
    """Merge the strips of one regular seam, or report an exceptional surface.

    When the gluing parity is decreasing, the strip that is second in id
    order is mirrored first: both of its side orders are reversed and the
    parity of every gluing flips once per endpoint on that strip.  The
    surviving strip keeps the first strip's id; its side 0 is the first
    strip's outer side and its side 1 the second strip's.
    """
    strip_a = atlas.location(seam.a)[0]
    strip_b = atlas.location(seam.b)[0]

    if strip_a == strip_b:
        # A regular seam on a single side would glue one full side to
        # itself, which validation forbids; only the opposite-sides case
        # can reach this point, and it pins down the whole component.
        if atlas.location(seam.a)[1] == atlas.location(seam.b)[1]:
            raise RuntimeError("regular seam joining a side to itself")
        kind = (
            SurfaceKind.OPEN_CYLINDER
            if seam.parity is Parity.INCREASING
            else SurfaceKind.OPEN_MOEBIUS_BAND
        )
        return SurfaceClass(kind)

    first, second = sorted((strip_a, strip_b))
    sides: dict[str, list[tuple[str, ...]]] = {
        s.id: [s.side0, s.side1] for s in atlas.strips
    }

    def endpoints_on(gluing: Gluing, strip_id: str) -> int:
        return sum(
            1
            for name in (gluing.a, gluing.b)
            if atlas.location(name)[0] == strip_id
        )

    parity_now: dict[Gluing, Parity] = {g: g.parity for g in atlas.gluings}
    if seam.parity is Parity.DECREASING:
        sides[second] = [sides[second][0][::-1], sides[second][1][::-1]]
        for g in atlas.gluings:
            parity_now[g] = parity_now[g].xor(endpoints_on(g, second))

    assert parity_now[seam] is Parity.INCREASING

    seam_first = seam.a if atlas.location(seam.a)[0] == first else seam.b
    seam_second = seam.other(seam_first)

    # Stack the first strip below the second: its seam side must face up
    # (side 1) and the second strip's seam side must face down (side 0).
    # Swapping a strip's sides leaves every gluing parity unchanged.
    if seam_first in sides[first][0]:
        sides[first].reverse()
    if seam_second in sides[second][1]:
        sides[second].reverse()
    assert sides[first][1] == (seam_first,)
    assert sides[second][0] == (seam_second,)

    merged = Strip(first, sides[first][0], sides[second][1])
    new_strips = tuple(
        merged if s.id == first else Strip(s.id, *sides[s.id])
        for s in atlas.strips
        if s.id != second
    )
    new_gluings = tuple(
        Gluing(g.a, g.b, parity_now[g]) for g in atlas.gluings if g != seam
    )
    return StripedAtlas(new_strips, new_gluings)


def reduce_stepwise(atlas: StripedAtlas, rng: Random | None = None) -> SurfaceClass:
    """Reduce one connected atlas by merging one regular seam at a time.

    Rescans for regular seams after every merge.  The merge order is the
    first regular seam in gluing order unless ``rng`` picks one at random;
    any order yields an isomorphic result.
    """
    current = atlas
    while True:
        seams = regular_seams_located(current)
        if not seams:
            return SurfaceClass(SurfaceKind.PROPER, current)
        seam = seams[0] if rng is None else seams[rng.randrange(len(seams))]
        outcome = _merge_regular_seam(current, seam)
        if isinstance(outcome, SurfaceClass):
            return outcome
        # Every merge removes exactly one strip and one seam, so the
        # strip/seam difference of the gluing graph is preserved.
        assert len(outcome.strips) == len(current.strips) - 1
        assert len(outcome.gluings) == len(current.gluings) - 1
        current = outcome


def reduce_per_component(atlas: StripedAtlas) -> tuple[SurfaceClass, ...]:
    """Every connected component reduced on its own, in order of first
    appearance."""
    return tuple(map(reduce_component, component_atlases(atlas)))


def triple(aut: AtlasAutomorphism) -> tuple[dict, dict, dict]:
    """The dict views of an automorphism: strip map, side flips, reversals."""
    return aut.strip_map, aut.side_flip, aut.reversal


def leaf_triple(leaf_map: LeafMap) -> tuple[dict, dict, dict]:
    """The dict views of a leaf map: point map, arc map, arc reversals."""
    return leaf_map.point_map, leaf_map.arc_map, leaf_map.arc_reversed


def compose_triples(a, b) -> tuple[dict, dict, dict]:
    """``a`` after ``b`` for automorphism triples: the side flip and
    reversal bits combine by xor along ``b``'s strip map."""
    strip_map, side_flip, reversal = a
    other_map, other_flip, other_reversal = b
    return (
        {s: strip_map[other_map[s]] for s in other_map},
        {s: other_flip[s] ^ side_flip[other_map[s]] for s in other_map},
        {s: other_reversal[s] ^ reversal[other_map[s]] for s in other_map},
    )


def inverse_triple(a) -> tuple[dict, dict, dict]:
    strip_map, side_flip, reversal = a
    backwards = {t: s for s, t in strip_map.items()}
    return (
        backwards,
        {t: side_flip[s] for t, s in backwards.items()},
        {t: reversal[s] for t, s in backwards.items()},
    )


def triple_is_identity(a) -> bool:
    strip_map, side_flip, reversal = a
    return (
        all(s == t for s, t in strip_map.items())
        and not any(side_flip.values())
        and not any(reversal.values())
    )


def triple_key(a) -> tuple:
    """Sort key: images, side flips, reversal bits, each in strip order."""
    strip_map, side_flip, reversal = a
    strips = sorted(strip_map)
    return (
        *map(strip_map.__getitem__, strips),
        *map(side_flip.__getitem__, strips),
        *map(reversal.__getitem__, strips),
    )


def format_triple(a) -> str:
    """The one-line rendering of ``stripes aut``, strips in sorted order."""
    strip_map, side_flip, reversal = a
    strips = sorted(strip_map)
    return " ".join(
        (
            "sigma: " + ",".join(f"{s}->{strip_map[s]}" for s in strips),
            "m: " + ",".join(f"{s}={side_flip[s]}" for s in strips),
            "r: " + ",".join(f"{s}={reversal[s]}" for s in strips),
        )
    )


def compose_leaf_triples(a, b) -> tuple[dict, dict, dict]:
    """``a`` after ``b`` for leaf-map triples: the arc reversals combine
    by xor along ``b``'s arc map."""
    point_map, arc_map, arc_reversed = a
    other_points, other_arcs, other_reversed = b
    return (
        {p: point_map[other_points[p]] for p in other_points},
        {x: arc_map[other_arcs[x]] for x in other_arcs},
        {x: other_reversed[x] ^ arc_reversed[other_arcs[x]] for x in other_arcs},
    )


def leaf_triple_is_identity(a) -> bool:
    point_map, arc_map, arc_reversed = a
    return (
        all(p == q for p, q in point_map.items())
        and all(x == y for x, y in arc_map.items())
        and not any(arc_reversed.values())
    )


def functorial_all_pairs(identity, group, leaf_maps) -> bool:
    """psi(e) = id and psi(a*b) = psi(a)*psi(b) for every pair, |G|^2 checks,
    composed on the dict views."""
    images = {witness_key(triple(aut)): leaf_triple(m) for aut, m in leaf_maps.items()}
    image_of_identity = images.get(witness_key(triple(identity)))
    if image_of_identity is None or not leaf_triple_is_identity(image_of_identity):
        return False
    mapped = [(a, images[witness_key(a)]) for a in map(triple, group)]
    return all(
        images.get(witness_key(compose_triples(a, b))) == compose_leaf_triples(image_a, image_b)
        for a, image_a in mapped
        for b, image_b in mapped
    )


def leaf_model_automorphism_count(model: LeafSpaceModel) -> int:
    """Incidence-preserving symmetries of a leaf-space model by trying all
    n!·2^n arc permutations with orientation bits; each one that carries
    the points' attachment multisets onto themselves counts once per
    matching of the points of equal incidence."""
    arcs = model.arcs

    def incidence(point: LeafPoint) -> tuple[tuple[str, int], ...]:
        return tuple(
            sorted((att.end.strip, att.end.side) for att in model.attachments[point])
        )

    target: dict[tuple, int] = {}
    for point in model.points:
        key = incidence(point)
        target[key] = target.get(key, 0) + 1

    total = 0
    for assignment in itertools.permutations(arcs):
        arc_map = dict(zip(arcs, assignment))
        for bits in itertools.product((0, 1), repeat=len(arcs)):
            flip = dict(zip(arcs, bits))
            mapped: dict[tuple, int] = {}
            for point in model.points:
                key = tuple(
                    sorted(
                        (arc_map[strip], side ^ flip[strip])
                        for strip, side in incidence(point)
                    )
                )
                mapped[key] = mapped.get(key, 0) + 1
            if mapped == target:
                count = 1
                for size in mapped.values():
                    count *= factorial(size)
                total += count
    return total


def group_laws_all_pairs(identity, group) -> bool:
    """Identity, inverses and a*b in group for every pair, |G|^2 checks,
    composed on the dict views."""
    triples = [triple(aut) for aut in group]
    members = set(map(witness_key, triples))
    return (
        witness_key(triple(identity)) in members
        and all(witness_key(inverse_triple(a)) in members for a in triples)
        and all(witness_key(compose_triples(a, b)) in members for a in triples for b in triples)
    )


def leaf_map(atlas: StripedAtlas, aut: AtlasAutomorphism) -> LeafMap:
    """The induced leaf-space map, read through the positional interval
    bijection: a point's image consists of its intervals' images, which
    must again form a leaf point."""
    mapping = witness_interval_map(
        atlas, atlas, aut.strip_map, aut.side_flip, aut.reversal
    )
    if mapping is None:
        raise ValueError("automorphism does not fit the atlas")
    model = build_leaf_space(atlas)
    point_map = {}
    for point in model.points:
        image = LeafPoint(tuple(mapping[name] for name in point.intervals))
        if image not in model.attachments:
            raise ValueError("interval bijection does not permute the points")
        point_map[point] = image
    return LeafMap(point_map, dict(aut.strip_map), dict(aut.side_flip))


def _require_working(atlas: StripedAtlas) -> None:
    # Triples are isotopy classes only on a working atlas: a reduced
    # connected one, or the canonical one-strip atlas of an exceptional kind.
    exceptional = (SurfaceKind.OPEN_CYLINDER, SurfaceKind.OPEN_MOEBIUS_BAND)
    if not (
        (is_connected(atlas) and is_reduced(atlas))
        or atlas in [canonical_exceptional_atlas(kind) for kind in exceptional]
    ):
        raise ValueError("the kernel oracle needs a reduced connected or canonical atlas")


def is_isotopically_trivial_on_leaf_space(
    atlas: StripedAtlas, aut: AtlasAutomorphism
) -> bool:
    """Whether the induced leaf-space map is isotopic to the identity.

    On a reduced atlas every leaf point is either a boundary point or a
    branch point, and the complement of those is the disjoint union of the
    open arcs; on a canonical exceptional atlas the leaf space is a circle,
    one arc with its seam point.  The induced map is trivially isotopic
    exactly when it fixes every leaf point and maps every arc to itself
    preserving orientation; the reversal bits are invisible on the leaf
    space.
    """
    _require_working(atlas)
    if any(s != t for s, t in aut.strip_map.items()) or any(aut.side_flip.values()):
        return False
    return all(p == q for p, q in leaf_map(atlas, aut).point_map.items())


def kernel_members(atlas: StripedAtlas) -> tuple[AtlasAutomorphism, ...]:
    """Automorphisms of a working atlas (reduced and connected, or the
    canonical one-strip atlas of an exceptional kind) acting trivially on
    the leaf space, in enumeration order.  Their classes form the kernel."""
    _require_working(atlas)
    return tuple(
        aut
        for aut in enumerate_automorphisms(atlas)
        if is_isotopically_trivial_on_leaf_space(atlas, aut)
    )


def closure_scan(space: FiniteBasisSpace, subset: frozenset) -> frozenset:
    """Closure from the definition, over the whole ground set: the points
    every basic neighbourhood of which meets ``subset``."""
    return frozenset(
        x
        for x in space.ground
        if all(not basic.isdisjoint(subset) for basic in space.neighbourhoods(x))
    )


def parse_atlas_stepwise(text: str) -> StripedAtlas:
    """Line-by-line parser: one comment split, token split and parity
    lookup per line, one membership test per interval, and the unknown
    glued intervals checked for every request after the last line."""
    strips: list[tuple[str, list[tuple[str, ...] | None]]] = []
    strip_names: set[str] = set()
    interval_lines: dict[str, int] = {}
    glue_requests: list[tuple[int, str, str, Parity]] = []
    glued: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]

        if keyword == "strip":
            if len(args) != 1:
                raise AtlasError("expected: strip <name>", lineno)
            if args[0] in strip_names:
                raise AtlasError(f"duplicate strip id {args[0]!r}", lineno)
            strip_names.add(args[0])
            strips.append((args[0], [None, None]))

        elif keyword in ("side0", "side1"):
            if not strips:
                raise AtlasError(f"{keyword} before any strip", lineno)
            which = 0 if keyword == "side0" else 1
            name, sides = strips[-1]
            if sides[which] is not None:
                raise AtlasError(f"{keyword} given twice for strip {name!r}", lineno)
            for interval in args:
                if interval in interval_lines:
                    raise AtlasError(f"duplicate interval id {interval!r}", lineno)
                interval_lines[interval] = lineno
            sides[which] = tuple(args)

        elif keyword == "glue":
            if len(args) != 3:
                raise AtlasError("expected: glue <interval> <interval> +|-", lineno)
            a, b, parity_token = args
            try:
                parity = Parity.from_symbol(parity_token)
            except ValueError as exc:
                raise AtlasError(str(exc), lineno) from None
            if a == b:
                raise AtlasError(f"interval {a!r} glued to itself", lineno)
            for name in (a, b):
                if name in glued:
                    raise AtlasError(f"interval {name!r} glued twice", lineno)
                glued.add(name)
            glue_requests.append((lineno, a, b, parity))

        else:
            raise AtlasError(f"unknown directive {keyword!r}", lineno)

    for lineno, a, b, _ in glue_requests:
        for name in (a, b):
            if name not in interval_lines:
                raise AtlasError(f"glue references unknown interval {name!r}", lineno)

    return StripedAtlas(
        strips=tuple(
            Strip(name, sides[0] or (), sides[1] or ()) for name, sides in strips
        ),
        gluings=tuple(Gluing(a, b, parity) for _, a, b, parity in glue_requests),
    )


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def validate_stepwise(atlas: StripedAtlas) -> list[str]:
    """Every invariant violation, found one strip, interval, gluing and
    identifier at a time.  A side that is not a tuple is reported when the
    intervals are counted, and its entries are left out of every check.
    An unhashable identifier takes part in no duplicate check: on a strip
    the identifier check reports it, as a gluing end the gluing loop does;
    a parity that is not a ``Parity`` member is reported with its
    gluing."""
    problems: list[str] = []

    seen_strips: set[str] = set()
    for s in atlas.strips:
        if not _hashable(s.id):
            continue
        if s.id in seen_strips:
            problems.append(f"duplicate strip id {s.id!r}")
        seen_strips.add(s.id)

    seen_intervals: set[str] = set()
    for s in atlas.strips:
        for which in (0, 1):
            if not isinstance(s.side(which), tuple):
                problems.append(f"side{which} of strip {s.id!r} is not a tuple of identifiers")
                continue
            for name in s.side(which):
                if not _hashable(name):
                    continue
                if name in seen_intervals:
                    problems.append(f"interval {name!r} appears more than once")
                seen_intervals.add(name)

    uses: dict[str, int] = {}
    for g in atlas.gluings:
        if g.a == g.b:
            problems.append(f"interval {g.a!r} glued to itself")
        for name in (g.a, g.b):
            if not _hashable(name):
                problems.append(f"identifier {name!r} is not one token of the text format")
                continue
            if name not in seen_intervals:
                problems.append(f"gluing references unknown interval {name!r}")
            uses[name] = uses.get(name, 0) + 1
        if g.parity is not Parity.INCREASING and g.parity is not Parity.DECREASING:
            problems.append(f"gluing of {g.a!r} and {g.b!r} has parity {g.parity!r}, not '+' or '-'")
    for name, count in uses.items():
        if count > 1:
            problems.append(f"interval {name!r} multiply glued")

    for s in atlas.strips:
        sides = [side for side in (s.side0, s.side1) if isinstance(side, tuple)]
        for name in (s.id, *itertools.chain(*sides)):
            if not isinstance(name, str) or "#" in name or name.split() != [name]:
                problems.append(f"identifier {name!r} is not one token of the text format")
    return problems


def build_leaf_space_located(atlas: StripedAtlas) -> LeafSpaceModel:
    """Leaf-space model with every attachment read through
    ``atlas.location`` and every point built through ``LeafPoint``."""
    point_of: dict[str, LeafPoint] = {}
    for g in atlas.gluings:
        point = LeafPoint((g.a, g.b))
        point_of[g.a] = point
        point_of[g.b] = point
    for name in atlas.free_intervals:
        point_of[name] = LeafPoint((name,))

    points = tuple(sorted(set(point_of.values())))

    attachments: dict[LeafPoint, tuple[Attachment, ...]] = {}
    for point in points:
        slots = []
        for name in point.intervals:
            strip_id, side, index = atlas.location(name)
            slots.append(Attachment(ArcEnd(strip_id, side), index))
        attachments[point] = tuple(slots)

    end_points: dict[ArcEnd, tuple[LeafPoint, ...]] = {}
    for s in atlas.strips:
        for side in (0, 1):
            end = ArcEnd(s.id, side)
            end_points[end] = tuple(point_of[name] for name in s.side(side))

    return LeafSpaceModel(
        arcs=tuple(s.id for s in atlas.strips),
        points=points,
        attachments=attachments,
        end_points=end_points,
    )


def classify_leaf_located(atlas: StripedAtlas, point: LeafPoint) -> LeafClass:
    """Leaf class from the side tuples themselves: a side filled by an
    interval equals ``(name,)``, and a same-side seam's side is the set of
    its two intervals."""
    if point.is_seam:
        a, b = point.intervals
        strip_a, side_a, _ = atlas.location(a)
        strip_b, side_b, _ = atlas.location(b)
        full_a = atlas.strip(strip_a).side(side_a) == (a,)
        full_b = atlas.strip(strip_b).side(side_b) == (b,)
        if full_a and full_b:
            return LeafClass.REGULAR
        if strip_a == strip_b and side_a == side_b:
            if set(atlas.strip(strip_a).side(side_a)) == {a, b}:
                return LeafClass.SINGULAR_NON_SPECIAL
        return LeafClass.SPECIAL

    (name,) = point.intervals
    strip_id, side, _ = atlas.location(name)
    if atlas.strip(strip_id).side(side) == (name,):
        return LeafClass.REGULAR
    return LeafClass.SPECIAL


def regular_seams_located(atlas: StripedAtlas) -> tuple[Gluing, ...]:
    """Regular seams found through ``atlas.location``, in gluing order."""

    def fills(name: str) -> bool:
        strip_id, side, _ = atlas.location(name)
        return len(atlas.strip(strip_id).side(side)) == 1

    return tuple(g for g in atlas.gluings if fills(g.a) and fills(g.b))


def classify_text(atlas: StripedAtlas) -> str:
    """``stripes classify`` output: kind, intervals and class of every point
    of the located model, in model order."""
    model = build_leaf_space_located(atlas)
    lines = []
    for point in model.points:
        name = classify_leaf(atlas, point).value
        lines.append(f"{point.kind} {' '.join(point.intervals)} {name}\n")
    return "".join(lines)


def leafspace_text(atlas: StripedAtlas, build=build_leaf_space_located) -> str:
    """Plain ``stripes leafspace`` output from a leaf-space model, the
    located one unless ``build`` is another builder: arcs with their side
    sizes, points with their attachment slots, then every point's
    Hausdorff closure from ``hcl_point``, each label rendered where it is
    printed."""
    model = build(atlas)
    lines = []
    for arc in model.arcs:
        strip = atlas.strip(arc)
        lines.append(f"arc {arc} side0={len(strip.side0)} side1={len(strip.side1)}\n")
    for point in model.points:
        slots = ",".join(a.label() for a in model.attachments[point])
        lines.append(f"point {point.label()} kind={point.kind} attach={slots}\n")
    for point in model.points:
        closure = ",".join(q.label() for q in sorted(hcl_point(model, point)))
        lines.append(f"hcl {point.label()} = {closure}\n")
    return "".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripes",
        description="combinatorial atlases of strip-glued surfaces and their leaf spaces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def with_file(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("file", help="atlas text file")
        return sub

    with_file("validate", "check atlas invariants")
    with_file("classify", "classify every boundary leaf")

    leafspace = with_file("leafspace", "describe the leaf-space model")
    leafspace.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    leafspace.add_argument("--svg", metavar="PATH", help="write an SVG rendering")

    reduce_cmd = with_file("reduce", "merge strips across regular seams")
    reduce_cmd.add_argument("-o", metavar="OUT", dest="out", help="output file")

    dual = with_file("dual", "dual graph of the atlas")
    dual.add_argument("--dot", action="store_true", help="emit DOT text")

    with_file("aut", "enumerate atlas automorphisms")
    with_file("kernel", "kernel of the induced leaf-space action")
    with_file("report", "group orders around the leaf-space action")

    iso = commands.add_parser("iso", help="search for an isomorphism")
    iso.add_argument("file", help="first atlas file")
    iso.add_argument("other", help="second atlas file")

    rand = commands.add_parser("random", help="emit a seeded random atlas")
    rand.add_argument("--strips", type=int, required=True, metavar="N")
    rand.add_argument("--max-ints", type=int, required=True, metavar="M")
    rand.add_argument("--seed", type=int, required=True, metavar="S")
    rand.add_argument("--glue-prob", type=float, default=0.75, metavar="P")
    rand.add_argument("-o", metavar="OUT", dest="out", help="output file")

    with_file("selfcheck", "run all invariant cross-checks")

    return parser


def argparse_values(argv: list[str]) -> dict | None:
    """The namespace ``build_parser`` reads from ``argv``, as a dict, or
    None where it exits with a usage error (its message is dropped)."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None
