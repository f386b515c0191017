"""Reduction of atlases by merging strips across regular seams.

A seam both of whose intervals fill their sides bounds a trivially
foliated collar, so the two strips it joins can be replaced by a single
strip.  Merging keeps every side's intervals, so the regular seams are
found once; as a strip has at most one regular seam per side, they form
paths and cycles of strips.  Each is walked once, leaving every strip by
the side it did not enter by, so each seam is crossed once.  A path
becomes one strip: the result is a reduced atlas (every surviving seam
is singular).  A cycle uses up every side of its strips, so it is the
whole connected surface: an open cylinder when its seam parities
multiply to increasing, an open Moebius band otherwise, and it has no
reduced atlas at all.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .atlas import Gluing, Parity, Strip, StripedAtlas, component_atlases


class SurfaceKind(Enum):
    PROPER = "proper"
    OPEN_CYLINDER = "cylinder"
    OPEN_MOEBIUS_BAND = "moebius"


class SurfaceClass(NamedTuple):
    """Outcome of reducing one connected component.

    ``atlas`` carries the reduced atlas for PROPER and is None for the two
    exceptional kinds.
    """

    kind: SurfaceKind
    atlas: StripedAtlas | None = None


def canonical_exceptional_atlas(kind: SurfaceKind) -> StripedAtlas:
    """The one-strip atlas of an exceptional surface kind."""
    if kind is SurfaceKind.OPEN_CYLINDER:
        parity = Parity.INCREASING
    elif kind is SurfaceKind.OPEN_MOEBIUS_BAND:
        parity = Parity.DECREASING
    else:
        raise ValueError("no canonical atlas for the proper kind")
    return StripedAtlas(
        (Strip("S", ("a",), ("b",)),), (Gluing("a", "b", parity),)
    )


def regular_seams(atlas: StripedAtlas) -> tuple[Gluing, ...]:
    """Seams both of whose intervals fill their sides (REGULAR), in order;
    the atlas must be valid, so that an interval alone on a side fills it."""
    alone = {side[0] for s in atlas.strips for side in (s.side0, s.side1) if len(side) == 1}
    return tuple([g for g in atlas.gluings if g.a in alone and g.b in alone])


def is_reduced(atlas: StripedAtlas) -> bool:
    """True when no seam is regular (free intervals are always boundary)."""
    return not regular_seams(atlas)


def reduce_component(atlas: StripedAtlas) -> SurfaceClass:
    """Reduce one connected atlas to a SurfaceClass in one linear pass.

    The result is that of merging the seams of each path one at a time in
    gluing order, keeping the lesser strip id and mirroring (reversing
    both side orders of) the other strip when the seam is decreasing.  So
    the least-id strip survives in place, a strip is mirrored when the
    seams from the least-id one multiply to decreasing, and side 0 is the
    outer side on the least-id strip's side of the path's last seam in
    gluing order.  One walk from an end of the path finds all three,
    leaving each strip by the side it did not enter by and so crossing
    each seam once: it keeps the least id, the running parity bit and
    whether the least id comes after the last seam met so far.  An atlas
    with no regular seam is its own reduction, returned as is.

    Merges stay inside a component, so on a disconnected atlas a PROPER
    outcome is the union of its components' reductions, with as many
    components as the input; a cylinder or Moebius outcome says only that
    some component is one.
    """
    seams = regular_seams(atlas)
    if not seams:
        return SurfaceClass(SurfaceKind.PROPER, atlas)
    # Both ends of a seam are alone on their sides, which give each seam
    # end's strip and side.  exits[side][strip id] is the strip across that
    # side's seam, the side it is entered by, the seam's rank and its bit.
    alone: dict[str, tuple[Strip, int]] = {}
    for s in atlas.strips:
        _, side0, side1 = s
        if len(side0) == 1:
            alone[side0[0]] = s, 0
        if len(side1) == 1:
            alone[side1[0]] = s, 1
    exits: tuple[dict, dict] = ({}, {})
    decreasing = Parity.DECREASING
    for rank, g in enumerate(seams):
        (a, side_a), (b, side_b) = alone[g.a], alone[g.b]
        bit = g.parity is decreasing
        exits[side_a][a.id] = b, side_b, rank, bit
        exits[side_b][b.id] = a, side_a, rank, bit

    replaced: dict[str, Strip | None] = {}
    mirrored: set[str] = set()  # the intervals kept on mirrored strips
    ends = exits[0].keys() ^ exits[1].keys()
    for end in ends:
        if end in replaced:
            continue
        # The end strip, read back across its one seam, is entered by its outer side.
        seam_side = end in exits[1]
        far, far_side = exits[seam_side][end][:2]
        first = here = exits[far_side][far.id][0]
        entered, root, bit, root_bit, top, after = 1 - seam_side, end, 0, 0, -1, False
        replaced[end] = None
        while step := exits[1 - entered].get(here.id):
            here, entered, rank, seam_bit = step
            replaced[here.id] = None
            bit ^= seam_bit
            if rank > top:
                top, after = rank, False
            if here.id < root:
                root, root_bit, after = here.id, bit, True
        outer = []  # the end strips' outer sides; side k is a strip's field 1 + k
        for names, flip in ((first[2 - seam_side], root_bit), (here[2 - entered], bit ^ root_bit)):
            if flip:
                mirrored.update(names)
                names = names[::-1]
            outer.append(names)
        replaced[root] = Strip(root, *(outer[::-1] if after else outer))

    # A path of k strips holds k - 1 seams: seams left over lie on cycles.
    if len(replaced) - len(ends) // 2 < len(seams):
        start, side = alone[next(g.a for g in seams if alone[g.a][0].id not in replaced)]
        here, entered, _, twist = exits[side][start.id]
        while here is not start:
            here, entered, _, seam_bit = exits[1 - entered][here.id]
            twist ^= seam_bit
        kind = SurfaceKind.OPEN_MOEBIUS_BAND if twist else SurfaceKind.OPEN_CYLINDER
        return SurfaceClass(kind)

    # A path's intervals other than its seams' ends lie on its end strips'
    # outer sides, so a kept gluing, normalised already, flips once per end
    # on the outer side of a mirrored strip.
    strips = tuple(filter(None, [replaced.get(s.id, s) for s in atlas.strips]))
    gluings = tuple(
        tuple.__new__(Gluing, (g.a, g.b, g.parity.flipped()))
        if (g.a in mirrored) != (g.b in mirrored)
        else g
        for g in atlas.gluings
        if g.a not in alone or g.b not in alone
    )
    return SurfaceClass(SurfaceKind.PROPER, StripedAtlas(strips, gluings))


def reduce_atlas(atlas: StripedAtlas) -> tuple[SurfaceClass, ...]:
    """Reduce every connected component, in order of first appearance.

    The whole atlas is reduced first: a PROPER outcome with one component
    is the answer, found without indexing the input.  Otherwise (a
    disconnected atlas, or a cylinder or Moebius band somewhere) each
    component is reduced on its own, one more linear pass.
    """
    whole = reduce_component(atlas)
    if whole.kind is SurfaceKind.PROPER and len(whole.atlas.components) == 1:
        return (whole,)
    return tuple(reduce_component(sub) for sub in component_atlases(atlas))
