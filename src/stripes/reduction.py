"""Reduction of atlases by merging strips across regular seams.

A seam both of whose intervals fill their sides bounds a trivially
foliated collar, so the two strips it joins can be replaced by a single
strip.  Merging keeps every side's intervals, so the regular seams are
found once; as a strip has at most one regular seam per side, they form
paths and cycles of strips, and each is walked once.  A path becomes one
strip: the result is a reduced atlas (every surviving seam is singular).
A cycle uses up every side of its strips, so it is the whole connected
surface: an open cylinder when its seam parities multiply to increasing,
an open Moebius band otherwise, and it has no reduced atlas at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .atlas import Gluing, Parity, Strip, StripedAtlas, component_atlases


class SurfaceKind(Enum):
    PROPER = "proper"
    OPEN_CYLINDER = "cylinder"
    OPEN_MOEBIUS_BAND = "moebius"


@dataclass(frozen=True)
class SurfaceClass:
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


def _walk(links: dict[str, list[tuple[Gluing, str]]], start: str):
    """Strips and seams met from ``start`` up to a chain end or back at it."""
    path, walked = [start], []
    while True:
        steps = [(g, o) for g, o in links[path[-1]] if not walked or g != walked[-1]]
        if not steps:
            return path, walked
        seam, other = steps[0]
        walked.append(seam)
        if other == start:
            return path, walked
        path.append(other)


def reduce_component(atlas: StripedAtlas) -> SurfaceClass:
    """Reduce one connected atlas to a SurfaceClass in one linear pass.

    The result is that of merging the seams of each path one at a time in
    gluing order, keeping the lesser strip id and mirroring (reversing
    both side orders of) the other strip when the seam is decreasing.  So
    the least-id strip survives in place, a strip is mirrored when the
    seams from the least-id one multiply to decreasing, and side 0 is the
    outer side on the least-id strip's side of the path's last seam.  An
    atlas with no regular seam is its own reduction, returned as is.

    Merges stay inside a component, so on a disconnected atlas a PROPER
    outcome is the union of its components' reductions, with as many
    components as the input; a cylinder or Moebius outcome says only that
    some component is one.
    """
    seams = regular_seams(atlas)
    if not seams:
        return SurfaceClass(SurfaceKind.PROPER, atlas)
    # Seams are keyed by their end ``a``, which names one gluing in a valid
    # atlas and hashes as a plain string.  Both ends of a seam are alone on
    # their sides, so those sides give every seam end's strip and side.
    seam_rank = {g.a: i for i, g in enumerate(seams)}
    alone: dict[str, tuple[str, int]] = {}
    for s in atlas.strips:
        if len(s.side0) == 1:
            alone[s.side0[0]] = s.id, 0
        if len(s.side1) == 1:
            alone[s.side1[0]] = s.id, 1
    links: dict[str, list[tuple[Gluing, str]]] = {}
    for g in seams:
        a, b = alone[g.a][0], alone[g.b][0]
        links.setdefault(a, []).append((g, b))
        links.setdefault(b, []).append((g, a))

    mirror: dict[str, int] = {}
    replaced: dict[str, Strip | None] = {}
    mirrored: set[str] = set()  # the intervals kept on mirrored strips
    for end, here in links.items():
        if len(here) != 1 or end in mirror:
            continue
        path, walked = _walk(links, end)
        bits = [0]
        for g in walked:
            bits.append(bits[-1] ^ (g.parity is Parity.DECREASING))
        root = path.index(min(path))
        mirror.update((sid, bit ^ bits[root]) for sid, bit in zip(path, bits))
        outer = []
        for sid, g in ((path[0], walked[0]), (path[-1], walked[-1])):
            seam_sid, seam_side = alone[g.a]
            if seam_sid != sid:
                seam_side = alone[g.b][1]
            side = atlas.strip(sid).side(1 - seam_side)
            if mirror[sid]:
                mirrored.update(side)
                side = side[::-1]
            outer.append(side)
        if root > max(range(len(walked)), key=lambda i: seam_rank[walked[i].a]):
            outer.reverse()
        replaced.update(dict.fromkeys(path))
        replaced[path[root]] = Strip(path[root], *outer)

    on_cycle = next((sid for sid in links if sid not in mirror), None)
    if on_cycle is not None:
        twist = sum(g.parity is Parity.DECREASING for g in _walk(links, on_cycle)[1])
        kind = SurfaceKind.OPEN_MOEBIUS_BAND if twist % 2 else SurfaceKind.OPEN_CYLINDER
        return SurfaceClass(kind)

    # A path's intervals other than its seams' ends lie on its end strips'
    # outer sides, so a kept gluing, normalised already, flips once per end
    # on the outer side of a mirrored strip.
    strips = tuple(t for t in (replaced.get(s.id, s) for s in atlas.strips) if t)
    gluings = tuple(
        tuple.__new__(Gluing, (g.a, g.b, g.parity.flipped()))
        if (g.a in mirrored) != (g.b in mirrored)
        else g
        for g in atlas.gluings
        if g.a not in seam_rank
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
