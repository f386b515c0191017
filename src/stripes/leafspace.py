"""Combinatorial model of the leaf space of a glued strip surface.

Collapsing every leaf of the glued surface to a point yields a T1 but
generally non-Hausdorff one-dimensional space.  Its combinatorial model
consists of

* one open *arc* per strip (the interior leaves, ordered by the strip's
  second coordinate, so end 0 faces side 0 and end 1 faces side 1), and
* one *leaf point* per gluing (a seam) or free interval (a boundary leaf),
  attached to the arc ends where its constituent intervals sit.

Two leaf points cannot be separated by open sets exactly when they attach
to a common arc end: any saturated neighbourhood of one sweeps interior
leaves whose closure meets every interval on that end.  That rule is what
:func:`hcl_point` implements, and :func:`leaf_point_table` on positions
(plain ``stripes leafspace`` builds no model); :func:`hcl_bruteforce`
recomputes Hausdorff closures from first principles on a finite
discretisation so the rule is validated rather than trusted:
:func:`sampled_space` builds the finite space, and the closure of a point
is the meet of the closures of its basic neighbourhoods in it.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .atlas import StripedAtlas


class ArcEnd(NamedTuple):
    """One end of an arc: ``side`` 0 or 1 of the strip the arc came from."""

    strip: str
    side: int

    def label(self) -> str:
        return f"{self.strip}.{self.side}"


class Attachment(NamedTuple):
    """A slot where a leaf point meets an arc end, at a position in the side."""

    end: ArcEnd
    index: int

    def label(self) -> str:
        return f"{self.end.label()}[{self.index}]"


class _LeafPointFields(NamedTuple):
    intervals: tuple[str, ...]


class LeafPoint(_LeafPointFields):
    """A boundary leaf: a seam (two intervals) or a free interval (one)."""

    __slots__ = ()

    def __new__(cls, intervals: tuple[str, ...]):
        return tuple.__new__(cls, (tuple(sorted(intervals)),))

    @property
    def is_seam(self) -> bool:
        return self.kind == "seam"

    @property
    def kind(self) -> str:
        return "seam" if len(self.intervals) == 2 else "free"

    def label(self) -> str:
        return "{" + ",".join(self.intervals) + "}"


class LeafClass(Enum):
    """How a boundary leaf sits in the surface.

    REGULAR leaves have a trivially foliated closed collar.  Among the
    non-regular ones, SPECIAL leaves are those whose Hausdorff closure is
    larger than the leaf itself; SINGULAR_NON_SPECIAL is the remaining
    case of two intervals filling one side, which is Hausdorff-separated
    but sits on the leaf-space boundary.
    """

    REGULAR = "Regular"
    SINGULAR_NON_SPECIAL = "SingularNonSpecial"
    SPECIAL = "Special"


# Members bound once: reading one off its class costs several attribute reads.
_REGULAR, _SPECIAL = LeafClass.REGULAR, LeafClass.SPECIAL
_SINGULAR_NON_SPECIAL = LeafClass.SINGULAR_NON_SPECIAL


class _LeafSpaceModelFields(NamedTuple):
    arcs: tuple[str, ...]
    points: tuple[LeafPoint, ...]
    attachments: dict[LeafPoint, tuple[Attachment, ...]]
    end_points: dict[ArcEnd, tuple[LeafPoint, ...]]


class LeafSpaceModel(_LeafSpaceModelFields):
    """Arcs, leaf points, and their ordered end attachments.

    ``end_points`` lists, for every arc end, the leaf point of each interval
    of that side in side order; a seam with both intervals on one end
    appears there twice.  Treated as immutable after construction.
    """

    def ends_of(self, point: LeafPoint) -> tuple[ArcEnd, ...]:
        """Distinct arc ends a point attaches to, in attachment order."""
        return tuple(dict.fromkeys(a.end for a in self.attachments[point]))

    @cached_property
    def end_table(self) -> tuple[dict[str, tuple[tuple[int, ...], ...]], tuple[int, ...]]:
        """Read-only index by position in ``points``: arc -> the positions of
        the points at its end 0 and at its end 1; and every point's number
        of attachments."""
        position = {p: i for i, p in enumerate(self.points)}.__getitem__
        ends = {
            arc: tuple(tuple(map(position, self.end_points[(arc, side)])) for side in (0, 1))
            for arc in self.arcs
        }
        return ends, tuple([len(self.attachments[p]) for p in self.points])


def leaf_points(atlas: StripedAtlas) -> tuple[LeafPoint, ...]:
    """The points of ``build_leaf_space(atlas).points``, read straight off
    a valid atlas: one seam per gluing and one free point per interval no
    gluing names, sorted.  No arcs, attachments or end lists are built, so
    a caller that needs only the points, such as ``stripes classify``, pays
    one pass over the intervals and a sort of plain tuples."""
    keys = [g[:2] for g in atlas.gluings]  # normalised, so already sorted pairs
    glued = set()
    for a, b in keys:
        glued.add(a)
        glued.add(b)
    keys += [(name,) for s in atlas.strips for name in s.side0 + s.side1 if name not in glued]
    keys.sort()
    new = tuple.__new__
    return tuple([new(LeafPoint, (key,)) for key in keys])


def leaf_point_table(atlas: StripedAtlas) -> tuple[tuple[LeafPoint, ...], list, list]:
    """What plain ``stripes leafspace`` prints, read off a valid atlas in one
    pass with no model: the points of :func:`leaf_points`, each point's
    slots ``(strip, side, index)`` in the order of its intervals, and each
    point's closure as sorted positions in the points: by the rule of
    :func:`hcl_point`, the union of the positions on the point's ends."""
    points = leaf_points(atlas)
    position = {name: i for i, point in enumerate(points) for name in point[0]}
    slot: dict[str, tuple[str, int, int]] = {}
    on_end: dict[str, list[int]] = {}  # interval -> the positions on its end
    for s in atlas.strips:
        for side, names in ((0, s.side0), (1, s.side1)):
            here = [position[name] for name in names]
            for index, name in enumerate(names):
                slot[name] = (s.id, side, index)
                on_end[name] = here
    slots = [[slot[name] for name in point[0]] for point in points]
    closures = [sorted(set().union(*[on_end[name] for name in point[0]])) for point in points]
    return points, slots, closures


def build_leaf_space(atlas: StripedAtlas) -> LeafSpaceModel:
    """Quotient model of an atlas, which must be valid (see ``validate``).

    Arcs biject with strips; points biject with gluings plus free
    intervals; attachment order is inherited from side order.
    """
    # The points come from leaf_points, so the point set has one definition.
    new = tuple.__new__
    points = leaf_points(atlas)
    point_of = {name: point for point in points for name in point[0]}
    attachment_of: dict[str, Attachment] = {}
    end_points: dict[ArcEnd, tuple[LeafPoint, ...]] = {}
    for s in atlas.strips:
        for side, names in ((0, s.side0), (1, s.side1)):
            end = new(ArcEnd, (s.id, side))
            for index, name in enumerate(names):
                attachment_of[name] = new(Attachment, (end, index))
            end_points[end] = tuple([point_of[name] for name in names])
    return LeafSpaceModel(
        arcs=tuple([s.id for s in atlas.strips]),
        points=points,
        attachments={p: tuple([attachment_of[n] for n in p.intervals]) for p in points},
        end_points=end_points,
    )


def hcl_point(model: LeafSpaceModel, point: LeafPoint) -> frozenset[LeafPoint]:
    """Hausdorff closure of a leaf point, restricted to leaf points.

    Everything attached to an arc end that ``point`` attaches to; always
    contains the point itself.
    """
    out: set[LeafPoint] = {point}
    for attachment in model.attachments[point]:
        out.update(model.end_points[attachment.end])
    return frozenset(out)


def special_points(model: LeafSpaceModel) -> frozenset[LeafPoint]:
    """Points whose Hausdorff closure is larger than themselves."""
    return frozenset(p for p in model.points if hcl_point(model, p) != {p})


def boundary_points(model: LeafSpaceModel) -> frozenset[LeafPoint]:
    """Points approached from one arc end only (local model ``[0,1)``).

    Free intervals and same-end seams qualify; a seam attached to two
    distinct ends is an interior point of the leaf space.
    """
    return frozenset(p for p in model.points if len(model.ends_of(p)) == 1)


def classify_leaf(atlas: StripedAtlas, point: LeafPoint) -> LeafClass:
    """Classify a boundary leaf from the side patterns of its intervals.

    A seam is REGULAR when each of its intervals fills its whole side,
    SINGULAR_NON_SPECIAL when its two intervals together fill one single
    side, and SPECIAL otherwise.  A free interval is REGULAR when it fills
    its side and SPECIAL otherwise; it is never SINGULAR_NON_SPECIAL.
    """
    # A side's intervals are field 1 + side of its strip.
    locations, strips = atlas.locations, atlas.strips_by_id
    intervals = point[0]
    if len(intervals) == 2:
        a, b = intervals
        strip_a, side_a, _ = locations[a]
        strip_b, side_b, _ = locations[b]
        names_a = strips[strip_a][1 + side_a]
        if len(names_a) == 1 and len(strips[strip_b][1 + side_b]) == 1:
            return _REGULAR
        if strip_a == strip_b and side_a == side_b and len(names_a) == 2:
            return _SINGULAR_NON_SPECIAL
        return _SPECIAL

    strip_id, side, _ = locations[intervals[0]]
    if len(strips[strip_id][1 + side]) == 1:
        return _REGULAR
    return _SPECIAL


# ---------------------------------------------------------------------------
# Finite discretisation and the first-principles Hausdorff-closure oracle


class Sample(NamedTuple):
    """An interior sample near an arc end; depth k is closest to the end."""

    strip: str
    side: int
    depth: int

    def label(self) -> str:
        return f"y({self.strip}.{self.side}.{self.depth})"


class _FiniteBasisSpaceFields(NamedTuple):
    ground: frozenset
    basis: tuple[frozenset, ...]


class FiniteBasisSpace(_FiniteBasisSpaceFields):
    """A finite topological space presented by a basis of open sets.

    Basic sets are indexed by their position in ``basis``; every ground
    point keeps the indices of the basics that contain it.
    """

    @cached_property
    def _index(self) -> tuple[dict, frozenset]:
        # Ground point -> the indices of the basics holding it; the points in none.
        indices: dict = {x: [] for x in self.ground}
        for i, basic in enumerate(self.basis):
            for x in basic:
                indices[x].append(i)
        return indices, frozenset(x for x, found in indices.items() if not found)

    def neighbourhoods(self, x) -> tuple[frozenset, ...]:
        """All basic open sets containing ``x``."""
        return tuple(map(self.basis.__getitem__, self._index[0][x]))

    def closure(self, subset: frozenset) -> frozenset:
        """Points every basic neighbourhood of which meets ``subset``: those
        whose basic indices all lie among the indices of the basics meeting
        it, and vacuously the points with no basic."""
        indices, unbased = self._index
        meeting: set[int] = set()
        for y in subset:
            meeting.update(indices.get(y, ()))
        candidates = set().union(*map(self.basis.__getitem__, meeting))
        return unbased | frozenset(
            x for x in candidates if meeting.issuperset(indices[x])
        )


def sampled_space(model: LeafSpaceModel, k: int) -> FiniteBasisSpace:
    """Discretise a leaf-space model with ``k`` interior samples per end region.

    Ground set: the leaf points plus, for every arc end, samples at depths
    1..k (depth k closest to the end).  Basis: every sample is open as a
    singleton; a leaf point ``p`` gets, for each depth ``j``, the set of
    ``p`` together with the depth >= j tails of **all** its attached ends.
    Tails are shared between points on a common end, which is what makes
    the discretised closures reproduce :func:`hcl_point` on leaf points.
    """
    if k < 1:
        raise ValueError("sample count k must be >= 1")

    new, depths = tuple.__new__, range(1, k + 1)
    samples = {
        end: tuple([new(Sample, (end[0], end[1], depth)) for depth in depths])
        for end in model.end_points
    }

    ground: set = set(model.points)
    basis: list[frozenset] = []
    for per_end in samples.values():
        ground.update(per_end)
        basis += [frozenset((sample,)) for sample in per_end]

    for point in model.points:
        ends = [samples[a.end] for a in model.attachments[point]]
        for j in range(k):
            tail: set = {point}
            for per_end in ends:
                tail.update(per_end[j:])
            basis.append(frozenset(tail))

    return FiniteBasisSpace(frozenset(ground), tuple(basis))


def hcl_bruteforce(space: FiniteBasisSpace, x) -> frozenset:
    """Hausdorff closure from the definition: meet of closures of all
    basic neighbourhoods of ``x``, samples included.  Each closure reads
    only the basics meeting the neighbourhood (see ``closure``)."""
    neighbourhoods = space.neighbourhoods(x)
    if not neighbourhoods:
        raise ValueError(f"{x!r} has no basic neighbourhood")
    result: frozenset | None = None
    for basic in neighbourhoods:
        closed = space.closure(basic)
        result = closed if result is None else result & closed
    assert result is not None
    return result
