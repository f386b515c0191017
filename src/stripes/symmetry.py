"""Combinatorial automorphisms of an atlas and their leaf-space action.

An isotopy class of foliated self-homeomorphisms of a glued strip surface
is captured combinatorially by a triple per strip: where the strip goes
(``strip_map``), whether its two sides are exchanged (``side_flip``), and
whether its leaves are traversed in reversed order (``reversal``).  The
side flip reverses the transverse direction of the strip and hence the
orientation of the corresponding arc of the leaf space; the reversal bit
reverses every leaf inside the strip and is invisible on the leaf space
except through the induced permutation of boundary leaves.

For a reduced atlas these triples realise the group of isotopy classes.
On a non-reduced atlas the enumerated group is merely combinatorial: a
rotation of a two-strip cylinder chain is a nontrivial triple although the
underlying homeomorphism is isotopic to the identity.  Operations that
carry isotopy meaning therefore work on the reduced atlas.

The leaf-space action psi is :func:`induced_leaf_map`, read off a prebuilt
leaf-space model.  The kernel computation rests on two facts: an
automorphism acting trivially on the leaf space keeps every strip and side
in place with all leaf points fixed, and its reversal bits then agree
across every gluing, hence are constant on a connected atlas.  So the
kernel is trivial or holds one more element, the all-ones reversal, which
fixes every leaf point exactly when every side lists its leaf points (one
per gluing or free interval) the same forwards and backwards.  One route,
taken by :func:`leaf_action_kernel`, :func:`homeotopy_report` and
``selfcheck``, picks the working atlas (reduced, or the canonical one-strip
atlas of an exceptional kind) and reads the kernel off the sides in
O(size), with no model and no psi; ``selfcheck`` checks both facts on the
working atlas's group.  The kernel and the report reduce first and check
connectivity after: reduction keeps the number of components, so a proper
input is checked on its reduced atlas, often far smaller, and the input's
own components are found only for a cylinder or Moebius outcome.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial

from .atlas import DisconnectedAtlasError, StripedAtlas, iter_witnesses
from .leafspace import LeafPoint, LeafSpaceModel, build_leaf_space
from .reduction import (
    SurfaceClass,
    SurfaceKind,
    canonical_exceptional_atlas,
    reduce_component,
)


@dataclass(frozen=True)
class AtlasAutomorphism:
    """A strip permutation with a side flip bit and a reversal bit per strip."""

    strip_map: dict[str, str]
    side_flip: dict[str, int]
    reversal: dict[str, int]

    def key(self):
        """Sort key: images, side flips, reversal bits, each in strip order."""
        strips = sorted(self.strip_map)
        return (
            *map(self.strip_map.__getitem__, strips),
            *map(self.side_flip.__getitem__, strips),
            *map(self.reversal.__getitem__, strips),
        )

    def __hash__(self):
        return hash(frozenset(self.strip_map.items()))

    def __repr__(self):
        return f"AtlasAutomorphism({self.format()})"

    @property
    def is_identity(self) -> bool:
        return (
            all(s == t for s, t in self.strip_map.items())
            and not any(self.side_flip.values())
            and not any(self.reversal.values())
        )

    def compose(self, other: "AtlasAutomorphism") -> "AtlasAutomorphism":
        """``self`` after ``other``: apply ``other`` first."""
        return AtlasAutomorphism(
            strip_map={
                s: self.strip_map[other.strip_map[s]] for s in other.strip_map
            },
            side_flip={
                s: other.side_flip[s] ^ self.side_flip[other.strip_map[s]]
                for s in other.strip_map
            },
            reversal={
                s: other.reversal[s] ^ self.reversal[other.strip_map[s]]
                for s in other.strip_map
            },
        )

    def inverse(self) -> "AtlasAutomorphism":
        backwards = {t: s for s, t in self.strip_map.items()}
        return AtlasAutomorphism(
            strip_map=backwards,
            side_flip={t: self.side_flip[s] for t, s in backwards.items()},
            reversal={t: self.reversal[s] for t, s in backwards.items()},
        )

    def format(self) -> str:
        """One-line rendering, strips in sorted order."""
        strips = sorted(self.strip_map)
        return " ".join(
            (
                "sigma: " + ",".join(f"{s}->{self.strip_map[s]}" for s in strips),
                "m: " + ",".join(f"{s}={self.side_flip[s]}" for s in strips),
                "r: " + ",".join(f"{s}={self.reversal[s]}" for s in strips),
            )
        )


def identity_automorphism(atlas: StripedAtlas) -> AtlasAutomorphism:
    ids = atlas.strip_ids
    return AtlasAutomorphism(
        strip_map={s: s for s in ids},
        side_flip={s: 0 for s in ids},
        reversal={s: 0 for s in ids},
    )


def all_leaf_reversal(atlas: StripedAtlas) -> AtlasAutomorphism:
    """The candidate that keeps every strip and side but reverses all leaves."""
    ids = atlas.strip_ids
    return AtlasAutomorphism(
        strip_map={s: s for s in ids},
        side_flip={s: 0 for s in ids},
        reversal={s: 1 for s in ids},
    )


def enumerate_automorphisms(atlas: StripedAtlas) -> tuple[AtlasAutomorphism, ...]:
    """Every valid automorphism, canonically sorted."""
    return tuple(
        sorted(
            (AtlasAutomorphism(*w) for w in iter_witnesses(atlas, atlas)),
            key=AtlasAutomorphism.key,
        )
    )


# ---------------------------------------------------------------------------
# Induced action on the leaf space


@dataclass(frozen=True)
class LeafMap:
    """Action of an automorphism on the leaf-space model.

    Arc ``a`` goes to ``arc_map[a]`` with orientation reversed exactly when
    the automorphism flips the sides of the underlying strip.
    """

    point_map: dict[LeafPoint, LeafPoint]
    arc_map: dict[str, str]
    arc_reversed: dict[str, int]

    def __hash__(self):
        return hash(frozenset(self.arc_map.items()))

    @property
    def is_identity(self) -> bool:
        return (
            all(p == q for p, q in self.point_map.items())
            and all(a == b for a, b in self.arc_map.items())
            and not any(self.arc_reversed.values())
        )

    def compose(self, other: "LeafMap") -> "LeafMap":
        """``self`` after ``other``."""
        return LeafMap(
            point_map={p: self.point_map[other.point_map[p]] for p in other.point_map},
            arc_map={a: self.arc_map[other.arc_map[a]] for a in other.arc_map},
            arc_reversed={
                a: other.arc_reversed[a] ^ self.arc_reversed[other.arc_map[a]]
                for a in other.arc_map
            },
        )


def induced_leaf_map(model: LeafSpaceModel, aut: AtlasAutomorphism) -> LeafMap:
    """Push an automorphism down to the leaf-space model: the action psi.

    An attachment at index i of end (s, side) lands on end
    (strip_map[s], side ^ side_flip[s]), at index i, or at len - 1 - i of
    that end when ``reversal[s]`` is set.  Raises ``ValueError`` when the
    triple does not fit the model: an end of another size, or a point whose
    attachments land on different points or on a point of another kind.
    """
    # Every end's point positions, and where the triple sends them, in arc order.
    strip_map, side_flip, reversal = aut.strip_map, aut.side_flip, aut.reversal
    ends, sizes = model.end_table
    sources: list[int] = []
    images: list[int] = []
    for arc, (end0, end1) in ends.items():
        target, flip = ends[strip_map[arc]], side_flip[arc]
        image0, image1 = target[flip], target[1 - flip]
        if len(image0) != len(end0) or len(image1) != len(end1):
            raise ValueError("automorphism does not fit the model: side sizes differ")
        if reversal[arc]:
            image0, image1 = image0[::-1], image1[::-1]
        sources += end0
        sources += end1
        images += image0
        images += image1
    landed = dict(zip(sources, images))
    points = model.points
    if list(map(landed.__getitem__, sources)) != images or [
        sizes[q] for q in images
    ] != [sizes[p] for p in sources]:
        bad = {
            p for p, q in zip(sources, images) if landed[p] != q or sizes[p] != sizes[q]
        }
        raise ValueError(
            f"automorphism does not map {points[min(bad)].label()} onto a leaf point"
        )
    return LeafMap(
        point_map=dict(zip(points, [points[landed[i]] for i in range(len(points))])),
        arc_map=dict(strip_map),
        arc_reversed=dict(side_flip),
    )


# ---------------------------------------------------------------------------
# Kernel and reports


def _require_connected(atlas: StripedAtlas) -> None:
    count = len(atlas.components)
    if count == 0:
        raise DisconnectedAtlasError("atlas has no strips")
    if count != 1:
        raise DisconnectedAtlasError("atlas disconnected - apply per component")


@dataclass(frozen=True)
class KernelResult:
    """Trivial kernel (witness None) or order two with its witness."""

    witness: AtlasAutomorphism | None

    @property
    def is_trivial(self) -> bool:
        return self.witness is None

    @property
    def order(self) -> int:
        return 1 if self.witness is None else 2

    def label(self) -> str:
        return "TRIVIAL" if self.witness is None else "Z2"


def reversal_witness(atlas: StripedAtlas) -> AtlasAutomorphism | None:
    """The all-leaf reversal fixing every leaf point, if the atlas admits one.

    Checks the single candidate with identity strip map, no side flips and
    all reversal bits set.  Gluing parities never obstruct it (each parity
    is conjugated by two reversals); the only obstruction is a side whose
    leaf points read differently backwards.
    """
    _require_connected(atlas)
    return _reversal(atlas)


def _reversal(atlas: StripedAtlas) -> AtlasAutomorphism | None:
    # ``reversal_witness`` on a connected ``atlas``.  An interval stands for
    # its leaf point: its gluing, or itself when free.
    point = atlas.gluing_of.get
    for s in atlas.strips:
        for side in (s.side0, s.side1):
            points = [point(name, name) for name in side]
            if points != points[::-1]:
                return None
    return all_leaf_reversal(atlas)


def _reduce_connected(atlas: StripedAtlas) -> SurfaceClass:
    # ``reduce_component`` of an atlas that must be connected, checked on
    # the reduced atlas when there is one (see ``leaf_action_kernel``).
    outcome = reduce_component(atlas)
    _require_connected(atlas if outcome.atlas is None else outcome.atlas)
    return outcome


def _working_atlas(
    atlas: StripedAtlas, outcome: SurfaceClass
) -> tuple[StripedAtlas, KernelResult]:
    """The atlas that carries the isotopy classes of the connected ``atlas``
    whose reduction is ``outcome``, and the kernel.

    A proper component works on its reduced atlas, whose sides give the
    kernel; an exceptional one on the canonical one-strip atlas of its kind,
    and its kernel is its own all-leaf reversal, which must exist.
    """
    if outcome.kind is SurfaceKind.PROPER:
        return outcome.atlas, KernelResult(_reversal(outcome.atlas))
    witness = reversal_witness(atlas)
    if witness is None:
        raise RuntimeError("exceptional component without a reversal")
    return canonical_exceptional_atlas(outcome.kind), KernelResult(witness)


def leaf_action_kernel(atlas: StripedAtlas) -> KernelResult:
    """Kernel of the map from surface isotopy classes to leaf-space ones.

    Requires a connected atlas.  Exceptional components (open cylinder or
    Moebius band) always carry the fibrewise reversal, which preserves
    every leaf and acts trivially on the base circle, so their kernel has
    order two.  Otherwise it has order two exactly when the all-leaf
    reversal of the reduced atlas fixes every leaf point.  O(size).

    Reduction keeps the number of components, so connectivity is checked on
    the reduced atlas; the input is checked only after a cylinder or
    Moebius outcome, which may describe one component of several.
    """
    return _working_atlas(atlas, _reduce_connected(atlas))[1]


@dataclass(frozen=True)
class HomeotopyReport:
    """Group sizes around the induced leaf-space action.

    ``leaf_model_aut_order`` counts incidence-preserving symmetries of the
    leaf-space model alone; it bounds ``image_order`` from above but is not
    claimed to equal the full symmetry group of the leaf space.
    """

    aut_order: int
    kernel: KernelResult
    image_order: int
    leaf_model_aut_order: int


def homeotopy_report(atlas: StripedAtlas) -> HomeotopyReport:
    """Order of the automorphism group, the kernel, and the image.

    Requires a connected atlas, checked as in :func:`leaf_action_kernel`.
    Works on the reduced atlas; an exceptional component is replaced by
    its canonical one-strip atlas, to which it is foliated homeomorphic.
    The group acts freely on root frames, so |Aut| counts witnesses.
    """
    working, kernel = _working_atlas(atlas, _reduce_connected(atlas))
    aut_order = sum(1 for _ in iter_witnesses(working, working))
    return HomeotopyReport(
        aut_order=aut_order,
        kernel=kernel,
        image_order=aut_order // kernel.order,
        leaf_model_aut_order=leaf_model_automorphism_count(build_leaf_space(working)),
    )


def leaf_model_automorphism_count(model: LeafSpaceModel) -> int:
    """Count incidence-preserving symmetries of a leaf-space model.

    A symmetry permutes arcs with an orientation bit each and permutes
    points so that attachment multisets correspond; side order inside an
    end is deliberately ignored.  Counts triples, the identity included.

    The arc maps with orientation bits that keep the multiset of point
    incidences form a group, counted exactly along a stabiliser chain: its
    order is the product, over the arcs in breadth-first order, of the
    number of images an arc can take while the arcs before it stay fixed.
    The arc itself, unreversed, extends by the identity; each other image
    is confirmed by a backtracking search from that arc on, pruned three
    ways: a non-root arc's image must share a point with its parent's
    image, both ends' attachment signatures must match, and a point whose
    arcs are all placed must land on an incidence still free in the target
    multiset.  Points of equal incidence are interchangeable, which
    contributes the product of their counts' factorials.
    """
    incidence = {
        point: tuple(sorted((a.end.strip, a.end.side) for a in model.attachments[point]))
        for point in model.points
    }
    target = Counter(incidence.values())
    signature: dict[tuple[str, int], list] = {
        (arc, side): [] for arc in model.arcs for side in (0, 1)
    }
    neighbours: dict[str, set[str]] = {arc: set() for arc in model.arcs}
    for key in incidence.values():
        for end in set(key):
            signature[end].append((len(key), key.count(end), target[key]))
        for strip, _ in key:
            neighbours[strip].update(s for s, _ in key)
    for slots in signature.values():
        slots.sort()

    # Breadth-first arc order; a point is checked once its last arc is placed.
    order, parent = [], {}
    for root in model.arcs:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for arc in queue:
            for other in sorted(neighbours[arc]):
                if other not in parent:
                    parent[other] = arc
                    queue.append(other)
        order += queue
    position = {arc: i for i, arc in enumerate(order)}
    completed: list[list[tuple]] = [[] for _ in order]
    for key in incidence.values():
        completed[max(position[s] for s, _ in key)].append(key)

    def options(arc: str, image: dict, used: set) -> list[tuple[str, int]]:
        pool = model.arcs if parent[arc] is None else neighbours[image[parent[arc]][0]]
        return [
            (other, bit)
            for other in pool
            if other not in used
            for bit in (0, 1)
            if signature[(arc, 0)] == signature[(other, bit)]
            and signature[(arc, 1)] == signature[(other, 1 - bit)]
        ]

    def extends(start: int, choice: tuple[str, int]) -> bool:
        # Depth-first without recursion from ``start``, the arcs before it
        # fixed: choices left per depth, and each choice's point images, to undo it.
        image = {arc: (arc, 0) for arc in order[:start]}
        used = set(image)
        placed = Counter(key for keys in completed[:start] for key in keys)
        choices, trail = [[choice]], []
        while choices:
            depth = start + len(choices) - 1
            arc = order[depth]
            if start + len(trail) > depth:
                placed.subtract(trail.pop())
                used.discard(image.pop(arc)[0])
            if not choices[-1]:
                choices.pop()
                continue
            image[arc] = choices[-1].pop()
            used.add(image[arc][0])
            landed = [
                tuple(sorted((image[s][0], side ^ image[s][1]) for s, side in key))
                for key in completed[depth]
            ]
            placed.update(landed)
            trail.append(landed)
            if any(placed[key] > target[key] for key in landed):
                continue
            if depth + 1 == len(order):
                return True
            choices.append(options(order[depth + 1], image, used))
        return False

    count = 1
    for depth, arc in enumerate(order):
        fixed = {a: (a, 0) for a in order[:depth]}
        others = [c for c in options(arc, fixed, set(fixed)) if c != (arc, 0)]
        count *= 1 + sum(extends(depth, choice) for choice in others)
    for size in target.values():
        count *= factorial(size)
    return count
