"""Combinatorial automorphisms of an atlas and their leaf-space action.

An isotopy class of foliated self-homeomorphisms of a glued strip surface
is captured combinatorially by a triple per strip: where the strip goes
(``strip_map``), whether its two sides are exchanged (``side_flip``), and
whether its leaves are traversed in reversed order (``reversal``).  The
side flip reverses the transverse direction of the strip and hence the
orientation of the corresponding arc of the leaf space; the reversal bit
reverses every leaf inside the strip and is invisible on the leaf space
except through the induced permutation of boundary leaves.  Both the
automorphisms and their leaf maps are held as position codes, one tuple
of ints each, laid out on :class:`AtlasAutomorphism`; the dicts are views.

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
per gluing or free interval) the same forwards and backwards.  One route
for every kind, taken by :func:`leaf_action_kernel`,
:func:`homeotopy_report` and ``selfcheck``, picks the working atlas
(reduced, or the canonical one-strip atlas of an exceptional kind) and
reads the kernel off its sides in O(size), with no model and no psi; on
the canonical atlas the reversal always exists.  ``selfcheck`` checks
both facts on the working atlas's group.  The kernel and the report
reduce first and check connectivity after: reduction keeps the number of
components, so a proper input is checked on its reduced atlas, often far
smaller, and the input's own components are found only for a cylinder or
Moebius outcome.

``report``'s two group orders are counted by orbits, not element by
element.  |Aut| is the size of the reference root frame's orbit
(:func:`~stripes.atlas.automorphism_order`): the group acts freely on root
frames, and a frame in the orbit of one already decided is not walked.
The leaf-model order is a product along a stabiliser chain
(:func:`leaf_model_automorphism_count`), and an option in the orbit of one
already decided, under the symmetries found so far, is not searched.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import NamedTuple

from .atlas import (
    DisconnectedAtlasError,
    StripedAtlas,
    _Partition,
    automorphism_order,
    iter_witnesses,
)
from .leafspace import LeafPoint, LeafSpaceModel, build_leaf_space
from .reduction import SurfaceClass, canonical_exceptional_atlas, reduce_component


class _Coded:
    """A map between two tuples of labels held as one position code, with
    entry i ``4 * j + bits`` when source label i goes to target label j
    (the layout is on :class:`AtlasAutomorphism`).  ``compose`` picks
    entries out of a table of ``self``, built on first use and kept: at
    ``4 * j + b`` it lists entry j with its bits xored by b."""

    __slots__ = ("_source", "_target", "_code", "_table")

    @classmethod
    def _of(cls, source, target, code: tuple[int, ...]):
        element = object.__new__(cls)
        element._source, element._target, element._code = source, target, code
        return element

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._code == other._code
            and self._source == other._source
            and self._target == other._target
        )

    def __hash__(self):
        return hash(self._code)

    @property
    def is_identity(self) -> bool:
        code = self._code
        return code == tuple(range(0, 4 * len(code), 4)) and self._source == self._target

    def compose(self, other):
        """``self`` after ``other``: apply ``other`` first."""
        if other._target != self._source:
            raise ValueError("maps do not compose: other's target is not self's source")
        try:
            table = self._table
        except AttributeError:
            table = self._table = _table(self._code)
        return self._of(other._source, self._target, tuple(map(table.__getitem__, other._code)))

    def inverse(self):
        code = [0] * len(self._code)
        for i, entry in enumerate(self._code):
            code[entry >> 2] = 4 * i + (entry & 3)
        return self._of(self._target, self._source, tuple(code))


def _table(code: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([entry ^ bits for entry in code for bits in (0, 1, 2, 3)])


class AtlasAutomorphism(_Coded):
    """A strip permutation with a side flip bit and a reversal bit per strip.

    Held as one position code over the sorted strip ids: entry i is
    ``4 * j + 2 * f + r`` when strip i goes to strip j with side flip f
    and reversal r.  ``strip_map``, ``side_flip`` and ``reversal`` are
    read-only views, dicts built from the code on each read, and the
    constructor takes those three dicts.  A witness between two atlases
    maps the source's sorted ids onto the target's.
    """

    __slots__ = ()

    def __init__(self, strip_map: dict, side_flip: dict, reversal: dict):
        source, target = tuple(sorted(strip_map)), tuple(sorted(set(strip_map.values())))
        self._source, self._target = source, source if target == source else target
        position = {s: 4 * j for j, s in enumerate(target)}
        self._code = _encode(source, position, strip_map, side_flip, reversal)

    @property
    def strip_map(self) -> dict[str, str]:
        return dict(zip(self._source, [self._target[e >> 2] for e in self._code]))

    @property
    def side_flip(self) -> dict[str, int]:
        return dict(zip(self._source, [e >> 1 & 1 for e in self._code]))

    @property
    def reversal(self) -> dict[str, int]:
        return dict(zip(self._source, [e & 1 for e in self._code]))

    def key(self):
        """Sort key: images, side flips, reversal bits, each in strip order."""
        code = self._code
        return (*[e >> 2 for e in code], *[e >> 1 & 1 for e in code], *[e & 1 for e in code])

    def __repr__(self):
        return f"AtlasAutomorphism({self.format()})"

    def format(self) -> str:
        """One-line rendering, strips in sorted order."""
        source, target, code = self._source, self._target, self._code
        return (
            "sigma: " + ",".join([f"{s}->{target[e >> 2]}" for s, e in zip(source, code)])
            + " m: " + ",".join([f"{s}={e >> 1 & 1}" for s, e in zip(source, code)])
            + " r: " + ",".join([f"{s}={e & 1}" for s, e in zip(source, code)])
        )


def _encode(source, position, strip_map, side_flip, reversal) -> tuple[int, ...]:
    # ``position`` gives 4 * j for the image strip j.
    return tuple([position[strip_map[s]] + 2 * side_flip[s] + reversal[s] for s in source])


def identity_automorphism(atlas: StripedAtlas) -> AtlasAutomorphism:
    ids = tuple(sorted(atlas.strip_ids))
    return AtlasAutomorphism._of(ids, ids, tuple(range(0, 4 * len(ids), 4)))


def all_leaf_reversal(atlas: StripedAtlas) -> AtlasAutomorphism:
    """The candidate that keeps every strip and side but reverses all leaves."""
    ids = tuple(sorted(atlas.strip_ids))
    return AtlasAutomorphism._of(ids, ids, tuple(range(1, 4 * len(ids), 4)))


def enumerate_automorphisms(atlas: StripedAtlas) -> tuple[AtlasAutomorphism, ...]:
    """Every valid automorphism, canonically sorted; all share one id tuple."""
    ids = tuple(sorted(atlas.strip_ids))
    position = {s: 4 * j for j, s in enumerate(ids)}
    group = [
        AtlasAutomorphism._of(ids, ids, _encode(ids, position, *witness))
        for witness in iter_witnesses(atlas, atlas)
    ]
    group.sort(key=AtlasAutomorphism.key)
    return tuple(group)


# ---------------------------------------------------------------------------
# Induced action on the leaf space


class LeafMap(_Coded):
    """Action of an automorphism on the leaf-space model.

    Arc ``a`` goes to ``arc_map[a]`` with orientation reversed exactly when
    the automorphism flips the sides of the underlying strip.  The code
    runs over the model's points, then its arcs in sorted order, labelled
    by the pair of the two tuples: a point's bits are 0 and an arc's low
    bit is its reversal.  ``point_map``, ``arc_map`` and ``arc_reversed``
    are read-only views, and the constructor takes those three dicts.
    """

    __slots__ = ()

    def __init__(self, point_map: dict, arc_map: dict, arc_reversed: dict):
        points, arcs = labels = tuple(sorted(point_map)), tuple(sorted(arc_map))
        position = {x: 4 * i for i, x in enumerate((*points, *arcs))}
        self._source = self._target = labels
        self._code = (
            *[position[point_map[p]] for p in points],
            *[position[arc_map[a]] + arc_reversed[a] for a in arcs],
        )

    @property
    def point_map(self) -> dict[LeafPoint, LeafPoint]:
        points = self._source[0]
        return dict(zip(points, [points[e >> 2] for e in self._code[: len(points)]]))

    @property
    def arc_map(self) -> dict[str, str]:
        points, arcs = self._source
        return dict(zip(arcs, [arcs[(e >> 2) - len(points)] for e in self._code[len(points) :]]))

    @property
    def arc_reversed(self) -> dict[str, int]:
        points, arcs = self._source
        return dict(zip(arcs, [e & 1 for e in self._code[len(points) :]]))

    def __repr__(self):
        return f"LeafMap({self.point_map!r}, {self.arc_map!r}, {self.arc_reversed!r})"


def induced_leaf_map(model: LeafSpaceModel, aut: AtlasAutomorphism) -> LeafMap:
    """Push an automorphism down to the leaf-space model: the action psi.

    An attachment at index i of end (s, side) lands on end
    (strip_map[s], side ^ side_flip[s]), at index i, or at len - 1 - i of
    that end when ``reversal[s]`` is set.  Raises ``ValueError`` when the
    triple does not fit the model: strips that are not the model's arcs, an
    end of another size, or a point whose attachments land on different
    points or on a point of another kind.
    """
    # Every end's point positions, and where the triple sends them, in strip
    # order.  The strips are distinct, so they are the model's arcs when
    # they are as many and each is found.
    strips, targets, code = aut._source, aut._target, aut._code
    ends, sizes = model.end_table
    misfit = "automorphism does not fit the model: its strips are not the model's arcs"
    if len(strips) != len(ends):
        raise ValueError(misfit)
    sources: list[int] = []
    images: list[int] = []
    for arc, entry in zip(strips, code):
        try:
            (end0, end1), target = ends[arc], ends[targets[entry >> 2]]
        except KeyError:
            raise ValueError(misfit) from None
        flip = entry >> 1 & 1
        image0, image1 = target[flip], target[1 - flip]
        if len(image0) != len(end0) or len(image1) != len(end1):
            raise ValueError("automorphism does not fit the model: side sizes differ")
        if entry & 1:
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
    # Arc j sits at position len(points) + j, with the side flip as its reversal.
    shift, labels = 4 * len(points), (points, strips)
    arcs = [shift + (entry & ~3) + (entry >> 1 & 1) for entry in code]
    return LeafMap._of(labels, labels, (*[4 * landed[i] for i in range(len(points))], *arcs))


# ---------------------------------------------------------------------------
# Kernel and reports


def _require_connected(atlas: StripedAtlas) -> None:
    count = len(atlas.components)
    if count == 0:
        raise DisconnectedAtlasError("atlas has no strips")
    if count != 1:
        raise DisconnectedAtlasError("atlas disconnected - apply per component")


class KernelResult(NamedTuple):
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


def _working_atlas(outcome: SurfaceClass) -> tuple[StripedAtlas, KernelResult]:
    """The atlas that carries the isotopy classes of a connected atlas whose
    reduction is ``outcome``, and the kernel read off its sides.

    A proper component works on its reduced atlas, an exceptional one on the
    canonical one-strip atlas of its kind.  On either, the kernel is the
    working atlas's all-leaf reversal when that fixes every leaf point, and
    trivial otherwise.
    """
    working = outcome.atlas or canonical_exceptional_atlas(outcome.kind)
    return working, KernelResult(_reversal(working))


def leaf_action_kernel(atlas: StripedAtlas) -> KernelResult:
    """Kernel of the map from surface isotopy classes to leaf-space ones.

    Requires a connected atlas.  The kernel has order two exactly when the
    all-leaf reversal of the working atlas (the reduced atlas, or the
    canonical one-strip atlas of a cylinder or Moebius band) fixes every
    leaf point; the witness is that reversal.  On an exceptional component
    it always does: the fibrewise reversal preserves every leaf and acts
    trivially on the base circle.  O(size).

    Reduction keeps the number of components, so connectivity is checked on
    the reduced atlas; the input is checked only after a cylinder or
    Moebius outcome, which may describe one component of several.
    """
    return _working_atlas(_reduce_connected(atlas))[1]


class HomeotopyReport(NamedTuple):
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
    The group acts freely on root frames, so |Aut| is the size of the
    reference frame's orbit, which
    :func:`~stripes.atlas.automorphism_order` counts by merging frames
    under the automorphisms it meets; no group element is built.  The
    leaf-model order comes from :func:`leaf_model_automorphism_count` on
    the working atlas's model.
    """
    working, kernel = _working_atlas(_reduce_connected(atlas))
    aut_order = automorphism_order(working)
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
    The arc itself, unreversed, extends by the identity; another image is
    confirmed by a backtracking search from that arc on, which returns the
    symmetry it finds, pruned three ways: a non-root arc's image must share
    a point with its parent's image, both ends' attachment signatures must
    match, and a point whose arcs are all placed must land on an incidence
    still free in the target multiset.

    The arcs are taken deepest first, so every symmetry found so far fixes
    the arcs before the current one.  Its images are merged into orbits
    under those symmetries (McKay and Piperno's automorphism pruning): an
    image in the orbit of a confirmed one counts without a search, and one
    in the orbit of a failed one fails without one.  Each confirmed search
    enlarges the group found, so on a necklace the 2n images of the first
    arc take two searches, not 2n - 1.  Points of equal incidence are
    interchangeable, which contributes the product of their counts'
    factorials.
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

    def options(arc: str, parent_image: str | None, used: set) -> list[tuple[str, int]]:
        # The images (arc, bit) that ``arc`` may take when its BFS parent
        # went to ``parent_image``; every arc may take a root's.
        pool = model.arcs if parent_image is None else neighbours[parent_image]
        return [
            (other, bit)
            for other in pool
            if other not in used
            for bit in (0, 1)
            if signature[(arc, 0)] == signature[(other, bit)]
            and signature[(arc, 1)] == signature[(other, 1 - bit)]
        ]

    def lands(key: tuple) -> tuple:
        # The incidence that a point of incidence ``key`` lands on under ``image``.
        return tuple(sorted((image[s][0], side ^ image[s][1]) for s, side in key))

    def extends(start: int, choice: tuple[str, int]) -> dict[str, tuple[str, int]] | None:
        # Depth-first without recursion from ``start``, on ``image``, ``used``
        # and ``free``, which hold the arcs before it fixed: choices left per
        # depth, and each choice's point images, to undo it.  What it placed
        # is undone before it returns the symmetry found, as arc -> (image,
        # bit), or None.
        choices, trail, symmetry = [[choice]], [], None
        while choices:
            depth = start + len(choices) - 1
            arc = order[depth]
            if start + len(trail) > depth:
                for key in trail.pop():
                    free[key] += 1
                used.discard(image.pop(arc)[0])
            if not choices[-1]:
                choices.pop()
                continue
            image[arc] = choices[-1].pop()
            used.add(image[arc][0])
            landed = [lands(key) for key in completed[depth]]
            for key in landed:
                free[key] = free.get(key, 0) - 1
            trail.append(landed)
            if any(free[key] < 0 for key in landed):
                continue
            if depth + 1 == len(order):
                symmetry = dict(image)
                break
            following = parent[order[depth + 1]]
            choices.append(
                options(order[depth + 1], None if following is None else image[following][0], used)
            )
        for arc, landed in zip(order[start:], trail):
            for key in landed:
                free[key] += 1
            used.discard(image.pop(arc)[0])
        return symmetry

    def merge(orbits: _Partition, images: list, where: dict, symmetry: dict) -> None:
        # Join each option with its image under a symmetry that fixes the
        # arcs before the options' arc.
        for i, (other, bit) in enumerate(images):
            moved, flip = symmetry[other]
            orbits.union(i, where[moved, bit ^ flip])

    # Deepest arc first, so that every symmetry found so far fixes the arcs
    # before the current one: ``image`` and ``used`` hold those arcs, fixed,
    # and ``free`` the incidences of the target multiset they leave free.
    count, found = 1, []
    image = {arc: (arc, 0) for arc in order}
    used = set(order)
    free = dict.fromkeys(target, 0)
    for depth in reversed(range(len(order))):
        arc = order[depth]
        used.discard(arc)
        for key in completed[depth]:
            free[key] += 1
        # Option 0 is the arc itself.  Another is kept only if the points it
        # completes land on incidences of the target, a check that the
        # symmetries fixing the arcs before it preserve.
        images = [(arc, 0)]
        for option in options(arc, parent[arc], used):
            image[arc] = option
            if option != (arc, 0) and all(lands(key) in target for key in completed[depth]):
                images.append(option)
        del image[arc]
        if len(images) == 1:
            continue
        where = {option: i for i, option in enumerate(images)}
        orbits = _Partition(len(images))
        for symmetry in found:
            merge(orbits, images, where, symmetry)
        for i in range(1, len(images)):
            if orbits.find(i) == i:  # else an option before it in its orbit was decided
                symmetry = extends(depth, images[i])
                if symmetry is not None:
                    found.append(symmetry)
                    merge(orbits, images, where, symmetry)
        count *= sum(1 for i in range(len(images)) if orbits.find(i) == 0)
    for size in target.values():
        count *= factorial(size)
    return count
