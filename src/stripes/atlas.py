"""Finite combinatorial atlases of surfaces glued from strips.

A strip is a copy of the open band R x (0,1) together with two ordered,
finite lists of named open boundary intervals, one list per boundary side.
An atlas is a finite set of strips plus a set of gluings, each gluing
identifying two distinct intervals by a monotone homeomorphism.  Only the
combinatorics is retained: interval order along each side, and the
monotonicity class (parity) of every gluing.  Endpoint coordinates are
deliberately not modelled; the homeomorphism type of the glued surface
depends only on this data.

The text format understood by :func:`parse_atlas` is line oriented::

    strip <name>
    side0 <interval> <interval> ...   # optional, left-to-right order
    side1 <interval> ...              # optional
    glue <interval> <interval> +|-    # + increasing, - decreasing

``side0``/``side1`` lines bind to the most recent ``strip`` line.  A ``#``
starts a comment.  Any interval not named in a ``glue`` line is free.
"""

from __future__ import annotations

from copy import copy
from enum import Enum
from functools import cached_property
from itertools import chain, tee
from typing import Callable, Iterator, NamedTuple


class AtlasError(ValueError):
    """Malformed atlas text or an operation on an unusable atlas."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DisconnectedAtlasError(ValueError):
    """Raised by operations that are only defined on connected atlases.

    Defined here, with the connectivity it is about, so that catching it
    (as the CLI does) loads no other module; ``symmetry`` re-exports it."""


class Parity(Enum):
    """Monotonicity class of a gluing homeomorphism.

    A monotone map and its inverse share the class, so the parity belongs
    to the unordered interval pair rather than to a direction of gluing.
    """

    INCREASING = "+"
    DECREASING = "-"

    @property
    def symbol(self) -> str:
        return self.value

    def flipped(self) -> "Parity":
        return _DECREASING if self is _INCREASING else _INCREASING

    def xor(self, bit: int) -> "Parity":
        """Parity after conjugating by ``bit`` many order reversals."""
        return self.flipped() if bit & 1 else self

    @staticmethod
    def from_symbol(token: str) -> "Parity":
        parity = _PARITY_OF_SYMBOL.get(token)
        if parity is None:
            raise ValueError(f"parity must be '+' or '-', got {token!r}")
        return parity


# Members bound once: reading one off its class costs several attribute reads.
_INCREASING, _DECREASING = Parity.INCREASING, Parity.DECREASING
_PARITY_OF_SYMBOL = {parity.value: parity for parity in Parity}
_PARITY_OF_BIT = (_INCREASING, _DECREASING)
_SIDE_SLOT = {"side0": 1, "side1": 2}  # where parse_atlas keeps a strip's side


# Value types are named tuples, built, hashed and sorted in C by the
# thousand; equality and order are those of their field tuples.


class Strip(NamedTuple):
    """One strip: an id and two ordered interval lists.

    ``side0``/``side1`` list interval names in increasing coordinate order
    along the respective boundary line.  Either list may be empty.
    """

    id: str
    side0: tuple[str, ...] = ()
    side1: tuple[str, ...] = ()

    def side(self, which: int) -> tuple[str, ...]:
        if which == 0:
            return self.side0
        if which == 1:
            return self.side1
        raise ValueError(f"side index must be 0 or 1, got {which}")

    @property
    def intervals(self) -> tuple[str, ...]:
        return self.side0 + self.side1


class _GluingFields(NamedTuple):
    a: str
    b: str
    parity: Parity


class Gluing(_GluingFields):
    """Identification of two distinct intervals, as an unordered pair.

    The pair is normalised so that ``a <= b``; equality and hashing then
    agree with the unordered-pair semantics.
    """

    __slots__ = ()

    def __new__(cls, a: str, b: str, parity: Parity):
        return tuple.__new__(cls, (a, b, parity) if a <= b else (b, a, parity))

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    def other(self, interval: str) -> str:
        if interval == self.a:
            return self.b
        if interval == self.b:
            return self.a
        raise KeyError(f"interval {interval!r} is not an endpoint of this gluing")


class StripedAtlas:
    """A finite set of strips plus gluings between their intervals.

    ``StripedAtlas(strips, gluings)`` keeps both as tuples.  Values are
    immutable after construction and all operations on them are pure.
    Construction performs no validation; see :func:`validate`.  The
    fields and the cached indexes below live in the instance dict, and an
    atlas from :func:`parse_atlas` also holds its mark there (``_parsed``),
    which equality, hashing and the repr ignore.  Pickling and copying keep
    the fields and the mark and drop the indexes.
    """

    strips: tuple[Strip, ...]
    gluings: tuple[Gluing, ...]
    _parsed = False  # set on the instance by parse_atlas: validate has nothing to find

    def __init__(self, strips, gluings):
        # Written to the dict: assigning attributes is refused below.
        fields = self.__dict__
        fields["strips"] = tuple(strips)
        fields["gluings"] = tuple(gluings)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a StripedAtlas is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a StripedAtlas is immutable")

    def __repr__(self):
        return f"StripedAtlas(strips={self.strips!r}, gluings={self.gluings!r})"

    # Two atlases are equal when they have the same strips and the same
    # gluings; the order in which either was listed is irrelevant.
    def __eq__(self, other):
        if not isinstance(other, StripedAtlas):
            return NotImplemented
        return (
            frozenset(self.strips) == frozenset(other.strips)
            and frozenset(self.gluings) == frozenset(other.gluings)
        )

    def __hash__(self):
        return hash((frozenset(self.strips), frozenset(self.gluings)))

    def __reduce__(self):
        # A copy carries the value and the parser's mark, not the cached indexes.
        return type(self), (self.strips, self.gluings), {"_parsed": True} if self._parsed else None

    @cached_property
    def strips_by_id(self) -> dict[str, Strip]:
        """Read-only index: strip id -> strip."""
        return {s.id: s for s in self.strips}

    @property
    def strip_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.strips)

    def strip(self, strip_id: str) -> Strip:
        return self.strips_by_id[strip_id]

    @cached_property
    def locations(self) -> dict[str, tuple[str, int, int]]:
        """Read-only index: interval -> ``(strip id, side, index in side)``.
        The first occurrence wins, which matters only on invalid atlases."""
        out: dict[str, tuple[str, int, int]] = {}
        for s in self.strips:
            for which, side in ((0, s.side0), (1, s.side1)):
                for index, name in enumerate(side):
                    out.setdefault(name, (s.id, which, index))
        return out

    def location(self, interval: str) -> tuple[str, int, int]:
        """Return ``(strip id, side, index in side)`` of an interval."""
        return self.locations[interval]

    def intervals(self) -> tuple[str, ...]:
        return tuple([name for s in self.strips for name in s.side0 + s.side1])

    @cached_property
    def components(self) -> tuple[frozenset[str], ...]:
        """Read-only index: :func:`connected_components`, found once for
        the checks of operations that need a connected atlas."""
        return connected_components(self)

    @cached_property
    def gluing_of(self) -> dict[str, Gluing]:
        out: dict[str, Gluing] = {}
        for g in self.gluings:
            out.setdefault(g.a, g)
            out.setdefault(g.b, g)
        return out

    @cached_property
    def _partners(self) -> tuple[tuple[tuple, tuple], ...]:
        """Per strip, by position in ``strips``, one entry per interval of
        each side: ``None`` when free, else the partner's ``(position,
        side, index, index from the end, 1 if the gluing decreases else
        0)``; what :func:`_rows` and :func:`_frame_signatures` read.

        One pass over the sides places every interval, its first
        occurrence winning, in a side of all-``None`` entries; one pass
        over the gluings fills both ends of each, an interval's first
        gluing winning.  No other index is read or built."""
        table: list[tuple[list, list]] = []
        # interval -> (its entry as a partner, less the bit; its side's entries; its index)
        place: dict[str, tuple[tuple, list, int]] = {}
        for position, (_, side0, side1) in enumerate(self.strips):
            sides = [None] * len(side0), [None] * len(side1)
            table.append(sides)
            for which, names, entries in ((0, side0, sides[0]), (1, side1, sides[1])):
                last = len(names) - 1
                for index, name in enumerate(names):
                    place.setdefault(name, ((position, which, index, last - index), entries, index))
        decreasing = _DECREASING
        for a, b, parity in self.gluings:
            bit = int(parity is decreasing)
            at_a, entries_a, i = place[a]
            at_b, entries_b, j = place[b]
            if entries_a[i] is None:
                entries_a[i] = (*at_b, bit)
            if entries_b[j] is None:
                entries_b[j] = (*at_a, bit)
        return tuple([(tuple(side0), tuple(side1)) for side0, side1 in table])

    @cached_property
    def free_intervals(self) -> tuple[str, ...]:
        glued = self.gluing_of
        return tuple([name for name in self.intervals() if name not in glued])


def validate(atlas: StripedAtlas) -> list[str]:
    """Return all invariant violations of an atlas; empty means valid.

    Checked invariants: unique strip ids, globally unique interval names,
    gluing endpoints exist, no interval glued to itself, no interval in
    more than one gluing, every parity a :class:`Parity` member, every
    identifier one token of the text format (a non-empty ``str`` with no
    whitespace and no ``#``), as ``serialize_atlas`` needs.

    An atlas returned by :func:`parse_atlas` carries the parser's proof
    that it holds no violation, and gets a new empty list at once.  Any
    other atlas (built by hand, by ``corpus`` or by ``reduction``) is
    accepted by whole-atlas checks on set sizes, the test of
    :func:`_distinct` that ``parse_atlas`` also applies, and one join and
    split of all identifiers.  Only an atlas that fails them is walked,
    strip by strip and gluing by gluing, to list its problems.

    Never raises on values built from :class:`Strip` and :class:`Gluing`:
    the point is to report on hand-built or adversarial values.  An
    identifier that cannot be hashed is reported as not one token, as is
    any other identifier that is not a ``str``; a parity such as the
    string ``"+"`` is reported as not ``+`` or ``-``.
    """
    if atlas._parsed:
        return []
    try:
        # zip(*()) unpacks to nothing: an atlas without strips is walked.
        ids, side0s, side1s = zip(*atlas.strips)
        intervals = list(chain(*side0s, *side1s))
        ends, parities = (), ()
        if atlas.gluings:
            a, b, parities = zip(*atlas.gluings)
            ends = a + b
        words = [*ids, *intervals]
        joined = " ".join(words)  # TypeError unless every identifier is a str
        if (
            _distinct(ids, intervals, ends)
            and parities.count(_INCREASING) + parities.count(_DECREASING) == len(parities)
            and "#" not in joined
            and joined.split() == words
        ):
            return []
    except (TypeError, ValueError):
        pass  # not accepted: an identifier is not a hashable str, or no strips
    return _problems(atlas)


def _distinct(ids, intervals, ends) -> bool:
    """The set-size half of a valid atlas: distinct strip ids, distinct
    intervals, and distinct glue ends (both ends of every gluing) that are
    all declared intervals."""
    known, glued = set(intervals), set(ends)
    return (
        len(known) == len(intervals)
        and len(glued) == len(ends)
        and glued <= known
        and len(set(ids)) == len(ids)
    )


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _problems(atlas: StripedAtlas) -> list[str]:
    # What validate returns on an atlas that its whole-atlas checks do not
    # accept: every violation, found one strip, interval and gluing at a
    # time.  An unhashable identifier takes part in no duplicate check; the
    # identifier check at the end (on a strip) or the gluing loop (on a
    # gluing end) reports it.
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
        if g.parity not in _PARITY_OF_BIT:
            problems.append(f"gluing of {g.a!r} and {g.b!r} has parity {g.parity!r}, not '+' or '-'")
    for name, count in uses.items():
        if count > 1:
            problems.append(f"interval {name!r} multiply glued")

    for name in [n for s in atlas.strips for n in (s.id, *s.side0, *s.side1)]:
        if not isinstance(name, str) or "#" in name or name.split() != [name]:
            problems.append(f"identifier {name!r} is not one token of the text format")
    return problems


def is_valid(atlas: StripedAtlas) -> bool:
    return not validate(atlas)


def connected_components(atlas: StripedAtlas) -> tuple[frozenset[str], ...]:
    """Partition strip ids into gluing-connected classes.

    Two strips are linked when some gluing has one endpoint on each;
    components are returned in order of first appearance in the atlas.
    """
    neighbours: dict[str, list[str]] = {s.id: [] for s in atlas.strips}
    locations = atlas.locations
    for g in atlas.gluings:
        sa, sb = locations[g.a][0], locations[g.b][0]
        neighbours[sa].append(sb)
        neighbours[sb].append(sa)

    # One seen-set for the whole walk: a strip is marked when first reached.
    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for s in atlas.strips:
        if s.id in seen:
            continue
        seen.add(s.id)
        component, stack = [s.id], [s.id]
        while stack:
            for other in neighbours[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
                    stack.append(other)
        components.append(frozenset(component))
    return tuple(components)


def is_connected(atlas: StripedAtlas) -> bool:
    return len(connected_components(atlas)) == 1


def component_atlases(atlas: StripedAtlas) -> tuple[StripedAtlas, ...]:
    """Split an atlas into the sub-atlases of its connected components, in
    the order of :attr:`StripedAtlas.components`, each keeping the atlas's
    order of strips and gluings.  One pass buckets both by component; a
    connected atlas is its own, returned with the indexes it has built."""
    components = atlas.components
    if len(components) == 1:
        return (atlas,)
    bucket = {sid: k for k, component in enumerate(components) for sid in component}
    strips: list[list[Strip]] = [[] for _ in components]
    gluings: list[list[Gluing]] = [[] for _ in components]
    for s in atlas.strips:
        strips[bucket[s.id]].append(s)
    locations = atlas.locations
    for g in atlas.gluings:
        gluings[bucket[locations[g.a][0]]].append(g)
    return tuple(map(StripedAtlas, strips, gluings))


# ---------------------------------------------------------------------------
# Text format


def parse_atlas(text: str) -> StripedAtlas:
    """Parse atlas text; raise :class:`AtlasError` with a line number on bad input.

    Identifiers are preserved verbatim.  Gluings may reference intervals
    declared on any line, earlier or later.  One loop sorts the lines into
    strips, sides and glue rows; whole-text checks accept the text: the set
    sizes of :func:`_distinct`, which ``validate`` also applies (distinct
    strip names, intervals and glue ends, glue ends declared), and known
    parities.  Only a faulty text is walked line by line, to report its
    first fault; an unknown glued interval when there is no other.

    Those checks and the tokens' being split out of the text (non-empty,
    no whitespace, no ``#``) are every invariant :func:`validate` checks,
    so the atlas returned is marked as checked and ``validate`` returns
    ``[]`` for it without a second look.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    strips: list[list] = []  # [name, side0, side1] per strip; a side is None until given
    glues: list[list[str]] = []
    declared: list[str] = []
    names: list[str] = []
    current = None
    for tokens in map(str.split, lines):
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "glue" and len(tokens) == 4:
            glues.append(tokens)
        elif keyword == "strip" and len(tokens) == 2:
            current = [tokens[1], None, None]
            strips.append(current)
            names.append(tokens[1])
        else:
            which = _SIDE_SLOT.get(keyword)
            if which is None or current is None or current[which] is not None:
                raise _first_fault(lines)
            del tokens[0]
            current[which] = tokens
            declared += tokens

    parity_of, new = _PARITY_OF_SYMBOL.get, tuple.__new__
    parities, ends = [], ()
    if glues:
        _, a, b, symbols = zip(*glues)
        parities, ends = list(map(parity_of, symbols)), a + b
    if None in parities or not _distinct(names, declared, ends):
        raise _first_fault(lines)
    atlas = StripedAtlas(
        tuple([new(Strip, (name, tuple(s0 or ()), tuple(s1 or ()))) for name, s0, s1 in strips]),
        tuple([
            new(Gluing, (a, b, parity) if a <= b else (b, a, parity))
            for (_, a, b, _), parity in zip(glues, parities)
        ]),
    )
    atlas.__dict__["_parsed"] = True
    return atlas


def _first_fault(lines: list[str]) -> AtlasError:
    # The error ``parse_atlas`` raises on faulty text (lines without comments):
    # the first fault by line, an unknown glued interval only if no other.
    strip_names, declared, glued = set(), set(), set()
    requests: list[tuple[int, str, str]] = []
    given = None  # the side keywords seen for the last strip
    for lineno, tokens in enumerate(map(str.split, lines), 1):
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "strip":
            if len(args) != 1:
                return AtlasError("expected: strip <name>", lineno)
            if args[0] in strip_names:
                return AtlasError(f"duplicate strip id {args[0]!r}", lineno)
            strip_names.add(args[0])
            name, given = args[0], set()
        elif keyword in ("side0", "side1"):
            if given is None:
                return AtlasError(f"{keyword} before any strip", lineno)
            if keyword in given:
                return AtlasError(f"{keyword} given twice for strip {name!r}", lineno)
            given.add(keyword)
            for interval in args:
                if interval in declared:
                    return AtlasError(f"duplicate interval id {interval!r}", lineno)
                declared.add(interval)
        elif keyword == "glue":
            if len(args) != 3:
                return AtlasError("expected: glue <interval> <interval> +|-", lineno)
            a, b, symbol = args
            if symbol not in _PARITY_OF_SYMBOL:
                return AtlasError(f"parity must be '+' or '-', got {symbol!r}", lineno)
            if a == b:
                return AtlasError(f"interval {a!r} glued to itself", lineno)
            for end in (a, b):
                if end in glued:
                    return AtlasError(f"interval {end!r} glued twice", lineno)
                glued.add(end)
            requests.append((lineno, a, b))
        else:
            return AtlasError(f"unknown directive {keyword!r}", lineno)
    for lineno, a, b in requests:
        for end in (a, b):
            if end not in declared:
                return AtlasError(f"glue references unknown interval {end!r}", lineno)
    raise AssertionError("parse_atlas found a fault that the line walk does not")


def serialize_atlas(atlas: StripedAtlas) -> str:
    """Render an atlas in the text format; ``parse_atlas`` inverts this."""
    lines: list[str] = []
    for s in atlas.strips:
        lines.append(f"strip {s.id}")
        if s.side0:
            lines.append("side0 " + " ".join(s.side0))
        if s.side1:
            lines.append("side1 " + " ".join(s.side1))
    for g in atlas.gluings:
        lines.append(f"glue {g.a} {g.b} {g.parity.symbol}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structure-preserving witnesses between atlases
#
# A witness (strip_map, side_flip, reversal) sends strip L to strip
# strip_map[L], its side e to side e ^ side_flip[L], preserving interval
# order when reversal[L] == 0 and reversing it when reversal[L] == 1.
# Conjugating a monotone gluing map by one order reversal flips its
# monotonicity class, hence a gluing of parity p must land on a gluing of
# parity p ^ reversal[strip of a] ^ reversal[strip of b].


def witness_interval_map(
    src: StripedAtlas,
    dst: StripedAtlas,
    strip_map: dict[str, str],
    side_flip: dict[str, int],
    reversal: dict[str, int],
) -> dict[str, str] | None:
    """Interval bijection induced by a witness, or None on side-size clash."""
    mapping: dict[str, str] = {}
    for s in src.strips:
        target = dst.strip(strip_map[s.id])
        for which in (0, 1):
            source_side = s.side(which)
            target_side = target.side(which ^ side_flip[s.id])
            if len(source_side) != len(target_side):
                return None
            if reversal[s.id]:
                target_side = target_side[::-1]
            mapping.update(zip(source_side, target_side))
    return mapping


def is_valid_witness(
    src: StripedAtlas,
    dst: StripedAtlas,
    strip_map: dict[str, str],
    side_flip: dict[str, int],
    reversal: dict[str, int],
) -> bool:
    """Check the witness validity rules between two valid atlases."""
    if sorted(strip_map) != sorted(src.strip_ids):
        return False
    if sorted(strip_map.values()) != sorted(dst.strip_ids):
        return False
    mapping = witness_interval_map(src, dst, strip_map, side_flip, reversal)
    if mapping is None:
        return False

    target_parities = {g.pair: g.parity for g in dst.gluings}
    for g in src.gluings:
        bits = reversal[src.location(g.a)[0]] ^ reversal[src.location(g.b)[0]]
        expected = g.parity.xor(bits)
        image = frozenset((mapping[g.a], mapping[g.b]))
        if target_parities.get(image) != expected:
            return False

    target_glued = set(dst.gluing_of)
    for name in src.free_intervals:
        if mapping[name] in target_glued:
            return False
    return True


def _rows(atlas: StripedAtlas, root: int, frames: list[int]) -> Iterator[tuple]:
    """Walk a connected atlas breadth first from one root frame, one row
    per visited strip.

    A frame is one int, ``4 * position + 2 * flip + rev``: the strip at
    ``position`` in ``atlas.strips``, read with side ``flip`` as its side
    0 and in reversed order when ``rev`` is set.  Each newly reached strip
    takes the side holding the partner interval as its side 0, and the
    reversal bit that makes the reaching gluing read ``+``.  A row is
    ``(len side0, len side1, *entries)`` with one entry per position in
    frame order: ``None`` when free, else the partner's ``(visit number,
    side in its frame, index in its frame, parity bit as read)``.  So the
    rows depend only on the structure and the root frame.  ``frames``,
    empty when passed, receives the frame of every visited strip in visit
    order, ``root`` first; it is the walk's queue, so it is complete once
    the last row is out.
    """
    partners = atlas._partners
    seen = {root >> 2: 0}  # position -> visit number
    frames.append(root)
    for frame in frames:
        side0, side1 = partners[frame >> 2]
        if frame & 2:
            side0, side1 = side1, side0
        r = frame & 1
        if r:
            side0, side1 = side0[::-1], side1[::-1]
        row: list = [len(side0), len(side1)]
        for entry in side0 + side1:
            if entry is None:
                row.append(None)
                continue
            other, side, index, back, bit = entry
            visit = seen.get(other)
            if visit is None:
                visit = seen[other] = len(frames)
                frames.append(4 * other + 2 * side + (r ^ bit))
            other_frame = frames[visit]
            other_rev = other_frame & 1
            index = back if other_rev else index
            row.append((visit, side ^ (other_frame >> 1 & 1), index, bit ^ r ^ other_rev))
        yield tuple(row)


def _traverse(atlas: StripedAtlas, root: int) -> str:
    """Relabel a connected atlas from one root frame: the text of its
    :func:`_rows`.

    Strips become ``T1..`` in visit order and intervals are named by
    position, ``T<k>.<side>.<index>`` in the strip's frame; gluings are
    sorted by their names.  So the text, like the rows, depends only on
    the structure and the root frame, and two frames give equal texts
    exactly when they give equal rows.  Only ``canonical_form`` needs the
    text; witness matching compares rows.
    """
    strips: list[Strip] = []
    gluings: list[Gluing] = []
    for k, row in enumerate(_rows(atlas, root, [])):
        tag, size0 = f"T{k + 1}", row[0]
        names = [f"{tag}.0.{i}" for i in range(size0)]
        names += [f"{tag}.1.{i}" for i in range(row[1])]
        strips.append(Strip(tag, tuple(names[:size0]), tuple(names[size0:])))
        for position, entry in enumerate(row[2:]):
            if entry is None:
                continue
            visit, side, index, bit = entry
            if visit < k or visit == k and side * size0 + index < position:
                continue  # added from the partner's end, met first
            partner = f"T{visit + 1}.{side}.{index}"
            gluings.append(Gluing(names[position], partner, _PARITY_OF_BIT[bit]))
    gluings.sort()  # by (a, b): no two gluings share an end
    return serialize_atlas(StripedAtlas(tuple(strips), tuple(gluings)))


def _frame_signatures(atlas: StripedAtlas) -> Iterator[tuple[tuple[bool, ...], ...]]:
    # One signature per root frame, in frame order: the glued/free flags of
    # its root strip's sides as the frame reads them, side ``flip`` then
    # the other, both reversed when ``rev``.  Each strip's flags are read
    # once, off its ``_partners`` entries (glued when not ``None``).  A
    # witness keeps side sizes and keeps glued intervals glued, so frames
    # that a witness matches have equal signatures.  Parities are left out:
    # a gluing to another strip reads through that strip's reversal bit.
    for entries0, entries1 in atlas._partners:
        side0 = tuple([entry is not None for entry in entries0])
        side1 = tuple([entry is not None for entry in entries1])
        back0, back1 = side0[::-1], side1[::-1]
        yield side0, side1
        yield back0, back1
        yield side1, side0
        yield back1, back0


class _Walk(NamedTuple):
    """A walk from one root frame: its root strip's signature, and the rows
    and strip frames of :func:`_rows`."""

    signature: tuple[tuple[bool, ...], ...]
    rows: list[tuple]
    frames: list[int]


def _reference_walk(atlas: StripedAtlas) -> _Walk:
    """The walk of an atlas's frame 0, the reference that witness matching
    compares against.  It visits every strip exactly when the atlas is
    connected."""
    frames: list[int] = []
    return _Walk(next(_frame_signatures(atlas)), list(_rows(atlas, 0, frames)), frames)


def _matching_walks(
    src: StripedAtlas,
    dst: StripedAtlas,
    reference: _Walk,
    skip: Callable[[int], bool] | None = None,
) -> Iterator[list[int]]:
    """The root frames of ``dst`` that read like ``src``'s reference walk,
    in frame order: each as the strip frames of its walk, root first.

    A frame whose root strip reads differently is skipped unwalked, and so
    is one for which ``skip(frame)`` holds, asked just before its walk;
    any other is walked only up to its first row that differs from the
    reference rows, so a frame that fails early costs a few rows, not a
    traversal.  A frame matches only when its walk yields as many rows as
    the reference, so a disconnected ``dst`` has no match.  Once the failed
    walks have reached more than twice as many strips as ``src`` has, the
    failing walk is finished, once: if it stops short, ``dst`` is
    disconnected and the search ends.  So a disconnected ``dst`` costs
    O(size), not a walk of its component from every frame, and no index of
    ``dst`` is built.  When ``dst is src`` the reference frame matches
    itself without a walk.
    """
    signature, rows, frames = reference
    reached = None if dst is src else 0  # strips of failed walks; None once dst is connected
    for root, other_signature in enumerate(_frame_signatures(dst)):
        if other_signature != signature:
            continue
        if dst is src and root == frames[0]:
            yield frames
            continue
        if skip is not None and skip(root):
            continue
        other: list[int] = []
        walk = _rows(dst, root, other)
        if all(map(tuple.__eq__, rows, walk)) and len(other) == len(frames):
            yield other
        elif reached is not None:
            reached += len(other)
            if reached > 2 * len(frames):
                # This walk, finished, stops short exactly when dst is
                # disconnected, and then no frame can match.
                for _ in walk:
                    pass
                if len(other) != len(frames):
                    return
                reached = None


def _connected_witnesses(
    src: StripedAtlas, dst: StripedAtlas, reference: _Walk | None = None
) -> Iterator[tuple[dict[str, str], dict[str, int], dict[str, int]]]:
    """Witnesses from a connected atlas, in the order of ``dst``'s root
    frames.

    Both atlases read the same from matching root frames exactly when a
    witness sends one root frame to the other: it sends the k-th strip
    frame of one walk to the k-th of the other, and the low bits of their
    xor are its side flip and reversal.  The rows of ``src``'s reference
    frame are built once, or passed in as ``reference`` by a caller that
    has walked them (:func:`_reference_walk`), and matched by
    :func:`_matching_walks`.  The dicts list ``src``'s strips in visit order.
    """
    reference = reference or _reference_walk(src)
    frames = reference.frames
    ids = [src.strips[f >> 2].id for f in frames]
    for other in _matching_walks(src, dst, reference):
        bits = [f ^ g for f, g in zip(frames, other)]
        yield (
            dict(zip(ids, [dst.strips[g >> 2].id for g in other])),
            dict(zip(ids, [b >> 1 & 1 for b in bits])),
            dict(zip(ids, [b & 1 for b in bits])),
        )


class _Partition:
    """Union-find over ``0 .. size - 1`` in which every class is named by
    its least member, so ``find(x) < x`` exactly when an earlier member
    shares the class of ``x``."""

    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        x, y = self.find(x), self.find(y)
        if x < y:
            self.parent[y] = x
        elif y < x:
            self.parent[x] = y


def automorphism_order(atlas: StripedAtlas) -> int:
    """The number of automorphisms of an atlas, the size of its reference
    frame's orbit.

    The group acts freely on the 4n root frames of a connected atlas: an
    automorphism that fixes a frame fixes every strip.  So |Aut| is the
    number of frames that read like the reference frame, its orbit.  The
    frames are matched as witness matching does, in order.  A match sends
    the k-th frame ``a`` of the reference walk to the k-th frame ``b`` of
    its own, and so frame ``a ^ c`` to ``b ^ c``.  From the first match
    other than the reference, every frame is merged with its image under
    each match found, in one :class:`_Partition`; a frame whose class
    holds an earlier frame is skipped unwalked, since it matches exactly
    when that one did.  Each match walked enlarges the group found, so at
    most log2 |Aut| matching frames are walked besides the reference.  An
    atlas whose reference walk stops short, or that has no strips, counts
    its witnesses.
    """
    reference = _reference_walk(atlas) if atlas.strips else None
    if reference is None or len(reference.frames) != len(atlas.strips):
        return sum(1 for _ in iter_witnesses(atlas, atlas))
    frames = reference.frames
    classes = None  # from the first match other than the reference

    def merged(frame: int) -> bool:
        return classes is not None and classes.find(frame) != frame

    for other in _matching_walks(atlas, atlas, reference, merged):
        if other[0] == frames[0]:
            continue
        if classes is None:
            classes = _Partition(4 * len(frames))
        for a, b in zip(frames, other):
            for c in range(4):
                classes.union(a ^ c, b ^ c)
    if classes is None:
        return 1
    return sum(1 for k in range(4 * len(frames)) if classes.find(k) == 0)


def iter_witnesses(
    src: StripedAtlas, dst: StripedAtlas
) -> Iterator[tuple[dict[str, str], dict[str, int], dict[str, int]]]:
    """Yield every valid witness from ``src`` to ``dst``.

    ``src``'s reference frame is walked first.  When that walk visits
    every strip, ``src`` is connected, and it is matched against those of
    the 4n root frames of ``dst`` whose root strip reads the same (its
    sides' glued/free flags in frame order); the rest cannot match and
    are skipped.  Matching compares the breadth-first rows of the two
    frames and stops at the first row that differs, so only a matching
    frame is walked to the end; a frame of a disconnected ``dst`` never
    yields all n rows.  Neither atlas is split into components on this
    path.  Only a ``src`` whose reference walk stops short, or that has no
    strips, is split: components are paired with components of equal
    canonical form, in every way; the witnesses of each pair of
    components are found once and replayed for every pairing that uses it.
    """
    if len(src.strips) != len(dst.strips) or len(src.gluings) != len(dst.gluings):
        return
    if src.strips:
        reference = _reference_walk(src)
        if len(reference.frames) == len(src.strips):
            yield from _connected_witnesses(src, dst, reference)
            return
    src_parts = component_atlases(src)
    dst_parts = src_parts if dst is src else component_atlases(dst)
    if len(src_parts) != len(dst_parts):
        return
    if not src_parts:  # the empty atlas has the empty witness
        yield {}, {}, {}
        return
    src_forms = [canonical_form(part) for part in src_parts]
    dst_forms = src_forms if dst is src else [canonical_form(p) for p in dst_parts]
    if sorted(src_forms) != sorted(dst_forms):
        return

    # Witnesses of component i onto target j, found lazily and kept: a
    # ``tee`` that is never advanced replays its buffer to every copy.
    pairs: dict[tuple[int, int], Iterator] = {}

    def choices(i: int, unused: tuple[int, ...]):
        # Witnesses of source component i onto each unused target of its form.
        for j in unused:
            if dst_forms[j] == src_forms[i]:
                rest = tuple([k for k in unused if k != j])
                if (i, j) not in pairs:
                    pairs[i, j] = tee(_connected_witnesses(src_parts[i], dst_parts[j]), 1)[0]
                for head in copy(pairs[i, j]):
                    yield head, rest

    # Depth first over components with an explicit stack, so the depth is
    # not bounded by Python's recursion limit; ``heads[i]`` is component
    # i's current witness.  Witnesses come in lexicographic order of
    # (target and witness of component 0, of component 1, ...).
    last = len(src_parts) - 1
    stack = [choices(0, tuple(range(len(dst_parts))))]
    heads: list[tuple[dict, dict, dict]] = []
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        head, rest = step
        level = len(stack) - 1
        del heads[level:]
        heads.append(head)
        if level < last:
            stack.append(choices(level + 1, rest))
            continue
        witness: tuple[dict, dict, dict] = ({}, {}, {})
        for part in heads:
            for merged, own in zip(witness, part):
                merged.update(own)
        yield witness


def isomorphic(
    a: StripedAtlas, b: StripedAtlas
) -> tuple[dict[str, str], dict[str, int], dict[str, int]] | None:
    """Return some structure-preserving witness from ``a`` to ``b``, or None."""
    return next(iter_witnesses(a, b), None)


def canonical_form(atlas: StripedAtlas) -> str:
    """Canonical text form: equal exactly for isomorphic valid atlases.

    A connected atlas takes the least of its 4n rooted traversal texts;
    a witness carries each root frame to one that reads the same.  All 4n
    frames are walked to the end and serialised: unlike witness matching,
    which stops at the first row that differs from its reference frame,
    the least text has no reference to compare against.  The forms of
    several components are sorted and joined by blank lines, which no
    single form contains.
    """
    parts = component_atlases(atlas)
    if len(parts) == 1:
        return min(_traverse(atlas, root) for root in range(4 * len(atlas.strips)))
    return "\n".join(sorted(canonical_form(part) for part in parts))
