"""Input generators of the benchmark, independent of ``stripes.corpus``.

An atlas is held as a plain :class:`Atlas` value and handed to the package
only as text, so a library change cannot change a workload's inputs.  The
text format is the package's own (``strip``/``side0``/``side1``/``glue``
lines).  Every generator is deterministic in its arguments; the ones that
vary with the workload seed take a ``random.Random`` built from it.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterator, NamedTuple

INC, DEC = "+", "-"

CENSUS_MAX = 2  # census: at most this many strips, and intervals per side
RANDOM_MAX_PER_SIDE = 2  # random atlases: at most this many intervals per side
GLUE_PROB = 0.75  # random atlases: chance that an interval is glued


class Atlas(NamedTuple):
    """Strips as ``(id, side0, side1)`` and gluings as ``(a, b, parity)``."""

    strips: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    gluings: tuple[tuple[str, str, str], ...]

    def text(self) -> str:
        lines = []
        for sid, side0, side1 in self.strips:
            lines.append(f"strip {sid}")
            if side0:
                lines.append("side0 " + " ".join(side0))
            if side1:
                lines.append("side1 " + " ".join(side1))
        lines.extend(f"glue {a} {b} {p}" for a, b, p in self.gluings)
        return "\n".join(lines) + "\n"

    def sizes(self) -> dict[str, int]:
        """Strips, gluings and leaf points (one per gluing or free interval)."""
        intervals = sum(len(s0) + len(s1) for _, s0, s1 in self.strips)
        glued = 2 * len(self.gluings)
        return {
            "strips": len(self.strips),
            "gluings": len(self.gluings),
            "points": len(self.gluings) + intervals - glued,
        }


def flipped(parity: str) -> str:
    return DEC if parity == INC else INC


def glue(a: str, b: str, parity: str) -> tuple[str, str, str]:
    # Unordered pair, normalised like the package normalises it.
    return (a, b, parity) if a <= b else (b, a, parity)


def parse(text: str) -> Atlas:
    """Read the text format back; raise ValueError on anything else."""
    strips: list[list] = []
    gluings = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key, args = tokens[0], tuple(tokens[1:])
        if key == "strip" and len(args) == 1:
            strips.append([args[0], (), ()])
        elif key in ("side0", "side1") and strips:
            strips[-1][1 if key == "side0" else 2] = args
        elif key == "glue" and len(args) == 3 and args[2] in (INC, DEC):
            gluings.append(glue(*args))
        else:
            raise ValueError(f"unexpected atlas line {raw!r}")
    return Atlas(tuple(tuple(s) for s in strips), tuple(gluings))


def is_connected(atlas: Atlas) -> bool:
    owner = {iv: sid for sid, s0, s1 in atlas.strips for iv in s0 + s1}
    parent = {sid: sid for sid, _, _ in atlas.strips}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in atlas.gluings:
        parent[find(owner[a])] = find(owner[b])
    return len({find(sid) for sid in parent}) == 1


# ---------------------------------------------------------------------------
# census: every atlas with <= 2 strips and <= 2 intervals per side


def _partial_matchings(items):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    yield from _partial_matchings(rest)
    for i, partner in enumerate(rest):
        for matching in _partial_matchings(rest[:i] + rest[i + 1 :]):
            yield ((head, partner),) + matching


def census_family() -> Iterator[Atlas]:
    """All strip counts, side sizes, pairings and parities, with duplicates.

    Enumerated in a fixed order, which the recorded class partition in
    ``reference/census_classes.json`` is indexed by.
    """
    sizes = range(CENSUS_MAX + 1)
    for count in range(1, CENSUS_MAX + 1):
        names = [f"S{i}" for i in range(1, count + 1)]
        for shape in itertools.product(sizes, repeat=2 * count):
            strips = tuple(
                (
                    name,
                    tuple(f"{name}a{j}" for j in range(shape[2 * i])),
                    tuple(f"{name}b{j}" for j in range(shape[2 * i + 1])),
                )
                for i, name in enumerate(names)
            )
            intervals = tuple(iv for _, s0, s1 in strips for iv in s0 + s1)
            for matching in _partial_matchings(intervals):
                for parities in itertools.product((INC, DEC), repeat=len(matching)):
                    yield Atlas(
                        strips,
                        tuple(glue(a, b, p) for (a, b), p in zip(matching, parities)),
                    )


# ---------------------------------------------------------------------------
# symmetric: necklaces and random connected atlases


def necklace(n: int, parities: str) -> Atlas:
    """``n`` strips with two intervals per side, side 1 of strip i glued to
    side 0 of strip i+1 (cyclically); ``parities`` has one symbol per gluing.
    With every gluing increasing the automorphism group has order 4n."""
    strips = tuple(
        (f"N{i}", (f"c{i}", f"d{i}"), (f"a{i}", f"b{i}")) for i in range(n)
    )
    gluings = []
    for i in range(n):
        j = (i + 1) % n
        gluings.append(glue(f"a{i}", f"c{j}", parities[2 * i]))
        gluings.append(glue(f"b{i}", f"d{j}", parities[2 * i + 1]))
    return Atlas(strips, tuple(gluings))


NECKLACE_VARIANTS = {
    "inc": lambda n: INC * (2 * n),
    "one": lambda n: DEC + INC * (2 * n - 1),
    "alt": lambda n: (INC + DEC) * n,
}


def random_atlas(strips: int, seed: int) -> Atlas:
    """Same law, and same draws, as ``stripes.corpus.random_atlas``."""
    rng = Random(seed)
    built = []
    for i in range(1, strips + 1):
        name = f"S{i}"
        sides = []
        for tag in ("a", "b"):
            count = rng.randint(0, RANDOM_MAX_PER_SIDE)
            sides.append(tuple(f"{name}{tag}{j}" for j in range(count)))
        built.append((name, sides[0], sides[1]))
    pool = [iv for _, s0, s1 in built for iv in s0 + s1 if rng.random() < GLUE_PROB]
    rng.shuffle(pool)
    gluings = []
    while len(pool) >= 2:
        a, b = pool.pop(), pool.pop()
        gluings.append(glue(a, b, rng.choice((INC, DEC))))
    return Atlas(tuple(built), tuple(gluings))


def random_connected_atlas(strips: int, seed: int) -> Atlas:
    """Same law as ``stripes.corpus.random_connected_atlas``."""
    for attempt in range(1000):
        candidate = random_atlas(strips, seed + 7919 * attempt)
        if is_connected(candidate):
            return candidate
    raise RuntimeError(f"no connected atlas for seed {seed}")


def flip_parity(atlas: Atlas, index: int) -> Atlas:
    gluings = list(atlas.gluings)
    a, b, p = gluings[index]
    gluings[index] = (a, b, flipped(p))
    return Atlas(atlas.strips, tuple(gluings))


def transform(atlas: Atlas, flip: dict[str, int], rev: dict[str, int]) -> Atlas:
    """Image of ``atlas`` under a witness that keeps strip ids: side e of
    strip S goes to side e ^ flip[S], reversed when rev[S]."""
    strips = []
    for sid, s0, s1 in atlas.strips:
        sides = (s1, s0) if flip[sid] else (s0, s1)
        if rev[sid]:
            sides = (sides[0][::-1], sides[1][::-1])
        strips.append((sid, *sides))
    owner = {iv: sid for sid, s0, s1 in atlas.strips for iv in s0 + s1}
    gluings = tuple(
        (a, b, flipped(p) if rev[owner[a]] ^ rev[owner[b]] else p) for a, b, p in atlas.gluings
    )
    return Atlas(tuple(strips), gluings)


def relabel(atlas: Atlas, rng: Random, tag: str = "") -> Atlas:
    """Same atlas under fresh strip and interval names, listed in a new order."""
    strip_ids = [sid for sid, _, _ in atlas.strips]
    intervals = [iv for _, s0, s1 in atlas.strips for iv in s0 + s1]
    strip_names = dict(zip(strip_ids, rng.sample(range(10 * len(strip_ids) + 10), len(strip_ids))))
    iv_names = dict(zip(intervals, rng.sample(range(10 * len(intervals) + 10), len(intervals))))
    strips = [
        (
            f"s{tag}{strip_names[sid]}",
            tuple(f"i{tag}{iv_names[iv]}" for iv in s0),
            tuple(f"i{tag}{iv_names[iv]}" for iv in s1),
        )
        for sid, s0, s1 in atlas.strips
    ]
    gluings = [glue(f"i{tag}{iv_names[a]}", f"i{tag}{iv_names[b]}", p) for a, b, p in atlas.gluings]
    rng.shuffle(strips)
    rng.shuffle(gluings)
    return Atlas(tuple(strips), tuple(gluings))


def random_isomorphic_copy(atlas: Atlas, rng: Random) -> Atlas:
    """A relabelled, reordered copy moved by a random side flip and leaf
    reversal per strip."""
    ids = [sid for sid, _, _ in atlas.strips]
    moved = transform(
        atlas,
        {sid: rng.getrandbits(1) for sid in ids},
        {sid: rng.getrandbits(1) for sid in ids},
    )
    return relabel(moved, rng, "x")


# ---------------------------------------------------------------------------
# chains: ladders and beaded necklaces


def ladder(n: int, bottom: int, top: int, rng: Random) -> Atlas:
    """``n`` strips stacked by full-side seams of seeded parity, with
    ``bottom`` free intervals under the first strip and ``top`` over the last."""
    strips, gluings = [], []
    for i in range(n):
        side0 = tuple(f"f{j}" for j in range(bottom)) if i == 0 else (f"d{i}",)
        side1 = tuple(f"g{j}" for j in range(top)) if i == n - 1 else (f"u{i}",)
        strips.append((f"L{i}", side0, side1))
        if i:
            gluings.append(glue(f"u{i - 1}", f"d{i}", rng.choice((INC, DEC))))
    return Atlas(tuple(strips), tuple(gluings))


def ladder_reduced(bottom: int, top: int) -> Atlas:
    """A ladder reduces to one strip carrying its outer free intervals."""
    return Atlas(
        (("L", tuple(f"f{j}" for j in range(bottom)), tuple(f"g{j}" for j in range(top))),),
        (),
    )


def beaded_necklace(m: int, beads: int, parities: str, rng: Random) -> tuple[Atlas, Atlas]:
    """``necklace(m)`` with every bead split into ``beads`` stacked strips by
    full-side seams of seeded parity; returns the atlas and the reduced atlas
    it must reduce to, up to isomorphism.

    Reversing the leaves of a strip is an isomorphism that flips the parity
    of each gluing with one end on it.  Doing so above every decreasing seam
    makes all seams of a bead increasing, so the bead merges into one strip
    whose top side is reversed, and whose outgoing gluings flipped, when the
    bead has an odd number of decreasing seams.
    """
    base = necklace(m, parities)
    strips, gluings = [], []
    odd = []
    for i in range(m):
        bottom, top = (f"c{i}", f"d{i}"), (f"a{i}", f"b{i}")
        flips = 0
        for k in range(beads):
            side0 = bottom if k == 0 else (f"v{i}_{k}",)
            side1 = top if k == beads - 1 else (f"u{i}_{k}",)
            strips.append((f"B{i}_{k}", side0, side1))
            if k:
                parity = rng.choice((INC, DEC))
                flips ^= parity == DEC
                gluings.append(glue(f"u{i}_{k - 1}", f"v{i}_{k}", parity))
        odd.append(flips)
    gluings.extend(base.gluings)
    owner = {iv: i for i in range(m) for iv in (f"a{i}", f"b{i}")}
    reduced = Atlas(
        tuple(
            (sid, s0, s1[::-1] if odd[i] else s1) for i, (sid, s0, s1) in enumerate(base.strips)
        ),
        tuple(
            (a, b, flipped(p) if odd[owner.get(a, owner.get(b))] else p) for a, b, p in base.gluings
        ),
    )
    return Atlas(tuple(strips), tuple(gluings)), reduced
