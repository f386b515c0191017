"""Seeded random atlases, the exhaustive small-atlas family and necklaces.

The random generator is deterministic in its arguments.  Distribution,
for ``random_atlas(strips, max_intervals_per_side, seed, glue_probability)``:
strips are named S1..Sn; each side independently receives a uniform
0..max count of intervals; each interval independently enters the gluing
pool with probability ``glue_probability`` (in [0, 1]); the pool is
shuffled and consumed in consecutive pairs (an odd leftover stays free)
with a fair parity coin per pair.  Results are always valid atlases.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterable, Iterator

from .atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    canonical_form,
    is_connected,
)

MAX_ATTEMPTS = 1000  # sub-seeds random_connected_atlas tries before it gives up


def random_atlas(
    strips: int,
    max_intervals_per_side: int,
    seed: int,
    glue_probability: float = 0.75,
) -> StripedAtlas:
    """Deterministic random atlas; see the module docstring for the law."""
    if strips < 1:
        raise ValueError("need at least one strip")
    if max_intervals_per_side < 0:
        raise ValueError("interval bound must be >= 0")
    if not 0 <= glue_probability <= 1:
        raise ValueError("glue probability must lie in [0, 1]")
    rng = Random(seed)

    built = []
    for i in range(1, strips + 1):
        name = f"S{i}"
        sides = []
        for side_tag in ("a", "b"):
            count = rng.randint(0, max_intervals_per_side)
            sides.append(tuple(f"{name}{side_tag}{j}" for j in range(count)))
        built.append(Strip(name, sides[0], sides[1]))

    pool = [
        interval
        for strip in built
        for interval in strip.intervals
        if rng.random() < glue_probability
    ]
    rng.shuffle(pool)
    gluings = []
    while len(pool) >= 2:
        a = pool.pop()
        b = pool.pop()
        gluings.append(Gluing(a, b, rng.choice((Parity.INCREASING, Parity.DECREASING))))

    return StripedAtlas(tuple(built), tuple(gluings))


def random_connected_atlas(
    strips: int,
    max_intervals_per_side: int,
    seed: int,
    glue_probability: float = 0.75,
) -> StripedAtlas:
    """First connected atlas along a deterministic sequence of sub-seeds."""
    for attempt in range(MAX_ATTEMPTS):
        candidate = random_atlas(
            strips, max_intervals_per_side, seed + 7919 * attempt, glue_probability
        )
        if is_connected(candidate):
            return candidate
    raise RuntimeError(
        f"no connected atlas found in {MAX_ATTEMPTS} attempts for seed {seed}"
    )


def necklace(n: int, parities: str | None = None) -> StripedAtlas:
    """Strips N0..N(n-1) with two intervals per side, side 1 of each glued
    to side 0 of the next, cyclically, by two gluings of parity
    ``parities[i]`` (``+`` everywhere by default).  Every strip sits
    between two branch points, so the atlas is reduced, and the all-``+``
    necklace has 4n automorphisms: the worst case of the witness search.
    Raises ``ValueError`` unless n >= 1 and there are n parities."""
    parities = "+" * n if parities is None else parities
    if n < 1 or len(parities) != n:
        raise ValueError(f"a necklace needs n >= 1 strips and n parities, got {n}")
    strips = [Strip(f"N{i}", (f"c{i}", f"d{i}"), (f"a{i}", f"b{i}")) for i in range(n)]
    gluings = []
    for i, symbol in enumerate(parities):
        parity = Parity.from_symbol(symbol)
        gluings.append(Gluing(f"a{i}", f"c{(i + 1) % n}", parity))
        gluings.append(Gluing(f"b{i}", f"d{(i + 1) % n}", parity))
    return StripedAtlas(tuple(strips), tuple(gluings))


def _partial_matchings(items: tuple[str, ...]) -> Iterator[tuple[tuple[str, str], ...]]:
    """All ways to pair off some of the items into disjoint unordered pairs."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    # head unmatched
    for matching in _partial_matchings(rest):
        yield matching
    # head matched with each later item
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for matching in _partial_matchings(remaining):
            yield ((head, partner),) + matching


def exhaustive_family(
    max_strips: int = 2, max_intervals_per_side: int = 2
) -> Iterator[StripedAtlas]:
    """Every valid atlas within the given size bounds, with duplicates.

    All strip counts, side sizes, pairings and parity patterns; intervals
    are named positionally.  Use :func:`dedup_by_isomorphism` to keep one
    representative per isomorphism class.
    """
    sizes = range(max_intervals_per_side + 1)
    for count in range(1, max_strips + 1):
        names = [f"S{i}" for i in range(1, count + 1)]
        for shape in itertools.product(sizes, repeat=2 * count):
            strips = []
            for i, name in enumerate(names):
                side0 = tuple(f"{name}a{j}" for j in range(shape[2 * i]))
                side1 = tuple(f"{name}b{j}" for j in range(shape[2 * i + 1]))
                strips.append(Strip(name, side0, side1))
            intervals = tuple(iv for s in strips for iv in s.intervals)
            for matching in _partial_matchings(intervals):
                for parities in itertools.product(
                    (Parity.INCREASING, Parity.DECREASING), repeat=len(matching)
                ):
                    gluings = tuple(
                        Gluing(a, b, parity)
                        for (a, b), parity in zip(matching, parities)
                    )
                    yield StripedAtlas(tuple(strips), gluings)


def dedup_by_isomorphism(atlases: Iterable[StripedAtlas]) -> list[StripedAtlas]:
    """One representative per isomorphism class, input order preserved."""
    seen: set[str] = set()
    out: list[StripedAtlas] = []
    for atlas in atlases:
        key = canonical_form(atlas)
        if key not in seen:
            seen.add(key)
            out.append(atlas)
    return out
