"""Brute-force oracles for the witness search.

Both routes try every one of the n!·4^n candidate triples (strip
assignment, side flip bits, reversal bits), so they are only usable on a
few strips.  The package's rooted traversal is checked against them.
"""

from __future__ import annotations

import itertools

from stripes.atlas import Gluing, Strip, StripedAtlas, is_valid_witness, serialize_atlas


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


def canonical_form(atlas: StripedAtlas) -> str:
    """Least text over every relabelling onto strips T1..Tn."""
    target = StripedAtlas(
        tuple(Strip(f"T{i}") for i in range(1, len(atlas.strips) + 1)), ()
    )
    return min(
        serialize_atlas(_relabelled(atlas, *w)) for w in _candidates(atlas, target)
    )
