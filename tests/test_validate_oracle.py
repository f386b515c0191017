"""``validate`` against the walk oracle ``validate_stepwise``.

``validate`` returns ``[]`` at once for an atlas that ``parse_atlas``
marked, and walks any other atlas.  On every atlas value, valid or not,
it must return what the oracle returns: the same problems in the same
order, and never raise.  The atlases are built by hand, not through the
parser: strip ids and intervals repeat, intervals are glued to
themselves, twice or to unknown names, sides are not tuples, identifiers
are empty, hold whitespace or ``#``, are not strings or cannot be
hashed, and parities are not ``Parity`` members.  The oracle is a copy
of the walk, so the verdict is also checked against the text format,
which shares no code with it: an atlas is valid exactly when
``parse_atlas(serialize_atlas(atlas))`` gives it back.  The package's
corpora must validate, and at scale an atlas with one fault on its last
strip or gluing must be walked to the oracle's problems.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import validate_stepwise
from stripes.atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    parse_atlas,
    serialize_atlas,
    validate,
)
from stripes.corpus import exhaustive_family, necklace, random_atlas, random_connected_atlas
from test_reduction_oracle import chain

# Names the text format cannot carry: empty, with whitespace that
# str.split knows (\x1c, \xa0, \u2028) or "#", not a str, or unhashable.
ODD = ("", "a b", "x\x1c", "\xa0", "y\u2028", "#", "a#b", 3, None, b"a", ("a",), ["a"])
BAD_PARITIES = ("+", "-", None, 0, ["+"])
FAULTS = ("strip id", "interval", "self", "twice", "unknown", "side", "identifier", "end", "parity")
# What a side fault makes of a side's names: a side that is not a tuple.
SIDE_FORMS = (lambda names: None, lambda names: "".join(map(str, names)), list)


@st.composite
def hand_built(draw) -> StripedAtlas:
    """A valid atlas of up to three strips and six intervals, then up to
    three faults: a repeated strip id or interval, a gluing of an interval
    to itself, a second gluing of a glued interval, a gluing to an unknown
    name, a side that is ``None``, a ``str`` or a ``list``, an odd strip
    id, interval or gluing end, or a parity that is not a ``Parity``
    member."""
    ids = draw(st.lists(st.sampled_from("STU"), max_size=3, unique=True))
    names = draw(st.lists(st.sampled_from("abcdef"), max_size=6, unique=True)) if ids else []
    strips = [[sid, [], []] for sid in ids]
    for name in names:
        strips[draw(st.integers(0, len(ids) - 1))][draw(st.integers(1, 2))].append(name)
    order = draw(st.permutations(names))
    count = max(0, len(names) // 2 - draw(st.integers(0, 1)))
    gluings = [
        [order[2 * k], order[2 * k + 1], draw(st.sampled_from(list(Parity)))] for k in range(count)
    ]
    anything = st.sampled_from(["z", *ODD, *names])
    forms = {}  # (strip index, 1 or 2) -> the form of that side
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        if fault == "strip id" and strips:
            strips.append([draw(st.sampled_from(strips))[0], [], []])
        elif fault == "interval" and names:
            draw(st.sampled_from(strips))[draw(st.integers(1, 2))].append(draw(st.sampled_from(names)))
        elif fault == "self":
            name = draw(anything)
            gluings.append([name, name, Parity.INCREASING])
        elif fault == "twice" and gluings:
            glued = draw(st.sampled_from(gluings))[draw(st.integers(0, 1))]
            gluings.append([glued, draw(anything), Parity.DECREASING])
        elif fault == "unknown":
            gluings.append([draw(anything), draw(st.sampled_from(["z", *ODD])), Parity.INCREASING])
        elif fault == "side" and strips:
            at = (draw(st.integers(0, len(strips) - 1)), draw(st.integers(1, 2)))
            forms[at] = draw(st.sampled_from(SIDE_FORMS))
        elif fault == "identifier" and strips:
            strip = draw(st.sampled_from(strips))
            where = strip[1] + strip[2]
            if where and draw(st.booleans()):
                side = strip[1] if strip[1] else strip[2]
                side[draw(st.integers(0, len(side) - 1))] = draw(st.sampled_from(ODD))
            else:
                strip[0] = draw(st.sampled_from(ODD))
        elif fault == "end" and gluings:
            draw(st.sampled_from(gluings))[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD))
        elif fault == "parity" and gluings:
            draw(st.sampled_from(gluings))[2] = draw(st.sampled_from(BAD_PARITIES))
    # Gluings are built as given: Gluing() would order a and b, and mixed
    # types do not order.
    side = lambda k, slot: forms.get((k, slot), tuple)(strips[k][slot])
    return StripedAtlas(
        tuple(Strip(strip[0], side(k, 1), side(k, 2)) for k, strip in enumerate(strips)),
        tuple(tuple.__new__(Gluing, tuple(g)) for g in gluings),
    )


def round_trips(atlas: StripedAtlas) -> bool:
    """Whether the text format carries ``atlas``: it serializes and parses
    back to the same strips and the same gluings, each with its ends in
    either order (the parser orders them)."""
    try:
        again = parse_atlas(serialize_atlas(atlas))
    except Exception:  # the format cannot carry it, however that shows
        return False
    return (
        again.strips == atlas.strips
        and len(again.gluings) == len(atlas.gluings)
        and all(
            h.parity is g[2] and (h.a, h.b) in ((g[0], g[1]), (g[1], g[0]))
            for h, g in zip(again.gluings, atlas.gluings)
        )
    )


@settings(max_examples=600, deadline=None)
@given(hand_built())
def test_validate_matches_stepwise_oracle(atlas):
    problems = validate(atlas)
    assert problems == validate_stepwise(atlas)
    # What validate accepts the text format carries, and what it rejects
    # the format does not: a verdict oracle that shares no code with the walk.
    assert round_trips(atlas) == (not problems), problems


@pytest.mark.parametrize(
    "atlas, problem",
    [
        (
            StripedAtlas((Strip(["x"], ("a",), ()),), ()),
            "identifier ['x'] is not one token of the text format",
        ),
        (
            StripedAtlas((Strip("S", (["a"], "b"), ()),), ()),
            "identifier ['a'] is not one token of the text format",
        ),
        (
            StripedAtlas(
                (Strip("S", ("a",), ()),), (tuple.__new__(Gluing, (["a"], "a", Parity.INCREASING)),)
            ),
            "identifier ['a'] is not one token of the text format",
        ),
        (
            StripedAtlas((Strip("S", ("a", "b"), ()),), (Gluing("a", "b", "+"),)),
            "gluing of 'a' and 'b' has parity '+', not '+' or '-'",
        ),
        (StripedAtlas((Strip("S", None, ()),), ()), "side0 of strip 'S' is not a tuple of identifiers"),
        (StripedAtlas((Strip("S", "ab", ()),), ()), "side0 of strip 'S' is not a tuple of identifiers"),
        (StripedAtlas((Strip("S", ["a"], ()),), ()), "side0 of strip 'S' is not a tuple of identifiers"),
    ],
    ids=[
        "unhashable-strip-id",
        "unhashable-interval",
        "unhashable-glue-end",
        "str-parity",
        "none-side",
        "str-side",
        "list-side",
    ],
)
def test_validate_reports_what_used_to_raise_or_pass(atlas, problem):
    assert validate(atlas) == [problem] == validate_stepwise(atlas)


def corpora():
    yield from exhaustive_family(2, 2)
    for seed in range(200):
        glue = (0.3, 0.6, 0.9, 1.0)[seed % 4]
        yield random_atlas(1 + seed % 12, 1 + seed % 3, 90_000 + seed, glue)
        yield random_connected_atlas(1 + seed % 6, 2, 91_000 + seed)
    for n in range(1, 9):
        yield necklace(n)


def test_corpora_validate():
    count = 0
    for atlas in corpora():
        count += 1
        assert validate(atlas) == [], atlas
    assert count == 16_428 + 400 + 8


def faulty_copies(atlas: StripedAtlas) -> list[StripedAtlas]:
    """One fault each, where a walk finds it last: the last strip repeats
    the atlas's first interval, and the last gluing's first end is glued
    to itself."""
    last = atlas.strips[-1]
    repeated = last._replace(side1=last.side1 + (atlas.intervals()[0],))
    out = [StripedAtlas(atlas.strips[:-1] + (repeated,), atlas.gluings)]
    g = atlas.gluings[-1]
    out.append(StripedAtlas(atlas.strips, atlas.gluings[:-1] + (Gluing(g.a, g.a, g.parity),)))
    return out


@pytest.mark.parametrize(
    "atlas",
    [necklace(240), random_atlas(240, 3, 5, 0.95), chain(240, 2, False)],
    ids=["necklace", "random", "ladder"],
)
def test_validate_matches_oracle_at_scale_with_a_last_fault(atlas):
    assert validate(atlas) == [] == validate_stepwise(atlas)
    for faulty in faulty_copies(atlas):
        problems = validate(faulty)
        assert problems and problems == validate_stepwise(faulty)
