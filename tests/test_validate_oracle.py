"""``validate`` against the walk oracle ``validate_stepwise``.

``validate`` accepts a valid atlas by whole-atlas set sizes and one join
and split of its identifiers, and walks only an atlas that fails them.
On every atlas value, valid or not, it must return what the oracle
returns: the same problems in the same order, and never raise.  The
atlases are built by hand, not through the parser: strip ids and
intervals repeat, intervals are glued to themselves, twice or to unknown
names, identifiers are empty, hold whitespace or ``#``, are not strings
or cannot be hashed, and parities are not ``Parity`` members.  The
package's corpora must validate, and at scale an atlas with one fault on
its last strip or gluing must be walked to the oracle's problems.
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
FAULTS = ("strip id", "interval", "self", "twice", "unknown", "identifier", "end", "parity")


@st.composite
def hand_built(draw) -> StripedAtlas:
    """A valid atlas of up to three strips and six intervals, then up to
    three faults: a repeated strip id or interval, a gluing of an interval
    to itself, a second gluing of a glued interval, a gluing to an unknown
    name, an odd strip id, interval or gluing end, or a parity that is not
    a ``Parity`` member."""
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
    return StripedAtlas(
        tuple(Strip(sid, tuple(side0), tuple(side1)) for sid, side0, side1 in strips),
        tuple(tuple.__new__(Gluing, tuple(g)) for g in gluings),
    )


@settings(max_examples=600, deadline=None)
@given(hand_built())
def test_validate_matches_stepwise_oracle(atlas):
    problems = validate(atlas)
    assert problems == validate_stepwise(atlas)
    if not problems:  # what validate accepts, the text format carries
        again = parse_atlas(serialize_atlas(atlas))
        assert again.strips == atlas.strips
        assert again.gluings == tuple(Gluing(*g) for g in atlas.gluings)


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
    ],
    ids=["unhashable-strip-id", "unhashable-interval", "unhashable-glue-end", "str-parity"],
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
