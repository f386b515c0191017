"""``parse_atlas`` against the line-by-line oracle ``parse_atlas_stepwise``.

On every text, valid or not, both parsers must return the same strips and
gluings in the same order, or raise ``AtlasError`` with the same message
and line.  The texts mix real directives with unknown and reserved words,
repeat strip and interval names within a line and across lines, glue
intervals declared later, add comments, and separate tokens and lines by
every kind of whitespace ``str.split`` and ``str.splitlines`` know.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import parse_atlas_stepwise
from stripes.atlas import AtlasError, parse_atlas, serialize_atlas
from stripes.corpus import exhaustive_family, necklace, random_atlas

# Few names, so repeats are common; some are keywords or parity symbols.
NAMES = ("a", "b", "c", "d", "S", "T", "strip", "side0", "glue", "+", "-")
KEYWORDS = ("strip", "side0", "side1", "glue", "Strip", "side2", "frobnicate", "+")
SPACES = (" ", "  ", "\t", "\x0b", "\x0c", "\xa0")
NEWLINES = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028")


def outcome(parse, text: str):
    try:
        atlas = parse(text)
    except AtlasError as err:
        return "error", str(err), err.line
    return (
        "atlas",
        atlas.strips,
        atlas.gluings,
        [type(x).__name__ for x in atlas.strips + atlas.gluings],
    )


def same_as_oracle(text: str) -> bool:
    return outcome(parse_atlas, text) == outcome(parse_atlas_stepwise, text)


@st.composite
def directive(draw) -> list[str]:
    # Mostly well-formed directives, so that later faults are reached.
    keyword = draw(st.sampled_from(KEYWORDS + ("strip", "side0", "side1", "glue") * 3))
    if draw(st.integers(0, 3)) == 0:
        return [keyword, *draw(st.lists(st.sampled_from(NAMES), max_size=4))]
    if keyword == "strip":
        return [keyword, draw(st.sampled_from(NAMES))]
    if keyword == "glue":
        pair = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=2))
        return [keyword, *pair, draw(st.sampled_from(("+", "-", "+", "-", "*", "++")))]
    return [keyword, *draw(st.lists(st.sampled_from(NAMES), max_size=3))]


@st.composite
def soup(draw) -> str:
    """Lines of directives, blanks and comments, joined by random whitespace;
    ``\\x0b`` and ``\\x0c`` split lines as well as tokens."""
    directives = draw(st.lists(st.one_of(directive(), st.just([])), max_size=12))
    if draw(st.integers(0, 3)):
        directives.insert(0, ["strip", draw(st.sampled_from(NAMES))])
    space = draw(st.sampled_from(SPACES))
    lines = []
    for tokens in directives:
        line = draw(st.sampled_from(("", " ", "\t"))) + space.join(tokens)
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(("#", " # glue a b +", "#strip S\t")))
        lines.append(line)
    return "".join(line + draw(st.sampled_from(NEWLINES)) for line in lines)


@st.composite
def mangled(draw) -> str:
    """A serialized random atlas, its lines shuffled or dropped, with random
    separators: glues move before the intervals they name, and side lines
    may come before any strip or twice for one strip."""
    atlas = random_atlas(
        draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 10**6))
    )
    lines = serialize_atlas(atlas).splitlines()
    lines = draw(st.permutations(lines)) if draw(st.booleans()) else lines
    if lines and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), lines[draw(st.integers(0, len(lines) - 1))])
    space, newline = draw(st.sampled_from(SPACES)), draw(st.sampled_from(NEWLINES))
    return "".join(line.replace(" ", space) + newline for line in lines)


@st.composite
def structured(draw) -> str:
    """Well-formed lines over a small name pool: repeated interval names
    within and across side lines, and glues anywhere, of known intervals
    or not."""
    pool = st.sampled_from("abcdefgz")
    lines = []
    for k in range(draw(st.integers(1, 4))):
        lines.append(f"strip S{k}")
        for side in draw(st.sampled_from(((), ("side0",), ("side1",), ("side0", "side1")))):
            lines.append(" ".join([side, *draw(st.lists(pool, max_size=3))]))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(pool), draw(pool)
        line = f"glue {a} {b} {draw(st.sampled_from('+-'))}"
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.one_of(soup(), mangled(), structured()))
def test_parser_matches_stepwise_oracle(text):
    assert same_as_oracle(text)


def test_parser_matches_oracle_on_serialized_corpora():
    texts = [serialize_atlas(a) for a in exhaustive_family(2, 1)]
    texts += [serialize_atlas(random_atlas(1 + s % 30, 3, 60_000 + s, 0.9)) for s in range(60)]
    texts += [serialize_atlas(necklace(n)) for n in range(3, 9)]
    assert all(same_as_oracle(text) for text in texts)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "strip S\r\nside0 a\tb\r\nstrip T\x0bside1 c\x0cglue a c -\n",
        "glue a b +\nstrip S\nside0 a b\n",
        "strip S # side0 x\nside0 a#b\nside1 b\n",
        "strip S\nside0 side0 side1\nside1 glue strip\nglue side0 glue +\n",
        "strip S\nside0\nside0\n",
        "strip S\nside0 a b a\n",
        "strip S\nside0 a\nstrip T\nside1 b a\n",
        "strip S\nside0 a\nglue a zz +\nglue yy a -\n",
        "strip S\nside0 a b\nglue zz yy +\n",
        "strip S\nglue a a +\nstrip S\n",
    ],
)
def test_parser_matches_oracle_on_edge_cases(text):
    assert same_as_oracle(text)
