"""``parse_atlas`` against the line-by-line oracle ``parse_atlas_stepwise``.

On every text, valid or not, both parsers must return the same strips and
gluings in the same order, or raise ``AtlasError`` with the same message
and line.  The texts mix real directives with unknown and reserved words,
repeat strip and interval names within a line and across lines, glue
intervals declared later, add comments, and separate tokens and lines by
every kind of whitespace ``str.split`` and ``str.splitlines`` know.  At
scale, serialized atlases of 200 to 240 strips get one fault each on their
first or last line, so the whole-text checks must hand every kind of fault
to the line walk, which must find the same first fault as the oracle.
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


def fault_lines(atlas) -> dict[str, list[str]]:
    """One fault each, as the lines that carry it; a side line needs a strip."""
    intervals, gluings = atlas.intervals(), atlas.gluings
    middle = intervals[len(intervals) // 2]
    glued = gluings[0].a  # not on the last line
    other = next(name for name in intervals if name != glued)
    last = gluings[-1]  # the last line: in its place, a wrong parity is the only fault
    assert not {"zz0", "zz1"} & set(intervals) and "Q" not in atlas.strip_ids
    return {
        "duplicate interval": ["strip Q", f"side0 {middle}"],
        "duplicate strip id": [f"strip {atlas.strips[len(atlas.strips) // 2].id}"],
        "unknown glued interval": ["glue zz0 zz1 +"],
        "interval glued twice": [f"glue {other} {glued} -"],
        "self-glue": [f"glue {middle} {middle} +"],
        "parity *": [f"glue {last.a} {last.b} *"],
        "side0 given twice": ["strip Q", "side0", "side0"],
        "side line before any strip": ["side1 zz0"],
        "unknown directive": ["frobnicate"],
        "3-token glue": [f"glue {glued} {other}"],
        "strip A B": ["strip A B"],
    }


def mutants(atlas) -> list[str]:
    """The serialized atlas with each fault before its first line or after
    its last, and a one-line fault in place of its first or last line; a
    side line before any strip only at the head."""
    lines = serialize_atlas(atlas).splitlines()
    texts = []
    for kind, fault in fault_lines(atlas).items():
        head = [fault + lines] + ([fault + lines[1:]] if len(fault) == 1 else [])
        tail = [lines + fault] + ([lines[:-1] + fault] if len(fault) == 1 else [])
        variants = head if kind == "side line before any strip" else head + tail
        texts += ["\n".join(variant) + "\n" for variant in variants]
    return texts


def test_parser_matches_oracle_at_scale_with_first_and_last_line_faults():
    atlases = [necklace(200)] + [random_atlas(240, 3, seed, 0.9) for seed in (1, 2, 3)]
    for atlas in atlases:
        text = serialize_atlas(atlas)
        assert same_as_oracle(text) and parse_atlas(text) == atlas
        texts = mutants(atlas)
        assert len(texts) == 38
        for mutant in texts:
            assert outcome(parse_atlas_stepwise, mutant)[0] == "error", mutant[:80]
            assert same_as_oracle(mutant), outcome(parse_atlas, mutant)
