"""The value types: strips, gluings, atlases, leaf points, dual edges and
their parts are immutable, normalised, hashable, ordered by their fields
and picklable, as are the records that reduction, the kernel, the report,
the dual graph and selfcheck return; and every atlas the parser accepts
is valid."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripes.atlas
from bruteforce import validate_stepwise
from stripes.atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    canonical_form,
    parse_atlas,
    serialize_atlas,
    validate,
)
from stripes.corpus import necklace, random_atlas
from stripes.dualgraph import DualEdge, EdgeEnd, build_dual_graph
from stripes.fixtures import fixture_atlas
from stripes.leafspace import ArcEnd, Attachment, LeafPoint, build_leaf_space
from stripes.reduction import SurfaceClass, SurfaceKind, reduce_component
from stripes.selfcheck import CheckResult
from stripes.symmetry import homeotopy_report, leaf_action_kernel

PLUS, MINUS = Parity.INCREASING, Parity.DECREASING

# (builder, a field name) per type; each call builds a new equal value.
BUILDERS = [
    (lambda: Strip("S", ("a", "b"), ("c",)), "side0"),
    (lambda: Strip("T"), "id"),
    (lambda: Gluing("b", "a", MINUS), "a"),
    (lambda: ArcEnd("S", 1), "side"),
    (lambda: Attachment(ArcEnd("S", 0), 2), "index"),
    (lambda: LeafPoint(("b", "a")), "intervals"),
    (lambda: LeafPoint(("c",)), "intervals"),
    (lambda: EdgeEnd("S", 0, 1), "strip"),
    (lambda: DualEdge((EdgeEnd("T", 1, 0), EdgeEnd("S", 0, 1)), PLUS), "ends"),
    (lambda: StripedAtlas((Strip("S", ("a",), ("b",)),), (Gluing("b", "a", PLUS),)), "strips"),
    (lambda: parse_atlas("strip S\nside0 a\nside1 b\nglue a b +\n"), "gluings"),  # marked
    # The records.  Their kernels are trivial: a witness is of a slotted
    # class, which pickles its slots under protocols 0 and 1 only since
    # Python 3.11 gave every object a default ``__getstate__``.
    (lambda: reduce_component(fixture_atlas("LADDER")), "atlas"),
    (lambda: SurfaceClass(SurfaceKind.OPEN_MOEBIUS_BAND), "kind"),
    (lambda: leaf_action_kernel(fixture_atlas("PUNCTURED")), "witness"),
    (lambda: homeotopy_report(fixture_atlas("PUNCTURED")), "kernel"),
    (lambda: build_dual_graph(fixture_atlas("SAMESIDE")), "edges"),
    (lambda: CheckResult("N0", "hcl-symmetry", False, "drift"), "ok"),
]
IDS = [type(build()).__name__ for build, _ in BUILDERS]


def test_gluing_leaf_point_and_dual_edge_normalise():
    assert Gluing("b", "a", PLUS) == Gluing("a", "b", PLUS)
    assert (Gluing("b", "a", PLUS).a, Gluing("b", "a", PLUS).b) == ("a", "b")
    assert Gluing("b", "a", PLUS) != Gluing("a", "b", MINUS)
    assert LeafPoint(("b", "a")).intervals == ("a", "b")
    assert LeafPoint(["b", "a"]) == LeafPoint(("a", "b"))
    low, high = EdgeEnd("S", 0, 1), EdgeEnd("T", 1, 0)
    assert DualEdge((high, low), PLUS).ends == (low, high)
    assert DualEdge((high, low), PLUS) == DualEdge((low, high), PLUS)
    assert len({Gluing("b", "a", PLUS), Gluing("a", "b", PLUS)}) == 1
    assert len({LeafPoint(("b", "a")), LeafPoint(("a", "b"))}) == 1
    assert len({DualEdge((high, low), PLUS), DualEdge((low, high), PLUS)}) == 1


@pytest.mark.parametrize("build, field", BUILDERS, ids=IDS)
def test_equal_values_hash_equal(build, field):
    value, twin = build(), build()
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("build, field", BUILDERS, ids=IDS)
def test_values_are_immutable(build, field):
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == getattr(build(), field)


@pytest.mark.parametrize("build, field", BUILDERS, ids=IDS)
def test_pickle_round_trip(build, field):
    value = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and type(copy) is type(value)


def test_reprs_name_the_type_and_fields():
    assert repr(Gluing("b", "a", PLUS)) == (
        "Gluing(a='a', b='b', parity=<Parity.INCREASING: '+'>)"
    )
    assert repr(LeafPoint(("b", "a"))) == "LeafPoint(intervals=('a', 'b'))"
    assert repr(Strip("S")) == "Strip(id='S', side0=(), side1=())"
    assert repr(parse_atlas("strip S\nside0 a\nside1 b\nglue b a -\n")) == (
        "StripedAtlas(strips=(Strip(id='S', side0=('a',), side1=('b',)),), "
        "gluings=(Gluing(a='a', b='b', parity=<Parity.DECREASING: '-'>),))"
    )


def test_atlas_keeps_its_fields_as_tuples():
    # Keyword construction and list arguments give tuple fields; the
    # parser's mark takes no part in equality, hashing or the repr.
    strips, gluings = [Strip("S", ("a",), ("b",))], [Gluing("a", "b", MINUS)]
    atlas = StripedAtlas(gluings=gluings, strips=strips)
    assert (atlas.strips, atlas.gluings) == (tuple(strips), tuple(gluings))
    assert type(atlas.strips) is tuple and type(atlas.gluings) is tuple
    assert atlas == StripedAtlas(tuple(strips), tuple(gluings))
    parsed = parse_atlas("strip S\nside0 a\nside1 b\nglue a b -\n")
    assert parsed == atlas and hash(parsed) == hash(atlas) and repr(parsed) == repr(atlas)


def test_atlas_pickles_to_its_value_and_mark():
    atlas = parse_atlas(serialize_atlas(necklace(60)))
    size = len(pickle.dumps(atlas))
    canonical_form(atlas)
    atlas.locations, atlas.components  # noqa: B018
    assert len(pickle.dumps(atlas)) == size
    for twin in (pickle.loads(pickle.dumps(atlas)), copy.deepcopy(atlas), copy.copy(atlas)):
        assert twin == atlas and twin._parsed and "locations" not in vars(twin)
    assert not pickle.loads(pickle.dumps(necklace(3)))._parsed


def test_unpickled_parsed_atlas_keeps_the_parsers_mark(monkeypatch):
    copied = pickle.loads(pickle.dumps(fixture_atlas("LADDER")))

    def walked(*args):
        raise AssertionError("validate checked a parsed atlas")

    monkeypatch.setattr(stripes.atlas, "_distinct", walked)
    assert validate(copied) == []
    with pytest.raises(AssertionError):
        validate(StripedAtlas(copied.strips, copied.gluings))


def field_key(value):
    """The order a value had as a frozen ``order=True`` dataclass: its
    fields as a plain tuple, recursively."""
    if isinstance(value, tuple):
        return tuple(field_key(part) for part in value)
    return value


def assert_field_order(atlas):
    points = build_leaf_space(atlas).points
    assert [field_key(p) for p in points] == sorted(field_key(p) for p in points)
    edges = build_dual_graph(atlas).edges
    # Seam ends are distinct, so the parity never decides the order.
    keys = [field_key(e.ends) for e in edges]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_points_and_edges_keep_their_order(fixtures, exhaustive_all):
    for atlas in [*fixtures.values(), *exhaustive_all]:
        assert_field_order(atlas)
    for seed in range(50):
        assert_field_order(random_atlas(1 + seed % 6, 3, 4_000 + seed, 0.6))


def test_points_and_edges_on_a_pinned_atlas():
    atlas = parse_atlas(
        "strip T\nside0 z y x\nside1 b\nstrip A\nside0 c a\nside1 w\n"
        "glue y b -\nglue a z +\nglue w x +\n"
    )
    points = build_leaf_space(atlas).points
    assert [p.label() for p in points] == ["{a,z}", "{b,y}", "{c}", "{w,x}"]
    assert [e.label() for e in build_dual_graph(atlas).edges] == [
        "A.0[1]--T.0[0] +",
        "A.1[0]--T.0[2] +",
        "T.0[1]--T.1[0] -",
    ]


@st.composite
def atlas_texts(draw):
    """Short texts over a few names, directives and parities: strips with
    their sides, then gluings.  Many break a rule, many parse."""
    names = st.sampled_from(["a", "b", "c", "d", "e", "f"])
    intervals = draw(st.lists(names, max_size=6, unique=draw(st.booleans())))
    lines, unplaced = [], list(intervals)
    for _ in range(draw(st.integers(1, 3))):
        lines.append(f"strip {draw(st.sampled_from(['S', 'T', 'U', 'V', 'a']))}")
        for k in draw(st.sampled_from([(), (0,), (1,), (0, 1), (1, 0), (1, 1)])):
            take = draw(st.integers(0, 3))
            lines.append(f"side{k} " + " ".join(unplaced[:take]))
            unplaced = unplaced[take:]
    # Pairs of distinct intervals first, then any pair, which may break a rule.
    order = draw(st.permutations(intervals))
    pairs = list(zip(order[::2], order[1::2]))[: draw(st.integers(0, 3))]
    ends = st.sampled_from([*intervals, "z"])
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=1))
    for a, b in pairs:
        lines.append(f"glue {a} {b} {draw(st.sampled_from(['+', '-', '+', '-', '*']))}")
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(atlas_texts())
def test_parsed_atlases_are_valid(text):
    # The parser rejects each violation validate reports, so the CLI
    # validates every file once, while parsing it, and validate trusts the
    # parser's mark.  The same atlas rebuilt unmarked takes the full route,
    # which proves the mark right on every text the parser accepts.
    try:
        atlas = parse_atlas(text)
    except ValueError:
        return
    problems = validate(atlas)
    assert problems == [] and validate(atlas) is not problems
    rebuilt = StripedAtlas(atlas.strips, atlas.gluings)
    assert validate(rebuilt) == [] == validate_stepwise(rebuilt)
