from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripes.atlas import (
    AtlasError,
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    canonical_form,
    connected_components,
    component_atlases,
    isomorphic,
    is_valid_witness,
    iter_witnesses,
    parse_atlas,
    serialize_atlas,
    validate,
)
from stripes.corpus import necklace, random_atlas, random_connected_atlas


def test_parse_cyl(fixtures):
    atlas = fixtures["CYL"]
    assert atlas.strip_ids == ("S",)
    assert atlas.strip("S").side0 == ("a",)
    assert atlas.strip("S").side1 == ("b",)
    assert atlas.gluings == (Gluing("a", "b", Parity.INCREASING),)
    assert atlas.intervals() == ("a", "b")


def test_parse_plane_is_empty(fixtures):
    atlas = fixtures["PLANE"]
    assert len(atlas.strips) == 1
    assert atlas.intervals() == ()
    assert atlas.gluings == ()


def test_parse_preserves_identifiers():
    atlas = parse_atlas("strip Weird.Name\nside0 x-1 y_2\n")
    assert atlas.strip_ids == ("Weird.Name",)
    assert atlas.strip("Weird.Name").side0 == ("x-1", "y_2")


def test_parse_comments_and_blank_lines():
    text = "# header\n\nstrip S  # trailing\nside0 a # intervals\n"
    atlas = parse_atlas(text)
    assert atlas.strip("S").side0 == ("a",)


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("strip S\nglue a a +", "glued to itself", 2),
        ("strip S\nside0 a\nstrip T\nside0 a", "duplicate interval", 4),
        ("strip S\nstrip S", "duplicate strip", 2),
        ("strip S\nside0 a b\nglue a b *", "parity", 3),
        ("side0 a", "before any strip", 1),
        ("strip S\nside0 a\nside0 b", "given twice", 3),
        ("strip S\nfrobnicate x", "unknown directive", 2),
        ("strip S\nside0 a b c\nglue a b +\nglue b c +", "glued twice", 4),
        ("strip S\nside0 a\nglue a zz +", "unknown interval", 3),
        ("strip S\nglue a +", "expected: glue", 2),
        ("strip S\nside0 a a", "duplicate interval", 2),
        ("strip S\nside0 a\nside0 b\nstrip S", "given twice", 3),
        ("strip S\nside0 a b\nglue a b *\nside1 a", "parity", 3),
        ("strip S\nglue a zz +\nfrobnicate", "unknown directive", 3),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(AtlasError) as err:
        parse_atlas(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_gluing_is_an_unordered_pair():
    assert Gluing("b", "a", Parity.INCREASING) == Gluing("a", "b", Parity.INCREASING)
    assert Gluing("b", "a", Parity.INCREASING).a == "a"


def test_parity_is_direction_independent():
    assert Parity.INCREASING.xor(1) is Parity.DECREASING
    assert Parity.INCREASING.xor(2) is Parity.INCREASING
    assert Parity.DECREASING.flipped() is Parity.INCREASING


@pytest.mark.parametrize("name", ["PLANE", "HALFPLANE", "CYL", "MOEB", "SAMESIDE", "PUNCTURED", "LADDER"])
def test_fixtures_validate(fixtures, name):
    assert validate(fixtures[name]) == []


def test_validate_reports_multiply_glued():
    atlas = StripedAtlas(
        (Strip("S", ("a", "b", "c"), ()),),
        (Gluing("a", "b", Parity.INCREASING), Gluing("a", "c", Parity.INCREASING)),
    )
    assert any("multiply glued" in p for p in validate(atlas))


def test_validate_reports_self_gluing_and_unknown():
    atlas = StripedAtlas(
        (Strip("S", ("a",), ()),),
        (Gluing("a", "a", Parity.INCREASING), Gluing("a", "zz", Parity.DECREASING)),
    )
    problems = validate(atlas)
    assert any("glued to itself" in p for p in problems)
    assert any("unknown interval" in p for p in problems)


def test_validate_reports_duplicate_interval():
    atlas = StripedAtlas((Strip("S", ("a",), ("a",)),), ())
    assert any("more than once" in p for p in validate(atlas))


@pytest.mark.parametrize(
    "atlas, fragment",
    [
        (StripedAtlas((Strip("a#b"),), ()), "identifier 'a#b'"),
        (StripedAtlas((Strip("S", ("x y",)),), ()), "identifier 'x y'"),
        (StripedAtlas((Strip(""),), ()), "identifier ''"),
        (StripedAtlas((Strip("S", ("a", "\tb")),), ()), "identifier '\\tb'"),
    ],
)
def test_validate_reports_identifiers_the_text_format_cannot_carry(atlas, fragment):
    problems = validate(atlas)
    assert [p for p in problems if fragment in p and "one token" in p], problems


# Plain names, so that many atlases validate, and names the text format
# cannot carry: empty, with "#", or with whitespace.
IDENTIFIERS = st.one_of(
    st.text(alphabet="abc", min_size=1, max_size=2),
    st.text(alphabet="ab#\t \x0b\xa0\u2028", max_size=3),
)


@st.composite
def hand_built_atlases(draw) -> StripedAtlas:
    names = draw(st.lists(IDENTIFIERS, max_size=6, unique=True))
    cut = sorted(draw(st.lists(st.integers(0, len(names)), min_size=3, max_size=3)))
    ids = draw(st.lists(IDENTIFIERS, min_size=1, max_size=2, unique=True))
    strips = (Strip(ids[0], tuple(names[: cut[0]]), tuple(names[cut[0] : cut[1]])),)
    if len(ids) > 1:
        strips += (Strip(ids[1], tuple(names[cut[1] : cut[2]]), tuple(names[cut[2] :])),)
    pairs = []
    if names:
        pairs = draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2), max_size=2))
    gluings = tuple(Gluing(a, b, draw(st.sampled_from(list(Parity)))) for a, b in pairs)
    return StripedAtlas(strips, gluings)


@settings(max_examples=300, deadline=None)
@given(hand_built_atlases())
def test_valid_atlases_survive_the_text_format(atlas):
    if validate(atlas):
        return
    again = parse_atlas(serialize_atlas(atlas))
    assert (again.strips, again.gluings) == (atlas.strips, atlas.gluings)


def test_validate_never_raises_on_nonsense():
    atlas = StripedAtlas(
        (Strip("S"), Strip("S")),
        (Gluing("x", "y", Parity.INCREASING),),
    )
    assert validate(atlas)  # reports, does not raise


@pytest.mark.parametrize(
    "name, count", [("PUNCTURED", 1), ("CYL", 1), ("LADDER", 1), ("PLANE", 1)]
)
def test_connected_components_of_fixtures(fixtures, name, count):
    assert len(connected_components(fixtures[name])) == count


def test_two_planes_are_disconnected():
    atlas = parse_atlas("strip S\nstrip T\n")
    assert connected_components(atlas) == (frozenset({"S"}), frozenset({"T"}))
    subs = component_atlases(atlas)
    assert [a.strip_ids for a in subs] == [("S",), ("T",)]


def test_component_atlases_returns_a_connected_atlas_itself(fixtures):
    for atlas in [*fixtures.values(), necklace(5), random_connected_atlas(6, 2, 3)]:
        assert component_atlases(atlas) == (atlas,)
        assert component_atlases(atlas)[0] is atlas


def _split_by_components(atlas: StripedAtlas) -> list[tuple]:
    # Each component's strips and gluings in atlas order.
    return [
        (
            tuple(s for s in atlas.strips if s.id in component),
            tuple(g for g in atlas.gluings if atlas.location(g.a)[0] in component),
        )
        for component in connected_components(atlas)
    ]


def test_component_atlases_of_disconnected_inputs():
    for seed in range(100):
        atlas = random_atlas(2 + seed % 9, 2, 40_000 + seed, 0.6)
        parts = component_atlases(atlas)
        assert [(p.strips, p.gluings) for p in parts] == _split_by_components(atlas)
        assert len(parts) == 1 or all(p is not atlas for p in parts)


def test_free_intervals(fixtures):
    assert fixtures["HALFPLANE"].free_intervals == ("a",)
    assert fixtures["CYL"].free_intervals == ()


@pytest.mark.parametrize("name", ["PLANE", "HALFPLANE", "CYL", "MOEB", "SAMESIDE", "PUNCTURED", "LADDER"])
def test_round_trip_fixtures(fixtures, name):
    atlas = fixtures[name]
    assert parse_atlas(serialize_atlas(atlas)) == atlas


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 3))
def test_round_trip_random(seed, strips, max_ints):
    atlas = random_atlas(strips, max_ints, seed)
    assert parse_atlas(serialize_atlas(atlas)) == atlas


def test_interval_partition_counts(fixtures):
    for atlas in fixtures.values():
        glued = {name for g in atlas.gluings for name in (g.a, g.b)}
        assert sorted(atlas.intervals()) == sorted(
            list(glued) + list(atlas.free_intervals)
        )


# -- isomorphism ------------------------------------------------------------


def test_isomorphic_reflexive_identity(fixtures):
    for atlas in fixtures.values():
        witness = isomorphic(atlas, atlas)
        assert witness is not None
        assert is_valid_witness(atlas, atlas, *witness)


def test_cyl_moeb_not_isomorphic(fixtures):
    # No reversal-bit assignment can turn an increasing gluing decreasing:
    # the parity changes by the xor of two bits of the same strip.
    assert isomorphic(fixtures["CYL"], fixtures["MOEB"]) is None
    assert isomorphic(fixtures["MOEB"], fixtures["CYL"]) is None


def test_sameside_mirror_reversal_witness(fixtures):
    mirror = parse_atlas("strip S\nside0 b a\nglue a b +\n")
    witnesses = list(iter_witnesses(fixtures["SAMESIDE"], mirror))
    assert witnesses
    assert any(reversal == {"S": 1} for _, _, reversal in witnesses)


def test_distinct_fixtures_not_isomorphic(fixtures):
    names = list(fixtures)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert isomorphic(fixtures[a], fixtures[b]) is None, (a, b)


def _relabel_names(atlas: StripedAtlas, tag: str) -> StripedAtlas:
    rename = {name: f"{tag}_{name}" for name in atlas.intervals()}
    strips = tuple(
        Strip(
            f"{tag}{s.id}",
            tuple(rename[n] for n in s.side0),
            tuple(rename[n] for n in s.side1),
        )
        for s in atlas.strips
    )
    gluings = tuple(Gluing(rename[g.a], rename[g.b], g.parity) for g in atlas.gluings)
    return StripedAtlas(strips, gluings)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_isomorphic_is_an_equivalence(seed):
    a = random_atlas(1 + seed % 3, 2, seed)
    b = _relabel_names(a, "x")
    c = _relabel_names(a, "y")
    ab = isomorphic(a, b)
    bc = isomorphic(b, c)
    ca = isomorphic(c, a)
    assert ab and bc and ca
    assert is_valid_witness(a, b, *ab)
    assert is_valid_witness(b, c, *bc)
    assert is_valid_witness(c, a, *ca)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_form_matches_isomorphism(seed):
    a = random_atlas(1 + seed % 2, 2, seed)
    b = random_atlas(1 + (seed // 2) % 2, 2, seed + 1)
    assert (canonical_form(a) == canonical_form(b)) == (isomorphic(a, b) is not None)


def test_canonical_form_invariant_under_relabeling(fixtures):
    for atlas in fixtures.values():
        assert canonical_form(atlas) == canonical_form(_relabel_names(atlas, "z"))
