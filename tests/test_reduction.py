from __future__ import annotations

from random import Random

import pytest

import stripes.reduction
from bruteforce import reduce_stepwise
from stripes.atlas import component_atlases, isomorphic, parse_atlas
from stripes.corpus import random_atlas
from stripes.dualgraph import build_dual_graph, euler_invariant
from stripes.leafspace import (
    boundary_points,
    build_leaf_space,
    hcl_point,
    special_points,
)
from stripes.reduction import (
    SurfaceKind,
    canonical_exceptional_atlas,
    is_reduced,
    reduce_atlas,
    reduce_component,
    regular_seams,
)
from test_reduction_oracle import chain


@pytest.mark.parametrize(
    "name, reduced",
    [
        ("PLANE", True),
        ("HALFPLANE", True),
        ("SAMESIDE", True),
        ("PUNCTURED", True),
        ("LADDER", False),
        ("CYL", False),
        ("MOEB", False),
    ],
)
def test_is_reduced(fixtures, name, reduced):
    assert is_reduced(fixtures[name]) is reduced


def test_ladder_reduces_to_plane(fixtures):
    (outcome,) = reduce_atlas(fixtures["LADDER"])
    assert outcome.kind is SurfaceKind.PROPER
    assert isomorphic(outcome.atlas, fixtures["PLANE"]) is not None


@pytest.mark.parametrize(
    "name, kind",
    [("CYL", SurfaceKind.OPEN_CYLINDER), ("MOEB", SurfaceKind.OPEN_MOEBIUS_BAND)],
)
def test_exceptional_fixtures(fixtures, name, kind):
    (outcome,) = reduce_atlas(fixtures[name])
    assert outcome.kind is kind
    assert outcome.atlas is None


def test_punctured_unchanged(fixtures):
    (outcome,) = reduce_atlas(fixtures["PUNCTURED"])
    assert outcome.kind is SurfaceKind.PROPER
    assert outcome.atlas == fixtures["PUNCTURED"]


def test_two_strip_cylinder_and_moebius_chains():
    base = "strip S\nside0 a\nside1 b\nstrip T\nside0 c\nside1 d\nglue b c +\nglue d a {}\n"
    (cyl,) = reduce_atlas(parse_atlas(base.format("+")))
    assert cyl.kind is SurfaceKind.OPEN_CYLINDER
    (moeb,) = reduce_atlas(parse_atlas(base.format("-")))
    assert moeb.kind is SurfaceKind.OPEN_MOEBIUS_BAND


def test_decreasing_ladder_reduces_to_plane(fixtures):
    atlas = parse_atlas("strip S\nside1 a\nstrip T\nside0 b\nglue a b -\n")
    (outcome,) = reduce_atlas(atlas)
    assert outcome.kind is SurfaceKind.PROPER
    assert isomorphic(outcome.atlas, fixtures["PLANE"]) is not None


def test_three_strip_tower_with_payload():
    # Middle strip merges away twice; the free interval x survives.
    text = (
        "strip A\nside1 a\n"
        "strip B\nside0 b\nside1 c\n"
        "strip C\nside0 d\nside1 x\n"
        "glue a b +\nglue c d -\n"
    )
    (outcome,) = reduce_atlas(parse_atlas(text))
    assert outcome.kind is SurfaceKind.PROPER
    assert isomorphic(outcome.atlas, parse_atlas("strip S\nside1 x\n")) is not None


def test_same_side_orientation_merge():
    # Two half planes glued along their full boundary sides give a plane.
    atlas = parse_atlas("strip S\nside1 a\nstrip T\nside1 b\nglue a b +\n")
    (outcome,) = reduce_atlas(atlas)
    assert outcome.kind is SurfaceKind.PROPER
    assert outcome.atlas.intervals() == ()


def test_non_regular_self_gluing_survives(fixtures):
    assert regular_seams(fixtures["SAMESIDE"]) == ()
    (outcome,) = reduce_atlas(fixtures["SAMESIDE"])
    assert outcome.kind is SurfaceKind.PROPER
    assert outcome.atlas == fixtures["SAMESIDE"]


def test_reduce_per_component(fixtures):
    atlas = parse_atlas(
        "strip S\nside0 a\nside1 b\nstrip T\nside1 x\nstrip U\nglue a b -\n"
    )
    outcomes = reduce_atlas(atlas)
    assert [o.kind for o in outcomes] == [
        SurfaceKind.OPEN_MOEBIUS_BAND,
        SurfaceKind.PROPER,
        SurfaceKind.PROPER,
    ]


def test_canonical_exceptional_atlases(fixtures):
    assert canonical_exceptional_atlas(SurfaceKind.OPEN_CYLINDER) == fixtures["CYL"]
    assert canonical_exceptional_atlas(SurfaceKind.OPEN_MOEBIUS_BAND) == fixtures["MOEB"]
    with pytest.raises(ValueError):
        canonical_exceptional_atlas(SurfaceKind.PROPER)


@pytest.mark.parametrize("seed", range(40))
def test_confluence_and_idempotence_random(seed):
    atlas = random_atlas(1 + seed % 4, 3, 4242 + seed)
    for sub in component_atlases(atlas):
        baseline = reduce_component(sub)
        for order_seed in (0, 1, 2):
            other = reduce_stepwise(sub, Random(order_seed))
            assert other.kind is baseline.kind
            if baseline.kind is SurfaceKind.PROPER:
                assert other.atlas == baseline.atlas or isomorphic(
                    other.atlas, baseline.atlas
                )
        if baseline.kind is SurfaceKind.PROPER:
            assert is_reduced(baseline.atlas)
            again = reduce_component(baseline.atlas)
            assert again.kind is SurfaceKind.PROPER
            assert again.atlas == baseline.atlas


@pytest.mark.parametrize("seed", range(40))
def test_reduction_preserves_leaf_space_data(seed):
    atlas = random_atlas(1 + seed % 4, 3, 777 + seed)
    for sub in component_atlases(atlas):
        outcome = reduce_component(sub)
        if outcome.kind is not SurfaceKind.PROPER:
            continue
        reduced = outcome.atlas
        assert euler_invariant(build_dual_graph(reduced)) == euler_invariant(
            build_dual_graph(sub)
        )
        before = build_leaf_space(sub)
        after = build_leaf_space(reduced)
        assert len(special_points(before)) == len(special_points(after))
        assert len(boundary_points(before)) == len(boundary_points(after))
        surviving = set(after.points)
        assert surviving <= set(before.points)
        for p in surviving:
            assert hcl_point(before, p) & surviving == hcl_point(after, p)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_reduction_is_one_pass_reading_no_index(monkeypatch, closed):
    # One regular_seams call per reduction (the benchmark's tracer counts
    # it by name), and no index of the input built: the walk reads only
    # the strips' sides and the gluings.
    atlas = chain(200, 3, closed)
    calls = []

    def counted(seen):
        calls.append(seen)
        return regular_seams(seen)

    monkeypatch.setattr(stripes.reduction, "regular_seams", counted)
    outcome = reduce_component(atlas)
    assert calls == [atlas]
    assert (outcome.kind is SurfaceKind.PROPER) is not closed
    if not closed:
        assert len(outcome.atlas.strips) == 1
    assert not {"locations", "gluing_of", "components"} & atlas.__dict__.keys()
