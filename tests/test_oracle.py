"""The sampled-space oracle recomputes Hausdorff closures from the raw
definition (meet of closures of all basic neighbourhoods) and must agree
with the shared-end rule on every leaf point."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from stripes.corpus import necklace, random_atlas
from stripes.leafspace import (
    FiniteBasisSpace,
    LeafPoint,
    Sample,
    build_leaf_space,
    hcl_bruteforce,
    hcl_point,
    sampled_space,
)


def leaf_points_of(closure):
    return frozenset(x for x in closure if isinstance(x, LeafPoint))


def test_plane_sampling_counts(fixtures):
    space = sampled_space(build_leaf_space(fixtures["PLANE"]), 3)
    assert len(space.ground) == 6  # three samples per end region, two regions
    assert all(len(b) == 1 for b in space.basis)  # no leaf points, all singletons


def test_halfplane_sampling_structure(fixtures):
    model = build_leaf_space(fixtures["HALFPLANE"])
    space = sampled_space(model, 2)
    assert len(space.ground) == 1 + 2 + 2
    (p,) = model.points
    tails = sorted(space.neighbourhoods(p), key=len)
    assert [sorted(x.label() for x in t) for t in tails] == [
        ["y(S.0.2)", "{a}"],
        ["y(S.0.1)", "y(S.0.2)", "{a}"],
    ]


def test_punctured_points_share_tails(fixtures):
    model = build_leaf_space(fixtures["PUNCTURED"])
    space = sampled_space(model, 2)
    p1, p2 = sorted(model.points)
    tails1 = {frozenset(v - {p1}) for v in space.neighbourhoods(p1)}
    tails2 = {frozenset(v - {p2}) for v in space.neighbourhoods(p2)}
    assert tails1 == tails2


def test_bruteforce_punctured(fixtures):
    model = build_leaf_space(fixtures["PUNCTURED"])
    space = sampled_space(model, 2)
    p1, p2 = sorted(model.points)
    assert leaf_points_of(hcl_bruteforce(space, p1)) == {p1, p2}
    assert leaf_points_of(hcl_bruteforce(space, p2)) == {p1, p2}


def test_bruteforce_cyl_singleton(fixtures):
    model = build_leaf_space(fixtures["CYL"])
    space = sampled_space(model, 2)
    (p,) = model.points
    assert leaf_points_of(hcl_bruteforce(space, p)) == {p}


def test_bruteforce_plane_samples_are_closed_singletons(fixtures):
    space = sampled_space(build_leaf_space(fixtures["PLANE"]), 3)
    for sample in space.ground:
        assert hcl_bruteforce(space, sample) == {sample}


def test_bruteforce_shallow_samples_are_hausdorff(fixtures):
    # Samples short of the deepest one are separated from everything.  The
    # deepest sample of an end sits inside every neighbourhood of every
    # point on that end, so it alone picks those points up; that is the
    # discretisation doing its job, not a defect.
    k = 3
    for name, atlas in fixtures.items():
        model = build_leaf_space(atlas)
        space = sampled_space(model, k)
        for x in space.ground:
            if isinstance(x, Sample) and x.depth < k:
                assert hcl_bruteforce(space, x) == {x}, (name, x)


def test_bruteforce_deepest_sample_meets_end_points(fixtures):
    model = build_leaf_space(fixtures["CYL"])
    space = sampled_space(model, 2)
    (p,) = model.points
    deepest = Sample("S", 0, 2)
    assert hcl_bruteforce(space, deepest) == {deepest, p}


def test_bruteforce_symmetric_on_fixtures(fixtures):
    for atlas in fixtures.values():
        space = sampled_space(build_leaf_space(atlas), 2)
        closures = {x: hcl_bruteforce(space, x) for x in space.ground}
        for x in space.ground:
            for y in space.ground:
                assert (y in closures[x]) == (x in closures[y])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_agreement_on_fixtures(fixtures, k):
    for atlas in fixtures.values():
        model = build_leaf_space(atlas)
        space = sampled_space(model, k)
        for p in model.points:
            assert leaf_points_of(hcl_bruteforce(space, p)) == hcl_point(model, p)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.sampled_from([1, 2, 3]))
def test_oracle_agreement_on_random_atlases(seed, strips, k):
    atlas = random_atlas(strips, 3, seed)
    model = build_leaf_space(atlas)
    space = sampled_space(model, k)
    for p in model.points:
        assert leaf_points_of(hcl_bruteforce(space, p)) == hcl_point(model, p)


def test_leaf_point_closures_do_not_depend_on_the_depth(exhaustive_all):
    # Every basic set of a leaf point holds the depth-k samples of all its
    # ends, so depths 1..4 give the same closures, the shared-end rule's.
    # selfcheck samples one depth only, on this fact.
    corpus = list(exhaustive_all)
    corpus += [random_atlas(2 + seed % 4, 3, 90_000 + seed, 0.6) for seed in range(60)]
    points_seen = 0
    for atlas in corpus:
        model = build_leaf_space(atlas)
        spaces = [sampled_space(model, k) for k in (1, 2, 3, 4)]
        points = frozenset(model.points)
        for p in model.points:
            closures = {hcl_bruteforce(space, p) & points for space in spaces}
            assert closures == {hcl_point(model, p)}, (atlas, p)
            points_seen += 1
    assert points_seen > 1_000


def test_sampled_space_rejects_bad_depth(fixtures):
    with pytest.raises(ValueError):
        sampled_space(build_leaf_space(fixtures["PLANE"]), 0)


def assert_closures_match_the_scan(space: FiniteBasisSpace, rng) -> None:
    ground = sorted(space.ground, key=repr)
    subsets = [*space.basis, frozenset(), space.ground]
    subsets += [frozenset(rng.sample(ground, rng.randint(1, len(ground)))) for _ in range(10)]
    for subset in subsets:
        assert space.closure(subset) == bruteforce.closure_scan(space, subset)


def test_indexed_closure_matches_the_scan(fixtures):
    # The closure reads only the basic sets that meet the subset; the scan
    # tests every ground element.  Both are the definition.
    rng = Random(17)
    atlases = [*fixtures.values(), necklace(3), necklace(8)]
    atlases += [random_atlas(1 + seed % 5, 3, 31_000 + seed, 0.7) for seed in range(40)]
    for atlas in atlases:
        model = build_leaf_space(atlas)
        for k in (1, 2, 3):
            assert_closures_match_the_scan(sampled_space(model, k), rng)


def test_indexed_closure_keeps_points_without_a_basic():
    # "u" lies in no basic set, so it is in every closure, vacuously; "x"
    # is reached from "v" through its one basic set, "w" is not.
    space = FiniteBasisSpace(
        frozenset("uvwx"),
        (frozenset("vx"), frozenset("w"), frozenset("vw")),
    )
    assert space.closure(frozenset("x")) == frozenset("ux")
    assert space.closure(frozenset("v")) == frozenset("uvx")
    assert space.closure(frozenset()) == frozenset("u")
    assert_closures_match_the_scan(space, Random(3))
