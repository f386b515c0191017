from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripes.atlas import canonical_form, is_connected, isomorphic, validate
from stripes.corpus import (
    dedup_by_isomorphism,
    exhaustive_family,
    necklace,
    random_atlas,
    random_connected_atlas,
)


def test_single_strip_no_intervals_is_a_plane(fixtures):
    for seed in (0, 1, 99):
        atlas = random_atlas(1, 0, seed)
        assert isomorphic(atlas, fixtures["PLANE"]) is not None


def test_determinism():
    a = random_atlas(3, 2, 42)
    b = random_atlas(3, 2, 42)
    assert a == b
    assert random_atlas(3, 2, 43) != a


def test_generated_atlas_is_valid():
    assert validate(random_atlas(3, 2, 42)) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(0, 4))
def test_generator_postcondition(seed, strips, max_ints):
    atlas = random_atlas(strips, max_ints, seed)
    assert validate(atlas) == []
    assert len(atlas.strips) == strips


def test_glue_probability_extremes():
    none_glued = random_atlas(2, 3, 7, glue_probability=0.0)
    assert none_glued.gluings == ()
    all_glued = random_atlas(2, 3, 7, glue_probability=1.0)
    assert len(all_glued.free_intervals) <= 1  # odd leftover only


def test_connected_generator():
    for seed in range(25):
        atlas = random_connected_atlas(1 + seed % 4, 3, seed)
        assert is_connected(atlas)
        assert validate(atlas) == []


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_atlas(0, 2, 1)
    with pytest.raises(ValueError):
        random_atlas(1, -1, 1)


def test_exhaustive_family_size_small():
    # One strip, at most one interval per side: shapes (0,0), (0,1), (1,0)
    # give single atlases; (1,1) gives the free-free, increasing and
    # decreasing gluing variants.
    family = list(exhaustive_family(1, 1))
    assert len(family) == 1 + 1 + 1 + 3
    assert all(validate(a) == [] for a in family)


def test_exhaustive_family_counts():
    family = list(exhaustive_family(2, 2))
    assert len(family) == 16428
    assert sum(1 for a in family if len(a.strips) == 1) == 51


def test_exhaustive_family_contains_the_fixtures(fixtures):
    family = list(exhaustive_family(2, 2))
    for name in ("PLANE", "HALFPLANE", "CYL", "MOEB", "SAMESIDE", "PUNCTURED", "LADDER"):
        assert any(
            isomorphic(fixtures[name], candidate) is not None for candidate in family
        ), name


def test_dedup_by_isomorphism():
    family = [random_atlas(2, 1, seed) for seed in range(10)]
    deduped = dedup_by_isomorphism(family + family)
    keys = [canonical_form(a) for a in deduped]
    assert len(keys) == len(set(keys))
    assert dedup_by_isomorphism(deduped) == deduped


def test_exhaustive_dedup_sizes(exhaustive_all, exhaustive_connected):
    assert len(exhaustive_all) == 1043
    assert len(exhaustive_connected) == 608
    assert all(is_connected(a) for a in exhaustive_connected)
    keys = {canonical_form(a) for a in exhaustive_all}
    assert len(keys) == len(exhaustive_all)


@pytest.mark.parametrize(
    "n, parities",
    [(3, "++++"), (3, "++"), (0, None), (0, ""), (-1, None)],
)
def test_necklace_rejects_a_wrong_size(n, parities):
    # Too many parities glued unknown intervals, too few left the necklace
    # open as a chain, and n = 0 gave the empty atlas.
    with pytest.raises(ValueError):
        necklace(n, parities)

