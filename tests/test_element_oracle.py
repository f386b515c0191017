"""Group elements held as position codes against their dict formulas.

``AtlasAutomorphism`` and ``LeafMap`` compose, invert, sort, print and
compare on position codes.  ``bruteforce`` keeps the dict formulas they
replaced; on every pair of every group here, the code route must give the
same dict views, the same verdicts and the same order, and equal elements
must hash alike.
"""

from __future__ import annotations

import pytest

import bruteforce
from stripes.atlas import Strip, StripedAtlas, is_connected, isomorphic
from stripes.corpus import exhaustive_family, necklace, random_connected_atlas
from stripes.leafspace import build_leaf_space
from stripes.symmetry import (
    AtlasAutomorphism,
    LeafMap,
    enumerate_automorphisms,
    identity_automorphism,
    induced_leaf_map,
)


def assert_automorphisms_agree(group) -> None:
    triples = [bruteforce.triple(a) for a in group]
    keys = [bruteforce.triple_key(t) for t in triples]
    for a, t, k in zip(group, triples, keys):
        rebuilt = AtlasAutomorphism(*t)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert a.format() == bruteforce.format_triple(t)
        assert a.is_identity == bruteforce.triple_is_identity(t)
        assert bruteforce.triple(a.inverse()) == bruteforce.inverse_triple(t)
        for b, u, l in zip(group, triples, keys):
            assert bruteforce.triple(a.compose(b)) == bruteforce.compose_triples(t, u)
            assert (a == b) == (t == u)
            assert (a.key() < b.key(), a.key() == b.key()) == (k < l, k == l)
            assert a != b or hash(a) == hash(b)


def assert_leaf_maps_agree(maps) -> None:
    triples = [bruteforce.leaf_triple(m) for m in maps]
    for m, t in zip(maps, triples):
        rebuilt = LeafMap(*t)
        assert rebuilt == m and hash(rebuilt) == hash(m)
        assert m.is_identity == bruteforce.leaf_triple_is_identity(t)
        assert m.compose(m.inverse()).is_identity
        for n, u in zip(maps, triples):
            composed = bruteforce.compose_leaf_triples(t, u)
            assert bruteforce.leaf_triple(m.compose(n)) == composed
            assert (m == n) == (t == u)
            assert m != n or hash(m) == hash(n)


def corpus() -> list[StripedAtlas]:
    atlases = [a for a in exhaustive_family(2, 2) if is_connected(a)]
    atlases += [necklace(n) for n in range(2, 6)]
    atlases += [random_connected_atlas(3 + seed % 2, 2, 1200 + seed) for seed in range(20)]
    return atlases


def test_codes_agree_with_the_dict_formulas():
    atlases = corpus()
    pairs = 0
    for atlas in atlases:
        group = enumerate_automorphisms(atlas)
        assert identity_automorphism(atlas) in group
        assert_automorphisms_agree(group)
        model = build_leaf_space(atlas)
        assert_leaf_maps_agree([induced_leaf_map(model, aut) for aut in group])
        pairs += len(group) ** 2
    assert len(atlases) > 13_000
    assert pairs > 30_000


def renamed(atlas: StripedAtlas) -> StripedAtlas:
    """The atlas with every strip renamed and listed in reverse."""
    strips = tuple(Strip(f"X{s.id}", s.side0, s.side1) for s in atlas.strips[::-1])
    return StripedAtlas(strips, atlas.gluings[::-1])


@pytest.mark.parametrize("seed", range(10))
def test_witness_between_atlases_prints_its_dicts(seed):
    # ``stripes iso`` prints a witness onto other strip ids, and its
    # inverse goes back.
    atlas = random_connected_atlas(3 + seed % 2, 2, 1300 + seed)
    other = renamed(atlas)
    witness = isomorphic(atlas, other)
    element = AtlasAutomorphism(*witness)
    assert bruteforce.triple(element) == witness
    assert element.format() == bruteforce.format_triple(witness)
    assert not element.is_identity
    assert bruteforce.triple(element.inverse()) == bruteforce.inverse_triple(witness)
    assert element.inverse().compose(element) == identity_automorphism(atlas)
    # Equal codes over other strip ids are other elements.
    assert identity_automorphism(atlas) != identity_automorphism(other)
    with pytest.raises(ValueError):
        element.compose(element)
