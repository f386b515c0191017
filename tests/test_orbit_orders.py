"""The group orders of ``report``, counted by orbits, against enumeration.

``automorphism_order`` counts the reference frame's orbit under the
automorphisms it meets, skipping every frame already in the orbit of a
decided one; the oracle is ``len(enumerate_automorphisms(atlas))``, which
walks every matching frame.  They must agree on every connected component
of the exhaustive family, on necklaces of every size up to 12 in several
parity patterns, on defect necklaces, on stars and on seeded random
atlases, also with strips and gluings listed in another order.  On each
the group must act freely on the root frames, the lemma the count rests
on.  The count must walk few rows where enumeration walks 4n full walks.
"""

from __future__ import annotations

import time
from itertools import product
from random import Random

import pytest

from stripes.atlas import (
    StripedAtlas,
    automorphism_order,
    component_atlases,
    serialize_atlas,
)
from stripes.corpus import exhaustive_family, necklace, random_connected_atlas
from stripes.leafspace import build_leaf_space
from stripes.symmetry import (
    enumerate_automorphisms,
    homeotopy_report,
    leaf_model_automorphism_count,
)
from test_report_oracle import star
from test_witness_oracle import count_rows, moved_copy


def acts_freely(atlas, group) -> bool:
    """The lemma the count rests on: no automorphism but the identity fixes
    a root frame (a strip s with sigma(s) = s and both bits 0), and the
    orbit of frame 0 under the action that sends frame ``4 * pos(s) + x``
    to ``4 * pos(sigma(s)) + (x ^ bits(s))`` has one frame per element."""
    position = {sid: k for k, sid in enumerate(atlas.strip_ids)}
    first = atlas.strip_ids[0]
    orbit = set()
    for aut in group:
        sigma, m, r = aut.strip_map, aut.side_flip, aut.reversal
        if not aut.is_identity and any(sigma[s] == s and not m[s] | r[s] for s in sigma):
            return False
        orbit.add(4 * position[sigma[first]] + 2 * m[first] + r[first])
    return len(orbit) == len(group)


def same_order(atlas) -> bool:
    group = enumerate_automorphisms(atlas)
    copy = moved_copy(atlas, Random(len(atlas.strips)))
    orders = automorphism_order(atlas), len(group), automorphism_order(copy)
    return acts_freely(atlas, group) and orders[0] == orders[1] == orders[2]


def parity_patterns(n: int) -> list[str]:
    """All ``+``, all ``-``, one ``-`` pair at N0 and one opposite it, and
    alternating; every pattern when n <= 6."""
    if n <= 6:
        return ["".join(p) for p in product("+-", repeat=n)]
    half = n // 2
    return [
        "+" * n,
        "-" * n,
        "-" + "+" * (n - 1),
        "+" * half + "-" + "+" * (n - half - 1),
        ("+-" * n)[:n],
    ]


def defect_necklace(n: int, at: int):
    """``necklace(n)`` with the gluings between N(at) and N(at + 1) decreasing."""
    return necklace(n, "+" * at + "-" + "+" * (n - at - 1))


def test_exhaustive_components_match_enumeration():
    distinct = {}
    for atlas in exhaustive_family(2, 2):
        for part in component_atlases(atlas):
            distinct.setdefault(serialize_atlas(part), part)
    assert len(distinct) > 13_000
    assert [part for part in distinct.values() if not same_order(part)] == []


@pytest.mark.parametrize("n", range(1, 13))
def test_necklaces_match_enumeration(n):
    for parities in parity_patterns(n):
        assert same_order(necklace(n, parities)), parities


@pytest.mark.parametrize("at", [0, 30], ids=["at-N0", "opposite"])
def test_defect_necklaces_match_enumeration(at):
    atlas = defect_necklace(60, at)
    assert same_order(atlas)
    assert automorphism_order(atlas) == 4


@pytest.mark.parametrize("m", range(1, 7))
def test_stars_match_enumeration(m):
    assert same_order(star(m))


@pytest.mark.parametrize("seed", range(40))
def test_random_atlases_match_enumeration(seed):
    atlas = random_connected_atlas(3 + seed % 6, 2 + seed % 2, 4400 + seed)
    assert same_order(atlas)


def test_empty_and_disconnected_atlases_count_their_witnesses():
    atlases = [StripedAtlas((), ()), *exhaustive_family(2, 1)]
    assert sum(len(a.components) > 1 for a in atlases) > 10
    for atlas in atlases:
        assert automorphism_order(atlas) == len(enumerate_automorphisms(atlas))


def test_orbit_count_walks_linear_rows(monkeypatch):
    # Enumeration walks all 800 matching frames of necklace(200) to the
    # end, 160,000 rows.  Each frame the count walks to the end enlarges
    # the group it has found, and the other frames fall in its orbit.
    n = 200
    atlas = necklace(n)
    rows = count_rows(monkeypatch)
    assert automorphism_order(atlas) == 4 * n
    assert len(rows) <= 2 * 4 * n


def test_eight_hundred_strip_necklace_report_is_fast():
    # Counted frame by frame and option by option, this report took 26 s,
    # 12.9 s of it the leaf-model count.  A defect necklace has the same
    # model.
    atlas = necklace(800)
    start = time.perf_counter()
    report = homeotopy_report(atlas)
    assert time.perf_counter() - start < 10
    assert (report.aut_order, report.image_order) == (3200, 3200)
    assert report.leaf_model_aut_order == 1600 * 2**800
    start = time.perf_counter()
    assert leaf_model_automorphism_count(build_leaf_space(defect_necklace(800, 400))) == (
        1600 * 2**800
    )
    assert time.perf_counter() - start < 5
