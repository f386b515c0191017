"""The kernel and the leaf-model count of ``report`` against their oracles.

``leaf_action_kernel`` checks the single all-leaf reversal of the reduced
atlas; the oracle enumerates the reduced atlas's group and keeps the
members acting trivially on the leaf space (``bruteforce.kernel_members``).
``leaf_model_automorphism_count`` is a pruned backtracking search; the
oracle ``bruteforce.leaf_model_automorphism_count`` tries all n!·2^n arc
maps.  Both must agree on every small component, on seeded random
atlases, on necklaces and on stars, and stay fast where the oracles
cannot go.
"""

from __future__ import annotations

import time
from math import factorial

import pytest

import bruteforce
from conftest import count_calls
from stripes.atlas import (
    component_atlases,
    connected_components,
    is_valid_witness,
    parse_atlas,
    serialize_atlas,
)
from stripes.corpus import exhaustive_family, necklace, random_atlas
from stripes.fixtures import fixture_atlas
from stripes.leafspace import build_leaf_space
from stripes.reduction import SurfaceKind, reduce_component
from stripes.symmetry import (
    _reversal,
    enumerate_automorphisms,
    homeotopy_report,
    induced_leaf_map,
    leaf_action_kernel,
    leaf_model_automorphism_count,
    reversal_witness,
)


def exhaustive_components():
    """Every distinct component of the exhaustive family (the one-strip
    components of disconnected atlases repeat)."""
    distinct = {}
    for atlas in exhaustive_family(2, 2):
        for sub in component_atlases(atlas):
            distinct.setdefault(serialize_atlas(sub), sub)
    return list(distinct.values())


def random_components():
    for seed in range(400):
        atlas = random_atlas(1 + seed % 5, 1 + seed % 3, 30_000 + seed, 0.85)
        yield from component_atlases(atlas)


def same_kernel(atlas) -> bool:
    kernel = leaf_action_kernel(atlas)
    outcome = reduce_component(atlas)
    if outcome.kind is not SurfaceKind.PROPER:
        return kernel.order == 2  # no reduced atlas to enumerate
    nontrivial = [
        aut for aut in bruteforce.kernel_members(outcome.atlas) if not aut.is_identity
    ]
    return nontrivial == ([] if kernel.is_trivial else [kernel.witness])


def palindromic_reversal(atlas) -> bool:
    """Whether ``reversal_witness``, which reads the atlas's sides, finds the
    all-leaf reversal exactly when every arc end of the model reads the
    same backwards, and whether that reversal then passes the
    witness-validity reference: the palindrome test alone decides."""
    ends = build_leaf_space(atlas).end_points.values()
    palindromic = all(points == points[::-1] for points in ends)
    witness = reversal_witness(atlas)
    if witness is None:
        return not palindromic
    return palindromic and is_valid_witness(
        atlas, atlas, witness.strip_map, witness.side_flip, witness.reversal
    )


def same_count(atlas) -> bool:
    model = build_leaf_space(atlas)
    return leaf_model_automorphism_count(model) == bruteforce.leaf_model_automorphism_count(
        model
    )


def test_exhaustive_family_matches_oracles():
    corpus = exhaustive_components()
    assert len(corpus) > 13_000
    assert [sub for sub in corpus if not same_count(sub)] == []
    assert [sub for sub in corpus if not same_kernel(sub)] == []
    assert [sub for sub in corpus if not palindromic_reversal(sub)] == []


def test_random_corpus_matches_oracles():
    corpus = list(random_components())
    assert len(corpus) >= 300
    assert sum(len(sub.strips) >= 4 for sub in corpus) >= 50, "too few large components"
    assert sum(leaf_action_kernel(sub).order == 2 for sub in corpus) >= 50
    assert sum(leaf_action_kernel(sub).is_trivial for sub in corpus) >= 50
    assert [sub for sub in corpus if not same_count(sub)] == []
    assert [sub for sub in corpus if not same_kernel(sub)] == []


@pytest.mark.parametrize("n", range(1, 7))
def test_necklace_count_matches_oracle(n):
    assert same_count(necklace(n))


def star(m: int):
    """Strip C with m intervals on side 1, each glued to side 0 of a leaf
    strip Li whose side 1 holds two free intervals: reduced, with two
    automorphisms, while the model alone permutes the leaves freely."""
    lines = ["strip C", "side1 " + " ".join(f"x{i}" for i in range(m))]
    for i in range(m):
        lines += [f"strip L{i}", f"side0 y{i}", f"side1 f{i} g{i}", f"glue x{i} y{i} +"]
    return parse_atlas("\n".join(lines) + "\n")


@pytest.mark.parametrize("m", range(1, 5))
def test_star_count_matches_oracle(m):
    assert same_count(star(m))


def test_thirty_leaf_star_count_is_fast():
    # m! leaf permutations times two orders of each leaf's free points.
    model = build_leaf_space(star(30))
    start = time.perf_counter()
    assert leaf_model_automorphism_count(model) == factorial(30) * 2**30
    assert time.perf_counter() - start < 5


def test_ten_thousand_strip_necklace_kernel_is_fast():
    atlas = necklace(10_000)
    start = time.perf_counter()
    assert leaf_action_kernel(atlas).is_trivial
    assert time.perf_counter() - start < 5


def test_fifty_strip_necklace_report_is_fast():
    start = time.perf_counter()
    report = homeotopy_report(necklace(50))
    assert time.perf_counter() - start < 10
    # 200 automorphisms act faithfully; the model alone also swaps the two
    # parallel seams between neighbours independently: 100 arc maps * 2^50.
    assert (report.aut_order, report.image_order) == (200, 200)
    assert report.leaf_model_aut_order == 100 * 2**50


def test_report_and_kernel_read_their_numbers_off_the_structure(monkeypatch, fixtures):
    # |Aut| counts witnesses and the kernel reads the atlas's sides, so
    # neither the sorted group nor a leaf map is built.
    enumerations = count_calls(monkeypatch, enumerate_automorphisms)
    leaf_maps = count_calls(monkeypatch, induced_leaf_map)
    assert homeotopy_report(necklace(6)).aut_order == 24
    assert homeotopy_report(fixtures["LADDER"]).aut_order > 0
    for atlas in (necklace(6), fixtures["LADDER"], fixtures["PLANE"], fixtures["CYL"]):
        leaf_action_kernel(atlas)
    assert enumerations == []
    assert leaf_maps == []


@pytest.mark.parametrize("name", ["NECKLACE", "LADDER", "PUNCTURED", "CYL"])
def test_report_and_kernel_find_components_once_and_build_one_model(name):
    # Both reduce first.  Reduction keeps the number of components, so a
    # proper outcome's components are found on the reduced atlas: LADDER's
    # input never has its components computed, only its reduction, whose
    # sides give the kernel.  NECKLACE and PUNCTURED are their own
    # reductions, and CYL (exceptional) is checked on the input; report then
    # counts the canonical one-strip atlas's group.  Each atlas object finds
    # its components at most once.  Both read the reversal candidate off the
    # sides once and never run the witness-validity oracle; kernel builds no
    # model, and report one, of the working atlas, for the leaf-model count.
    for command, models in ((homeotopy_report, 1), (leaf_action_kernel, 0)):
        atlas = necklace(6) if name == "NECKLACE" else fixture_atlas(name)
        with pytest.MonkeyPatch.context() as patch:
            components = count_calls(patch, connected_components)
            builds = count_calls(patch, build_leaf_space)
            reversals = count_calls(patch, _reversal)
            candidates = count_calls(patch, is_valid_witness)
            command(atlas)
        found = [args[0] for args in components]
        if name == "LADDER":
            assert len(found) == 1
            assert found[0] is reversals[0][0]
            assert found[0] is not atlas
        else:
            assert found[0] is atlas
        assert len(found) == len({id(a) for a in found}) <= 2
        assert len(builds) == models
        assert len(reversals) == 1
        assert candidates == []


def test_seven_hundred_strip_model_count_is_fast():
    # The identity option at each level is counted without a search; the
    # reduced 709-strip component has 2048 model symmetries.
    parts = component_atlases(random_atlas(800, 3, 1, 0.95))
    largest = max(parts, key=lambda part: len(part.strips))
    model = build_leaf_space(reduce_component(largest).atlas)
    assert len(model.arcs) == 709
    start = time.perf_counter()
    assert leaf_model_automorphism_count(model) == 2048
    assert time.perf_counter() - start < 1
