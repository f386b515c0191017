from __future__ import annotations

import time

import pytest

import bruteforce
from stripes.atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    component_atlases,
    parse_atlas,
)
from stripes.corpus import necklace, random_connected_atlas
from stripes.selfcheck import _functorial, _group_laws, selfcheck
from stripes.symmetry import (
    AtlasAutomorphism,
    all_leaf_reversal,
    enumerate_automorphisms,
    identity_automorphism,
    induced_leaf_map,
)

CHECK_NAMES = {
    "interval-partition",
    "hcl-oracle-agreement",
    "hcl-symmetry",
    "classification-consistency",
    "group-laws",
    "psi-functoriality",
    "kernel-dichotomy",
    "witness-crosscheck",
    "reduction-invariants",
}


@pytest.mark.parametrize(
    "name", ["PLANE", "HALFPLANE", "CYL", "MOEB", "SAMESIDE", "PUNCTURED", "LADDER"]
)
def test_fixtures_pass(fixtures, name):
    report = selfcheck(fixtures[name], k=2)
    assert report.ok, report.lines()
    names = {r.name for r in report.results if r.component != "*"}
    assert names == CHECK_NAMES


def test_runs_per_component():
    atlas = parse_atlas("strip S\nside0 a b\nglue a b -\nstrip T\nside1 x\n")
    report = selfcheck(atlas, k=1)
    assert report.ok
    components = {r.component for r in report.results}
    assert components == {"*", "S", "T"}


def test_invalid_atlas_short_circuits():
    atlas = StripedAtlas(
        (Strip("S", ("a",), ()),), (Gluing("a", "a", Parity.INCREASING),)
    )
    report = selfcheck(atlas)
    assert not report.ok
    assert report.lines()[0].startswith("FAIL *:valid-atlas")
    assert len(report.results) == 1


def test_lines_are_pass_or_fail(fixtures):
    report = selfcheck(fixtures["LADDER"])
    assert all(line.startswith(("PASS ", "FAIL ")) for line in report.lines())


def test_exhaustive_family_has_zero_failures(exhaustive_all):
    failures = []
    for atlas in exhaustive_all:
        report = selfcheck(atlas, k=2)
        if not report.ok:
            failures.append((atlas, [l for l in report.lines() if l.startswith("FAIL")]))
    assert failures == []


def test_generator_functoriality_agrees_with_all_pairs(fixtures):
    corpus = list(fixtures.values())
    corpus += [necklace(len(p), p) for p in ("+++", "++-", "++++", "+-+-")]
    corpus += [random_connected_atlas(3 + seed % 2, 2, 500 + seed) for seed in range(16)]
    failing = 0
    for atlas in corpus:
        for sub in component_atlases(atlas):
            group = enumerate_automorphisms(sub)
            identity = identity_automorphism(sub)
            maps = {aut: induced_leaf_map(sub, aut) for aut in group}
            # Swapping the images of two elements usually breaks the
            # homomorphism; both checks must say so together.
            variants = [maps] + [
                {**maps, a: maps[b], b: maps[a]}
                for a, b in zip(group, group[1:])
                if maps[a] != maps[b]
            ]
            for variant in variants:
                fast = _functorial(identity, group, variant)
                assert fast == bruteforce.functorial_all_pairs(identity, group, variant)
                failing += not fast
            assert _functorial(identity, group, maps)
    assert failing > 0


def test_generator_group_laws_agree_with_all_pairs(fixtures):
    corpus = list(fixtures.values())
    corpus += [necklace(len(p), p) for p in ("++", "+++", "++-", "++++", "+-+-")]
    corpus += [random_connected_atlas(3 + seed % 2, 2, 700 + seed) for seed in range(16)]
    removals = subsets = 0
    for atlas in corpus:
        for sub in component_atlases(atlas):
            group = enumerate_automorphisms(sub)
            identity = identity_automorphism(sub)
            assert _group_laws(identity, group)
            assert bruteforce.group_laws_all_pairs(identity, group)
            # Without one element the list is no group: it lacks the
            # identity, or it is a proper subset of more than half the group.
            for missing in group:
                if len(group) > 2 or missing == identity:
                    rest = tuple(aut for aut in group if aut != missing)
                    assert not _group_laws(identity, rest)
                    assert not bruteforce.group_laws_all_pairs(identity, rest)
                    removals += 1
            # Every sub-list of a small group, some of them closed under
            # one generator but not under the next.
            if len(group) <= 8:
                for mask in range(2 ** len(group)):
                    part = tuple(aut for i, aut in enumerate(group) if mask >> i & 1)
                    assert _group_laws(identity, part) == bruteforce.group_laws_all_pairs(
                        identity, part
                    )
                    subsets += 1
    assert removals > 50
    assert subsets > 500


def test_kernel_dichotomy_guards(fixtures, monkeypatch):
    atlas = fixtures["PUNCTURED"]
    identity, reversal = identity_automorphism(atlas), all_leaf_reversal(atlas)
    half = AtlasAutomorphism(reversal.strip_map, reversal.side_flip, {"S": 1, "T": 0})
    flipped = AtlasAutomorphism(reversal.strip_map, {"S": 1, "T": 1}, reversal.reversal)
    cases = {
        "kernel member with non-constant reversal bits": (identity, half),
        "kernel larger than order two": (identity, reversal, flipped),
    }
    for detail, members in cases.items():
        monkeypatch.setattr("stripes.selfcheck.kernel_members", lambda atlas: members)
        lines = selfcheck(atlas, k=1).lines()
        assert f"FAIL S:kernel-dichotomy ({detail})" in lines


def test_thirty_strip_necklace_selfcheck_is_fast():
    start = time.perf_counter()
    report = selfcheck(necklace(30), k=2)
    assert report.ok, report.lines()
    assert time.perf_counter() - start < 5
