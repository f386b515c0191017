from __future__ import annotations

import sys
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
from stripes.corpus import necklace, random_atlas, random_connected_atlas
from stripes.leafspace import build_leaf_space
from stripes.reduction import SurfaceKind, reduce_component
from stripes.selfcheck import _functorial, _group_laws, _kernel_dichotomy, selfcheck
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
            model = build_leaf_space(sub)
            maps = {aut: induced_leaf_map(model, aut) for aut in group}
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
    assert _kernel_dichotomy([identity]) == (True, "")
    assert _kernel_dichotomy([identity, reversal]) == (True, "")
    for detail, members in cases.items():
        assert _kernel_dichotomy(members) == (False, detail)
        # selfcheck prints the helper's verdict on the members it found
        # (PUNCTURED: the identity only), here replaced by the fake list.
        seen = []

        def fake(found, members=members):
            seen.append(found)
            return _kernel_dichotomy(members)

        monkeypatch.setattr("stripes.selfcheck._kernel_dichotomy", fake)
        lines = selfcheck(atlas, k=1).lines()
        assert f"FAIL S:kernel-dichotomy ({detail})" in lines
        assert seen == [[identity]]


def selfcheck_kernel_members(atlas, monkeypatch) -> list:
    """The kernel members ``selfcheck`` hands to its dichotomy check, one
    list per PROPER component."""
    seen = []

    def record(members):
        seen.append(members)
        return _kernel_dichotomy(members)

    monkeypatch.setattr("stripes.selfcheck._kernel_dichotomy", record)
    assert selfcheck(atlas, k=1).ok
    return seen


def test_kernel_members_match_the_oracle_on_reduced_and_unreduced(
    exhaustive_connected, monkeypatch
):
    # A reduced component filters the group it already has; any other
    # enumerates its reduction.  Both must give the oracle's members.  The
    # exhaustive family's components are its connected atlases, one per
    # isomorphism class.
    corpus = list(exhaustive_connected)
    for seed in range(200):
        corpus += component_atlases(random_atlas(1 + seed % 5, 2, 80_000 + seed, 0.9))
    unreduced = 0
    for sub in corpus:
        outcome = reduce_component(sub)
        members = selfcheck_kernel_members(sub, monkeypatch)
        if outcome.kind is not SurfaceKind.PROPER:
            assert members == []
            continue
        assert members == [list(bruteforce.kernel_members(outcome.atlas))]
        unreduced += outcome.atlas != sub
    assert unreduced >= 50


def count_calls(monkeypatch, function) -> list:
    """Count the calls of a package function, under every name it is bound to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "stripes" or name.startswith("stripes."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_selfcheck_enumerates_once_and_builds_few_models(monkeypatch):
    # necklace(6) is reduced with 24 automorphisms: one enumeration serves
    # the group laws, the leaf maps and the kernel, and one model all maps.
    enumerations = count_calls(monkeypatch, enumerate_automorphisms)
    builds = count_calls(monkeypatch, build_leaf_space)
    assert selfcheck(necklace(6), k=2).ok
    assert len(enumerations) == 1
    assert len(builds) <= 4


def test_thirty_strip_necklace_selfcheck_is_fast():
    start = time.perf_counter()
    report = selfcheck(necklace(30), k=2)
    assert report.ok, report.lines()
    assert time.perf_counter() - start < 5
