from __future__ import annotations

import time

import pytest

import bruteforce
from conftest import count_calls, patch_everywhere
from stripes.atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    component_atlases,
    is_valid_witness,
    parse_atlas,
)
from stripes.cli import main
from stripes.corpus import necklace, random_atlas, random_connected_atlas
from stripes.fixtures import fixture_text
from stripes.leafspace import (
    LeafClass,
    boundary_points,
    build_leaf_space,
    classify_leaf,
    hcl_bruteforce,
    hcl_point,
    special_points,
)
from stripes.reduction import (
    SurfaceClass,
    SurfaceKind,
    canonical_exceptional_atlas,
    reduce_component,
)
from stripes.selfcheck import _closure, _kernel_dichotomy, selfcheck
from stripes.symmetry import (
    AtlasAutomorphism,
    LeafMap,
    _reversal,
    _table,
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
    report = selfcheck(fixtures[name])
    assert report.ok, report.lines()
    names = {r.name for r in report.results if r.component != "*"}
    assert names == CHECK_NAMES


def test_runs_per_component():
    atlas = parse_atlas("strip S\nside0 a b\nglue a b -\nstrip T\nside1 x\n")
    report = selfcheck(atlas)
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
        report = selfcheck(atlas)
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
            # The fast check composes the generators through the element
            # methods; the oracle composes the dict views of every pair.
            # Swapping the images of two elements usually breaks the
            # homomorphism; both checks must say so together.
            variants = [maps] + [
                {**maps, a: maps[b], b: maps[a]}
                for a, b in zip(group, group[1:])
                if maps[a] != maps[b]
            ]
            for variant in variants:
                _, fast = _closure(identity, group, variant)
                assert fast == bruteforce.functorial_all_pairs(identity, group, variant)
                failing += not fast
            assert _closure(identity, group, maps) == (True, True)
    assert failing > 0


def group_laws(identity, elements) -> bool:
    """The group-laws verdict of ``_closure`` on the list ``elements``."""
    laws, _ = _closure(identity, elements, {})
    return laws


def test_generator_group_laws_agree_with_all_pairs(fixtures):
    corpus = list(fixtures.values())
    corpus += [necklace(len(p), p) for p in ("++", "+++", "++-", "++++", "+-+-")]
    corpus += [random_connected_atlas(3 + seed % 2, 2, 700 + seed) for seed in range(16)]
    removals = subsets = 0
    for atlas in corpus:
        for sub in component_atlases(atlas):
            group = enumerate_automorphisms(sub)
            identity = identity_automorphism(sub)
            assert group_laws(identity, group)
            assert bruteforce.group_laws_all_pairs(identity, group)
            # Without one element the list is no group: it lacks the
            # identity, or it is a proper subset of more than half the group.
            for missing in group:
                if len(group) > 2 or missing == identity:
                    rest = tuple(aut for aut in group if aut != missing)
                    assert not group_laws(identity, rest)
                    assert not bruteforce.group_laws_all_pairs(identity, rest)
                    removals += 1
            # Every sub-list of a small group, some of them closed under
            # one generator but not under the next.
            if len(group) <= 8:
                for mask in range(2 ** len(group)):
                    part = tuple(aut for i, aut in enumerate(group) if mask >> i & 1)
                    assert group_laws(identity, part) == bruteforce.group_laws_all_pairs(
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
        lines = selfcheck(atlas).lines()
        assert f"FAIL S:kernel-dichotomy ({detail})" in lines
        assert seen == [[identity]]


def selfcheck_kernel_members(atlas, monkeypatch) -> list:
    """The kernel members ``selfcheck`` hands to its dichotomy check, one
    list per component."""
    seen = []

    def record(members):
        seen.append(members)
        return _kernel_dichotomy(members)

    monkeypatch.setattr("stripes.selfcheck._kernel_dichotomy", record)
    assert selfcheck(atlas).ok
    return seen


def test_kernel_members_match_the_oracle_on_reduced_and_unreduced(
    exhaustive_connected, monkeypatch
):
    # A component that is its own working atlas filters the group it
    # already has; any other enumerates its working atlas: its reduction,
    # or the canonical one-strip atlas of a cylinder or Moebius band.  Both
    # must give the oracle's members on the working atlas.  The exhaustive
    # family's components are its connected atlases, one per isomorphism
    # class.
    corpus = list(exhaustive_connected)
    for seed in range(200):
        corpus += component_atlases(random_atlas(1 + seed % 5, 2, 80_000 + seed, 0.9))
    unreduced = exceptional = 0
    for sub in corpus:
        outcome = reduce_component(sub)
        working = outcome.atlas or canonical_exceptional_atlas(outcome.kind)
        members = selfcheck_kernel_members(sub, monkeypatch)
        assert members == [list(bruteforce.kernel_members(working))]
        unreduced += working != sub
        exceptional += outcome.atlas is None
    assert unreduced >= 50
    assert exceptional >= 10


def asymmetric_hcl(model, point):
    # The least point forgets the rest of its closure; the others keep it.
    if point == min(model.points):
        return frozenset((point,))
    return hcl_point(model, point)


def swapped_images(model, aut):
    # A non-identity automorphism sends each of the first two points where
    # the other one goes.
    leaf_map = induced_leaf_map(model, aut)
    if aut.is_identity or len(model.points) < 2:
        return leaf_map
    first, second = model.points[:2]
    images = leaf_map.point_map
    point_map = {**images, first: images[second], second: images[first]}
    return LeafMap(point_map, leaf_map.arc_map, leaf_map.arc_reversed)


# check -> (fixture, rule, broken rule); each fixture is one component
# labelled S on which the broken rule must show.
BROKEN_RULES = {
    "hcl-oracle-agreement": ("PUNCTURED", hcl_bruteforce, lambda space, x: frozenset()),
    "hcl-symmetry": ("PUNCTURED", hcl_point, asymmetric_hcl),
    "classification-consistency": (
        "HALFPLANE",
        classify_leaf,
        lambda atlas, point: LeafClass.SPECIAL,
    ),
    "group-laws": (
        "CYL",
        enumerate_automorphisms,
        lambda atlas: enumerate_automorphisms(atlas)[:-1],
    ),
    "psi-functoriality": ("PUNCTURED", induced_leaf_map, swapped_images),
    "witness-crosscheck": ("HALFPLANE", _reversal, lambda atlas: None),
    "reduction-invariants": (
        "LADDER",
        reduce_component,
        lambda atlas: SurfaceClass(SurfaceKind.PROPER, atlas),
    ),
}


def test_each_check_can_fail(fixtures):
    # kernel-dichotomy's guards have their own test; interval-partition reads
    # the model and the atlas, which every other check needs intact.
    assert set(BROKEN_RULES) | {"interval-partition", "kernel-dichotomy"} == CHECK_NAMES
    for check, (name, rule, broken) in BROKEN_RULES.items():
        assert selfcheck(fixtures[name]).ok
        with pytest.MonkeyPatch.context() as patch:
            patch_everywhere(patch, rule, broken)
            lines = selfcheck(fixtures[name]).lines()
        assert any(line.startswith(f"FAIL S:{check}") for line in lines), (check, lines)


def leaf_maps_without_orientation(model, aut):
    # Every arc keeps its orientation, as if no strip's sides were flipped.
    leaf_map = induced_leaf_map(model, aut)
    return LeafMap(leaf_map.point_map, leaf_map.arc_map, dict.fromkeys(leaf_map.arc_map, 0))


def identity_as_reversal(atlas):
    # A wrong kernel witness: the identity, whatever the sides read.
    return identity_automorphism(atlas)


@pytest.mark.parametrize("name", ["CYL", "MOEB"])
def test_exceptional_witness_crosscheck_can_fail(fixtures, name):
    # The kernel's witness is checked against the enumerated group of the
    # canonical one-strip atlas and its leaf maps: a wrong witness fails the
    # cross-check alone, and a leaf map that lets the side flips into the
    # kernel fails it and the dichotomy.
    defects = [
        (_reversal, identity_as_reversal, "PASS S:kernel-dichotomy"),
        (induced_leaf_map, leaf_maps_without_orientation, "FAIL S:kernel-dichotomy"),
    ]
    for rule, broken, dichotomy in defects:
        with pytest.MonkeyPatch.context() as patch:
            patch_everywhere(patch, rule, broken)
            lines = selfcheck(fixtures[name]).lines()
        assert "FAIL S:witness-crosscheck" in lines, (rule, lines)
        assert any(line.startswith(dichotomy) for line in lines), (rule, lines)


def test_only_selfcheck_runs_the_validity_oracle(fixtures, tmp_path, capsys):
    # The kernel is read off the sides, so an oracle that rejects every
    # witness changes no kernel or report line.  selfcheck runs it on the
    # kernel's members of the working atlas: PLANE (proper, kernel Z2),
    # PUNCTURED (proper, trivial) and CYL (exceptional) fail the witness
    # cross-check, and only it.
    def printed(name):
        path = tmp_path / f"{name}.atlas"
        path.write_text(fixture_text(name))
        outputs = []
        for command in ("kernel", "report"):
            assert main([command, str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    names = ("PLANE", "PUNCTURED", "CYL")
    before = {name: printed(name) for name in names}
    assert before["PLANE"][0] == "Z2 witness=(id;m=0;r=1)\n"
    with pytest.MonkeyPatch.context() as patch:
        patch_everywhere(patch, is_valid_witness, lambda *args: False)
        for name in names:
            lines = selfcheck(fixtures[name]).lines()
            assert [line for line in lines if not line.startswith("PASS")] == [
                "FAIL S:witness-crosscheck"
            ], (name, lines)
            assert printed(name) == before[name]


def test_selfcheck_enumerates_once_and_builds_few_models(monkeypatch):
    # necklace(6) is reduced with 24 automorphisms: one enumeration serves
    # the group laws, the leaf maps and the kernel, and one model all maps.
    enumerations = count_calls(monkeypatch, enumerate_automorphisms)
    builds = count_calls(monkeypatch, build_leaf_space)
    assert selfcheck(necklace(6)).ok
    assert len(enumerations) == 1
    assert len(builds) <= 4


def test_selfcheck_computes_each_fact_once(fixtures):
    # necklace(6) is reduced and builds one model; LADDER is not, and builds
    # a second one for its reduction.  The two-strip open cylinder is
    # exceptional: its kernel's reversal is read off the canonical atlas's
    # sides, its checks read the one model of the input, and the kernel's
    # cross-check the canonical atlas's.  The reductions: the component and
    # its reversed listing.
    cylinder = parse_atlas(
        "strip S\nside0 a\nside1 b\nstrip T\nside0 c\nside1 d\nglue b c +\nglue d a +\n"
    )
    for atlas, models in ((necklace(6), 1), (fixtures["LADDER"], 2), (cylinder, 1)):
        with pytest.MonkeyPatch.context() as patch:
            reductions = count_calls(patch, reduce_component)
            closures = count_calls(patch, _closure)
            special = count_calls(patch, special_points)
            boundary = count_calls(patch, boundary_points)
            builds = count_calls(patch, build_leaf_space)
            assert selfcheck(atlas).ok
        assert len(reductions) == 2
        assert len(closures) == 1
        assert len(special) == len(boundary) == models
        assert [args[0] for args in builds].count(atlas) == 1


def test_selfcheck_forms_each_product_once(monkeypatch):
    # necklace(6): 24 automorphisms and 3 greedy generators.  Each product
    # s*b of a generator and an element is formed once, and its leaf map
    # once: one table per generator for each (an automorphism's code has
    # 6 entries, a leaf map's 12 points and 6 arcs), and 3 * 24
    # compositions of each kind.
    tables = count_calls(monkeypatch, _table)
    compositions = {}
    for kind in (AtlasAutomorphism, LeafMap):
        calls = compositions[kind] = []

        def counted(a, b, compose=kind.compose, calls=calls):
            calls.append(a)
            return compose(a, b)

        monkeypatch.setattr(kind, "compose", counted)
    assert selfcheck(necklace(6)).ok
    assert sorted(len(code) for code, in tables) == [6, 6, 6, 18, 18, 18]
    for kind, calls in compositions.items():
        assert len(calls) == 3 * 24 == 72
        assert all(type(a) is kind for a in calls)
        assert len({id(a) for a in calls}) == 3


def test_selfcheck_reuses_the_kernel_witness(fixtures):
    # necklace(6) is reduced: the kernel's reversal witness serves the
    # witness cross-check, and its own model is the only one built.  LADDER
    # is not: its own reversal is read off its sides and checked against its
    # reduction's; one model each, the reduction's first.
    with pytest.MonkeyPatch.context() as patch:
        reversals = count_calls(patch, _reversal)
        builds = count_calls(patch, build_leaf_space)
        assert selfcheck(necklace(6)).ok
    assert len(reversals) == 1
    assert len(builds) == 1
    ladder = fixtures["LADDER"]
    with pytest.MonkeyPatch.context() as patch:
        reversals = count_calls(patch, _reversal)
        builds = count_calls(patch, build_leaf_space)
        assert selfcheck(ladder).ok
    assert [args[0] for args in reversals] == [reduce_component(ladder).atlas, ladder]
    assert [args[0] for args in builds] == [reduce_component(ladder).atlas, ladder]


def test_exceptional_selfcheck_checks_its_reversal_once(fixtures):
    # An exceptional component reads its kernel off the canonical atlas of
    # its kind, whose reversal serves the cross-check when the component is
    # that atlas (CYL, MOEB).  A two-strip cylinder or Moebius band has its
    # own reversal read off its sides as well, and checked against it: an
    # input without one fails the cross-check.
    for name in ("CYL", "MOEB"):
        with pytest.MonkeyPatch.context() as patch:
            reversals = count_calls(patch, _reversal)
            assert selfcheck(fixtures[name]).ok
        assert [args[0] for args in reversals] == [fixtures[name]]
    for parity, name in (("+", "CYL"), ("-", "MOEB")):
        atlas = parse_atlas(
            f"strip S\nside0 a\nside1 b\nstrip T\nside0 c\nside1 d\nglue b c +\nglue d a {parity}\n"
        )
        with pytest.MonkeyPatch.context() as patch:
            reversals = count_calls(patch, _reversal)
            assert selfcheck(atlas).ok
        assert [args[0] for args in reversals] == [fixtures[name], atlas]
        with pytest.MonkeyPatch.context() as patch:
            patch_everywhere(patch, _reversal, lambda sub: None if sub == atlas else _reversal(sub))
            lines = selfcheck(atlas).lines()
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL S:witness-crosscheck"
        ]


def test_thirty_strip_necklace_selfcheck_is_fast():
    start = time.perf_counter()
    report = selfcheck(necklace(30))
    assert report.ok, report.lines()
    assert time.perf_counter() - start < 5
