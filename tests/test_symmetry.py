from __future__ import annotations

import itertools

import pytest

import bruteforce
from stripes.atlas import component_atlases, is_valid_witness, parse_atlas
from stripes.corpus import necklace, random_atlas, random_connected_atlas
from stripes.leafspace import LeafPoint, build_leaf_space
from stripes.reduction import SurfaceKind, canonical_exceptional_atlas, reduce_component
from stripes.symmetry import (
    AtlasAutomorphism,
    DisconnectedAtlasError,
    all_leaf_reversal,
    enumerate_automorphisms,
    homeotopy_report,
    identity_automorphism,
    induced_leaf_map,
    leaf_action_kernel,
    leaf_model_automorphism_count,
    reversal_witness,
)
from test_reduction_oracle import chain


def aut(strip_map, side_flip, reversal) -> AtlasAutomorphism:
    return AtlasAutomorphism(dict(strip_map), dict(side_flip), dict(reversal))


def triple(a: AtlasAutomorphism):
    return a.strip_map, a.side_flip, a.reversal


def psi(atlas, candidate):
    return induced_leaf_map(build_leaf_space(atlas), candidate)


# -- validity ----------------------------------------------------------------


def test_punctured_double_reversal_is_valid(fixtures):
    atlas = fixtures["PUNCTURED"]
    candidate = aut({"S": "S", "T": "T"}, {"S": 0, "T": 0}, {"S": 1, "T": 1})
    assert is_valid_witness(atlas, atlas, *triple(candidate))


def test_punctured_half_flip_side_count_mismatch(fixtures):
    atlas = fixtures["PUNCTURED"]
    for r_s, r_t in itertools.product((0, 1), repeat=2):
        candidate = aut(
            {"S": "T", "T": "S"}, {"S": 1, "T": 0}, {"S": r_s, "T": r_t}
        )
        assert not is_valid_witness(atlas, atlas, *triple(candidate))


def test_cyl_side_swap_is_valid(fixtures):
    atlas = fixtures["CYL"]
    candidate = aut({"S": "S"}, {"S": 1}, {"S": 0})
    assert is_valid_witness(atlas, atlas, *triple(candidate))


def test_punctured_single_reversal_is_invalid(fixtures):
    atlas = fixtures["PUNCTURED"]
    candidate = aut({"S": "S", "T": "T"}, {"S": 0, "T": 0}, {"S": 1, "T": 0})
    assert not is_valid_witness(atlas, atlas, *triple(candidate))


# -- enumeration -------------------------------------------------------------


def test_plane_group_is_klein_four(fixtures):
    group = enumerate_automorphisms(fixtures["PLANE"])
    assert len(group) == 4
    assert {(a.side_flip["S"], a.reversal["S"]) for a in group} == {
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    }
    assert all(a.compose(a).is_identity for a in group)


def test_punctured_group_elements(fixtures):
    group = enumerate_automorphisms(fixtures["PUNCTURED"])
    expected = {
        aut({"S": "S", "T": "T"}, {"S": 0, "T": 0}, {"S": 0, "T": 0}),
        aut({"S": "S", "T": "T"}, {"S": 0, "T": 0}, {"S": 1, "T": 1}),
        aut({"S": "T", "T": "S"}, {"S": 1, "T": 1}, {"S": 0, "T": 0}),
        aut({"S": "T", "T": "S"}, {"S": 1, "T": 1}, {"S": 1, "T": 1}),
    }
    assert set(group) == expected


def test_cyl_group_order_four_exponent_two(fixtures):
    group = enumerate_automorphisms(fixtures["CYL"])
    assert len(group) == 4
    assert all(a.compose(a).is_identity for a in group)


@pytest.mark.parametrize(
    "name, order",
    [("MOEB", 4), ("SAMESIDE", 2), ("HALFPLANE", 2), ("LADDER", 4)],
)
def test_group_orders(fixtures, name, order):
    assert len(enumerate_automorphisms(fixtures[name])) == order


def test_enumeration_equals_brute_force(fixtures, exhaustive_all):
    # The brute-force witnesses are sorted by the former key, three tuples of
    # (strip, value) pairs; the flat key must keep that canonical order.
    for atlas in (*fixtures.values(), *exhaustive_all, necklace(4)):
        found = [bruteforce.witness_key(triple(a)) for a in enumerate_automorphisms(atlas)]
        assert found == bruteforce.witnesses(atlas, atlas)


def test_group_laws(fixtures):
    for atlas in fixtures.values():
        group = enumerate_automorphisms(atlas)
        members = set(group)
        assert identity_automorphism(atlas) in members
        for a in group:
            assert a.inverse() in members
            assert a.compose(a.inverse()).is_identity
            for b in group:
                assert a.compose(b) in members


def test_composition_rule():
    a = aut({"S": "T", "T": "S"}, {"S": 1, "T": 0}, {"S": 0, "T": 1})
    b = aut({"S": "S", "T": "T"}, {"S": 1, "T": 1}, {"S": 1, "T": 0})
    c = a.compose(b)
    assert c.strip_map == {"S": "T", "T": "S"}
    assert c.side_flip == {"S": 1 ^ 1, "T": 1 ^ 0}
    assert c.reversal == {"S": 1 ^ 0, "T": 0 ^ 1}


# -- induced leaf maps -------------------------------------------------------


def test_induced_map_punctured_reversal_swaps_points(fixtures):
    atlas = fixtures["PUNCTURED"]
    candidate = aut({"S": "S", "T": "T"}, {"S": 0, "T": 0}, {"S": 1, "T": 1})
    leaf_map = psi(atlas, candidate)
    p1 = LeafPoint(("s1", "t1"))
    p2 = LeafPoint(("s2", "t2"))
    assert leaf_map.point_map == {p1: p2, p2: p1}
    assert leaf_map.arc_map == {"S": "S", "T": "T"}
    assert leaf_map.arc_reversed == {"S": 0, "T": 0}


def test_induced_map_identity_is_identity(fixtures):
    for atlas in fixtures.values():
        leaf_map = psi(atlas, identity_automorphism(atlas))
        assert leaf_map.is_identity


def test_induced_map_cyl_side_swap_reverses_arc(fixtures):
    atlas = fixtures["CYL"]
    leaf_map = psi(atlas, aut({"S": "S"}, {"S": 1}, {"S": 0}))
    (p,) = build_leaf_space(atlas).points
    assert leaf_map.point_map == {p: p}
    assert leaf_map.arc_reversed == {"S": 1}


def test_induced_map_commutes_with_attachments(fixtures):
    for atlas in fixtures.values():
        model = build_leaf_space(atlas)
        for candidate in enumerate_automorphisms(atlas):
            point_map = induced_leaf_map(model, candidate).point_map
            for point in model.points:
                image = point_map[point]
                expected = sorted(
                    (
                        candidate.strip_map[a.end.strip],
                        a.end.side ^ candidate.side_flip[a.end.strip],
                        a.index
                        if not candidate.reversal[a.end.strip]
                        else len(
                            atlas.strip(candidate.strip_map[a.end.strip]).side(
                                a.end.side ^ candidate.side_flip[a.end.strip]
                            )
                        )
                        - 1
                        - a.index,
                    )
                    for a in model.attachments[point]
                )
                actual = sorted(
                    (a.end.strip, a.end.side, a.index)
                    for a in model.attachments[image]
                )
                assert actual == expected


def test_induced_map_rejects_a_misfit(fixtures):
    model = build_leaf_space(fixtures["PUNCTURED"])
    swap, elsewhere = {"S": "T", "T": "S"}, {"S": "V", "T": "W"}
    zeros = lambda strips: dict.fromkeys(strips, 0)
    misfits = [
        # T's side 0 holds two intervals and would land on S's empty side 0.
        ("side sizes differ", aut(swap, {"S": 1, "T": 0}, {"S": 0, "T": 0})),
        # Reversing S alone sends {s1,t1} to s2 and t1, two different points.
        ("onto a leaf point", aut({"S": "S", "T": "T"}, {"S": 0, "T": 0}, {"S": 1, "T": 0})),
        # The model's arcs are S and T: an element on S alone, on S, T and
        # U, or on S and U, and a witness onto V and W do not fit it.
        *[
            ("its strips are not the model's arcs", aut(images, zeros(images), zeros(images)))
            for images in ({"S": "S"}, {s: s for s in "STU"}, {"S": "S", "U": "U"}, elsewhere)
        ],
    ]
    for detail, candidate in misfits:
        with pytest.raises(ValueError, match=f"^automorphism does not .*{detail}"):
            induced_leaf_map(model, candidate)
    # A free point may not land on a seam: {f} and {g} would both go to {a,b}.
    free_to_seam = parse_atlas("strip S\nside0 a b\nside1 f g\nglue a b +\n")
    flip = aut({"S": "S"}, {"S": 1}, {"S": 0})
    with pytest.raises(ValueError, match="onto a leaf point"):
        induced_leaf_map(build_leaf_space(free_to_seam), flip)


def test_induced_map_equals_interval_route(fixtures, exhaustive_connected):
    # psi read off the model's arc ends equals psi read through the
    # positional interval bijection, for every automorphism.
    corpus = [*fixtures.values(), *exhaustive_connected]
    corpus += [necklace(len(p), p) for p in ("+", "+-", "+++", "++-+")]
    for seed in range(200):
        corpus += component_atlases(random_atlas(1 + seed % 5, 2, 3000 + seed, 0.9))
    checked = 0
    for atlas in corpus:
        model = build_leaf_space(atlas)
        for candidate in enumerate_automorphisms(atlas):
            assert induced_leaf_map(model, candidate) == bruteforce.leaf_map(atlas, candidate)
            checked += 1
    assert checked > 1500


def test_functoriality_on_fixtures(fixtures):
    for atlas in fixtures.values():
        group = enumerate_automorphisms(atlas)
        maps = {a: psi(atlas, a) for a in group}
        for a in group:
            for b in group:
                assert maps[a.compose(b)] == maps[a].compose(maps[b])


# -- triviality, kernel, witness ---------------------------------------------


def test_trivial_on_surface_only_for_identity(fixtures):
    # On a reduced atlas only the identity triple is isotopic to the
    # identity on the surface; the group holds it exactly once.
    atlas = fixtures["PUNCTURED"]
    identities = [a for a in enumerate_automorphisms(atlas) if a.is_identity]
    assert identities == [identity_automorphism(atlas)]


def test_trivial_on_surface_rejects_leaf_reversal(fixtures):
    atlas = fixtures["PLANE"]
    reversal = all_leaf_reversal(atlas)
    assert not reversal.is_identity
    assert psi(atlas, reversal).is_identity


def test_trivial_on_leaf_space_examples(fixtures):
    trivial = bruteforce.is_isotopically_trivial_on_leaf_space
    plane = fixtures["PLANE"]
    assert trivial(plane, all_leaf_reversal(plane))

    sameside = fixtures["SAMESIDE"]
    assert trivial(sameside, all_leaf_reversal(sameside))

    punctured = fixtures["PUNCTURED"]
    assert not trivial(punctured, all_leaf_reversal(punctured))
    swap = aut({"S": "T", "T": "S"}, {"S": 1, "T": 1}, {"S": 0, "T": 0})
    assert not trivial(punctured, swap)
    for atlas in (plane, sameside, punctured):
        for candidate in enumerate_automorphisms(atlas):
            assert psi(atlas, candidate).is_identity == trivial(atlas, candidate)


def test_surface_triviality_implies_leaf_space_triviality(fixtures):
    for name in ("PLANE", "HALFPLANE", "SAMESIDE", "PUNCTURED"):
        atlas = fixtures[name]
        for candidate in enumerate_automorphisms(atlas):
            if candidate.is_identity:
                assert bruteforce.is_isotopically_trivial_on_leaf_space(atlas, candidate)
                assert psi(atlas, candidate).is_identity


@pytest.mark.parametrize(
    "name, trivial",
    [
        ("PLANE", False),
        ("HALFPLANE", False),
        ("SAMESIDE", False),
        ("CYL", False),
        ("MOEB", False),
        ("LADDER", False),
        ("PUNCTURED", True),
    ],
)
def test_kernel_fixtures(fixtures, name, trivial):
    result = leaf_action_kernel(fixtures[name])
    assert result.is_trivial is trivial
    assert result.order == (1 if trivial else 2)
    if not trivial:
        witness = result.witness
        assert all(s == t for s, t in witness.strip_map.items())
        assert not any(witness.side_flip.values())
        assert all(witness.reversal.values())


def test_exceptional_kernel_witness_is_the_canonical_reversal():
    # A cylinder or Moebius band works on the canonical one-strip atlas of
    # its kind, whatever its own strips: the kernel's witness is that
    # atlas's all-leaf reversal, in kernel and in report alike.
    kinds = set()
    for n in (1, 2, 7, 40):
        for seed in range(6):
            atlas = chain(n, seed, True)
            kind = reduce_component(atlas).kind
            kinds.add(kind)
            kernel = leaf_action_kernel(atlas)
            assert kernel.witness == all_leaf_reversal(canonical_exceptional_atlas(kind))
            assert homeotopy_report(atlas).kernel == kernel
    assert kinds == {SurfaceKind.OPEN_CYLINDER, SurfaceKind.OPEN_MOEBIUS_BAND}


def test_kernel_witness_fixes_every_point(fixtures):
    result = leaf_action_kernel(fixtures["PLANE"])
    witness_map = psi(fixtures["PLANE"], result.witness)
    assert all(p == q for p, q in witness_map.point_map.items())


def test_kernel_members_constant_reversal(fixtures):
    for name in ("PLANE", "HALFPLANE", "SAMESIDE", "PUNCTURED"):
        for member in bruteforce.kernel_members(fixtures[name]):
            assert len(set(member.reversal.values())) == 1


def test_kernel_rejects_disconnected():
    atlas = parse_atlas("strip S\nstrip T\n")
    with pytest.raises(DisconnectedAtlasError):
        leaf_action_kernel(atlas)
    with pytest.raises(DisconnectedAtlasError):
        reversal_witness(atlas)


def test_component_kernels_on_disconnected():
    atlas = parse_atlas("strip S\nside0 a b\nglue a b +\nstrip T\n")
    results = {
        frozenset(sub.strip_ids): leaf_action_kernel(sub) for sub in component_atlases(atlas)
    }
    assert results[frozenset({"S"})].order == 2
    assert results[frozenset({"T"})].order == 2


@pytest.mark.parametrize(
    "name, exists",
    [("SAMESIDE", True), ("HALFPLANE", True), ("PUNCTURED", False), ("CYL", True)],
)
def test_reversal_witness(fixtures, name, exists):
    witness = reversal_witness(fixtures[name])
    assert (witness is not None) is exists


@pytest.mark.parametrize(
    "name, aut_order, kernel_label, image_order, leaf_model",
    [
        ("PUNCTURED", 4, "TRIVIAL", 4, 4),
        ("PLANE", 4, "Z2", 2, 2),
        ("CYL", 4, "Z2", 2, 2),
        ("MOEB", 4, "Z2", 2, 2),
        ("SAMESIDE", 2, "Z2", 1, 1),
        ("HALFPLANE", 2, "Z2", 1, 1),
    ],
)
def test_homeotopy_reports(fixtures, name, aut_order, kernel_label, image_order, leaf_model):
    report = homeotopy_report(fixtures[name])
    assert report.aut_order == aut_order
    assert report.kernel.label() == kernel_label
    assert report.image_order == image_order
    assert report.leaf_model_aut_order == leaf_model
    assert report.image_order <= report.leaf_model_aut_order


def test_report_of_cylinder_chain_matches_canonical(fixtures):
    chain = parse_atlas(
        "strip S\nside0 a\nside1 b\nstrip T\nside0 c\nside1 d\nglue b c +\nglue d a +\n"
    )
    got = homeotopy_report(chain)
    want = homeotopy_report(fixtures["CYL"])
    # The kernel witnesses live on different atlases; compare the content.
    assert (got.aut_order, got.kernel.label(), got.image_order) == (
        want.aut_order,
        want.kernel.label(),
        want.image_order,
    )
    assert got.leaf_model_aut_order == want.leaf_model_aut_order


def test_leaf_model_count_ladder(fixtures):
    # Non-reduced model: one interior point joining two arcs end to end.
    model = build_leaf_space(fixtures["LADDER"])
    assert leaf_model_automorphism_count(model) == 2


@pytest.mark.parametrize("seed", range(30))
def test_dichotomy_on_random_connected(seed):
    atlas = random_connected_atlas(1 + seed % 4, 3, 9000 + seed)
    result = leaf_action_kernel(atlas)
    outcome = reduce_component(atlas)
    # The palindrome test alone decides the reversal, reduced or not: it is
    # found exactly when every arc end reads the same backwards, and the
    # witness-validity reference then accepts it.
    for sub in (atlas, outcome.atlas) if outcome.atlas else (atlas,):
        ends = build_leaf_space(sub).end_points.values()
        witness = reversal_witness(sub)
        assert (witness is not None) == all(p == p[::-1] for p in ends)
        assert witness is None or is_valid_witness(sub, sub, *triple(witness))
    if outcome.kind is SurfaceKind.PROPER:
        members = bruteforce.kernel_members(outcome.atlas)
        assert len(members) in (1, 2)
        assert (len(members) == 2) == (reversal_witness(outcome.atlas) is not None)
        assert result.order == len(members)
        # The reversal route agrees whether checked before or after reduction.
        assert (reversal_witness(atlas) is not None) == (
            reversal_witness(outcome.atlas) is not None
        )
    else:
        assert result.order == 2
        assert reversal_witness(atlas) is not None
