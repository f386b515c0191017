"""The rooted-traversal witness search against the brute-force oracles.

``iter_witnesses`` must yield exactly the brute-force witness set, and
``canonical_form`` must agree exactly when a brute-force witness exists,
on every small connected class and on a seeded random corpus that
includes disconnected atlases.  The pruned matcher must also yield its
witnesses in the order of the unpruned 4n-frame matcher, so that
``isomorphic`` returns the same witness.  It must walk few frames, stop
each at its first row that differs, and match each pair of components
once.  Rows and traversal texts must tell the same frames apart.
"""

from __future__ import annotations

import sys
import time
from math import factorial
from random import Random

import pytest

import bruteforce
from conftest import count_calls, patch_everywhere
from stripes.atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    _connected_witnesses,
    _rows,
    _traverse,
    canonical_form,
    component_atlases,
    connected_components,
    is_connected,
    is_valid_witness,
    isomorphic,
    iter_witnesses,
    parse_atlas,
    serialize_atlas,
)
from stripes.corpus import exhaustive_family, necklace, random_atlas
from stripes.symmetry import enumerate_automorphisms

RANDOM_SEEDS = range(100)


def witnesses(src, dst):
    return sorted(bruteforce.witness_key(w) for w in iter_witnesses(src, dst))


def oracle_order(src: StripedAtlas, dst: StripedAtlas) -> list:
    """``iter_witnesses`` with the unpruned 4n-frame matcher in its place.

    Every connected match must go through the swapped function, on the
    reference-walk path as on the component route; so the oracle must have
    run, and only on connected non-empty pairs."""
    pairs = []

    def oracle(part, other, *reference):
        pairs.append((part, other))
        return bruteforce.connected_witnesses(part, other, *reference)

    with pytest.MonkeyPatch.context() as patch:
        patch_everywhere(patch, _connected_witnesses, oracle)
        expected = list(iter_witnesses(src, dst))
    assert pairs
    for part, other in pairs:
        assert part.strips and other.strips and is_connected(part) and is_connected(other)
    return expected


def assert_same_order(src: StripedAtlas, dst: StripedAtlas) -> None:
    expected = oracle_order(src, dst)
    assert list(iter_witnesses(src, dst)) == expected
    assert isomorphic(src, dst) == (expected[0] if expected else None)


def moved_copy(atlas: StripedAtlas, rng: Random) -> StripedAtlas:
    """An isomorphic copy: new names, shuffled order, and a random side
    flip and leaf reversal on every strip."""
    flip = {s.id: rng.randint(0, 1) for s in atlas.strips}
    rev = {s.id: rng.randint(0, 1) for s in atlas.strips}
    names = {}
    strips = []
    for s in atlas.strips:
        sides = []
        for which in (0, 1):
            side = s.side(which ^ flip[s.id])
            side = side[::-1] if rev[s.id] else side
            sides.append(tuple(names.setdefault(n, f"c{len(names)}") for n in side))
        strips.append(Strip(f"C{s.id}", *sides))
    gluings = [
        Gluing(
            names[g.a],
            names[g.b],
            g.parity.xor(rev[atlas.location(g.a)[0]] ^ rev[atlas.location(g.b)[0]]),
        )
        for g in atlas.gluings
    ]
    rng.shuffle(strips)
    rng.shuffle(gluings)
    return StripedAtlas(tuple(strips), tuple(gluings))


def parity_flipped(atlas: StripedAtlas) -> StripedAtlas:
    """The same atlas with its first gluing's parity flipped."""
    first, *rest = atlas.gluings
    return StripedAtlas(
        atlas.strips, (Gluing(first.a, first.b, first.parity.flipped()), *rest)
    )


def test_witnesses_match_oracle_on_exhaustive_connected(exhaustive_connected):
    rng = Random(1)
    for atlas in exhaustive_connected:
        copy = moved_copy(atlas, rng)
        assert witnesses(atlas, atlas) == bruteforce.witnesses(atlas, atlas)
        assert witnesses(atlas, copy) == bruteforce.witnesses(atlas, copy)
        assert_same_order(atlas, atlas)
        assert_same_order(atlas, copy)


def test_random_corpus_has_disconnected_atlases():
    corpus = [random_atlas(1 + seed % 4, 2, 5000 + seed) for seed in RANDOM_SEEDS]
    assert sum(not is_connected(a) for a in corpus) >= 10


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_atlas_matches_oracle(seed):
    atlas = random_atlas(1 + seed % 4, 2, 5000 + seed)
    copy = moved_copy(atlas, Random(seed))
    assert witnesses(atlas, atlas) == bruteforce.witnesses(atlas, atlas)
    expected = bruteforce.witnesses(atlas, copy)
    assert expected and witnesses(atlas, copy) == expected
    assert_same_order(atlas, atlas)
    assert_same_order(atlas, copy)
    assert canonical_form(atlas) == canonical_form(copy)

    others = [random_atlas(1 + seed % 4, 2, 6000 + seed)]
    if atlas.gluings:
        others.append(moved_copy(parity_flipped(atlas), Random(seed)))
    for other in others:
        same = canonical_form(atlas) == canonical_form(other)
        assert same == bool(bruteforce.witnesses(atlas, other))


def test_oracle_canonical_forms_separate_the_exhaustive_classes(exhaustive_all):
    forms = {bruteforce.canonical_form(atlas) for atlas in exhaustive_all}
    assert len(forms) == len(exhaustive_all) == 1043


def _necklace(n: int, prefix: str, order: list[int]) -> StripedAtlas:
    # Side 1 of strip i glued to side 0 of strip i+1, cyclically, all +.
    strips = [
        Strip(f"{prefix}{i}", (f"{prefix}c{i}", f"{prefix}d{i}"), (f"{prefix}a{i}", f"{prefix}b{i}"))
        for i in order
    ]
    gluings = []
    for i in order:
        j = (i + 1) % n
        gluings.append(Gluing(f"{prefix}a{i}", f"{prefix}c{j}", Parity.INCREASING))
        gluings.append(Gluing(f"{prefix}b{i}", f"{prefix}d{j}", Parity.INCREASING))
    return StripedAtlas(tuple(strips), tuple(gluings))


def test_necklace_of_sixty_beyond_oracle_reach():
    start = time.perf_counter()
    atlas = _necklace(60, "N", list(range(60)))
    order = list(range(60))
    Random(3).shuffle(order)
    copy = _necklace(60, "M", order)
    assert len(enumerate_automorphisms(atlas)) == 240
    assert canonical_form(atlas) == canonical_form(copy)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n", range(3, 9))
def test_witness_order_matches_oracle_on_necklaces(n):
    # All increasing, one decreasing, alternating.
    for parities in ("+" * n, "-" + "+" * (n - 1), ("+-" * n)[:n]):
        atlas = necklace(n, parities)
        assert_same_order(atlas, atlas)
        assert_same_order(atlas, moved_copy(atlas, Random(n)))


def count_rows(monkeypatch) -> list:
    """Count the rows that ``_rows`` walks, under every name it is bound to."""
    rows = []

    def counted(*args):
        for row in _rows(*args):
            rows.append(row)
            yield row

    patch_everywhere(monkeypatch, _rows, counted)
    return rows


def largest_random_component() -> StripedAtlas:
    # 183 strips and one automorphism.
    atlas = max(
        component_atlases(random_atlas(200, 3, 1, 0.95)), key=lambda a: len(a.strips)
    )
    assert len(atlas.strips) == 183
    return atlas


def test_automorphisms_traverse_only_candidate_roots(monkeypatch):
    # All 24 frames of necklace(6) match, and the reference frame's own
    # walk serves the identity; the unpruned matcher makes 25 traversals.
    walks = count_calls(monkeypatch, _rows)
    assert len(enumerate_automorphisms(necklace(6))) == 24
    assert len(walks) == 24


def test_trivial_group_skips_most_roots(monkeypatch):
    # The unpruned matcher makes 733 traversals.
    atlas = largest_random_component()
    walks = count_calls(monkeypatch, _rows)
    assert len(enumerate_automorphisms(atlas)) == 1
    assert len(walks) <= 40


def test_matching_stops_at_the_first_differing_row(monkeypatch):
    # The reference frame walks all 183 rows (231 rows in all): walking
    # each of the other candidate frames to the end would take thousands.
    atlas = largest_random_component()
    rows = count_rows(monkeypatch)
    assert len(enumerate_automorphisms(atlas)) == 1
    assert len(rows) <= 300


def test_rows_and_texts_partition_the_frames_alike():
    # Matching compares rows, canonical_form compares texts: over every
    # root frame of every connected member of the family, equal texts
    # must mean equal rows and the other way round.
    pairs = set()
    for atlas in exhaustive_family(2, 2):
        if not is_connected(atlas):
            continue
        for root in range(4 * len(atlas.strips)):
            frames: list[int] = []
            rows = tuple(_rows(atlas, root, frames))
            assert len(rows) == len(frames) == len(set(f // 4 for f in frames)) == len(atlas.strips)
            pairs.add((_traverse(atlas, root), rows))
    texts = {text for text, _ in pairs}
    assert len(texts) == len({rows for _, rows in pairs}) == len(pairs)


def disjoint_union(parts: list[StripedAtlas], rng: Random) -> StripedAtlas:
    """The parts side by side, names prefixed by part, strips and gluings
    shuffled."""
    strips, gluings = [], []
    for i, part in enumerate(parts):
        for s in part.strips:
            sides = [tuple(f"p{i}.{n}" for n in side) for side in (s.side0, s.side1)]
            strips.append(Strip(f"p{i}.{s.id}", *sides))
        gluings += [Gluing(f"p{i}.{g.a}", f"p{i}.{g.b}", g.parity) for g in part.gluings]
    rng.shuffle(strips)
    rng.shuffle(gluings)
    return StripedAtlas(tuple(strips), tuple(gluings))


@pytest.mark.parametrize("seed", range(22))
def test_component_pairing_order_matches_recursive_oracle(seed, exhaustive_connected):
    # 2 to 12 components drawn from up to six forms, so most forms repeat
    # and a component has several targets; the witness count is kept
    # small enough to list every witness.
    rng = Random(7000 + seed)
    size = 2 + seed % 11
    while True:
        forms = rng.sample(exhaustive_connected, rng.randint(1, min(size, 6)))
        parts = forms + [rng.choice(forms) for _ in range(size - len(forms))]
        count = 1
        for form in forms:
            copies = sum(part is form for part in parts)
            count *= factorial(copies) * len(enumerate_automorphisms(form)) ** copies
        if count <= 200:
            break
    atlas = disjoint_union(parts, rng)
    copy = moved_copy(atlas, rng)
    for dst in (atlas, copy):
        expected = list(bruteforce.iter_witnesses_recursive(atlas, dst))
        assert len(expected) == count
        assert list(iter_witnesses(atlas, dst)) == expected
        assert isomorphic(atlas, dst) == expected[0]


def test_each_pair_of_components_is_matched_once(monkeypatch, exhaustive_connected):
    # Twelve components, four copies each of three forms with one
    # automorphism: 4!^3 = 13,824 witnesses, and 3 * 4 * 4 = 48 pairs of
    # components of equal form.  Matching afresh for every pairing of the
    # earlier components makes 47,012 matcher calls.
    forms = [a for a in exhaustive_connected if len(enumerate_automorphisms(a)) == 1][:3]
    atlas = disjoint_union(forms * 4, Random(12))
    expected = list(bruteforce.iter_witnesses_recursive(atlas, atlas))
    assert len(expected) == 24**3
    calls = count_calls(monkeypatch, _connected_witnesses)
    assert list(iter_witnesses(atlas, atlas)) == expected
    assert len(calls) <= 48


def test_empty_atlas_has_the_empty_witness():
    empty = StripedAtlas((), ())
    expected = [({}, {}, {})]
    assert list(bruteforce.iter_witnesses_recursive(empty, empty)) == expected
    assert list(iter_witnesses(empty, empty)) == expected


def test_isomorphic_pairs_many_components():
    # 1,200 one-strip components: more than the recursion limit, which a
    # generator frame per component (bruteforce.iter_witnesses_recursive)
    # runs into.
    shapes = [
        (Strip("S", ("a",), ()), ()),
        (Strip("S", ("a", "b"), ("c",)), (Gluing("a", "b", Parity.DECREASING),)),
        (Strip("S", ("a",), ("b",)), (Gluing("a", "b", Parity.INCREASING),)),
        (Strip("S", ("a", "b"), ("c", "d")), (Gluing("a", "d", Parity.INCREASING),)),
    ]
    parts = [StripedAtlas((strip,), gluings) for strip, gluings in shapes * 300]
    atlas = disjoint_union(parts, Random(1))
    copy = moved_copy(atlas, Random(2))
    assert len(component_atlases(atlas)) == 1200 > sys.getrecursionlimit()
    witness = isomorphic(atlas, copy)
    assert witness is not None
    assert is_valid_witness(atlas, copy, *witness)


def assert_no_witness_either_way(a: StripedAtlas, b: StripedAtlas) -> None:
    assert len(a.strips) == len(b.strips) and len(a.gluings) == len(b.gluings)
    assert len(component_atlases(a)) != len(component_atlases(b))
    for src, dst in ((a, b), (b, a)):
        assert witnesses(src, dst) == bruteforce.witnesses(src, dst) == []
        assert isomorphic(src, dst) is None


def test_connected_against_disconnected_necklaces():
    # 4 strips and 8 gluings each: one cycle of four, two cycles of two.
    two = disjoint_union([necklace(2), necklace(2)], Random(4))
    assert_no_witness_either_way(necklace(4), two)


def pairs_of_other_component_counts(atlases: list, rng: Random, count: int) -> list:
    """``count`` seeded pairs with equal strip and gluing counts and
    different numbers of components."""
    by_size: dict[tuple[int, int, int], list] = {}
    for atlas in atlases:
        key = (len(atlas.strips), len(atlas.gluings), len(component_atlases(atlas)))
        by_size.setdefault(key, []).append(atlas)
    keys = [
        (k, l) for k in by_size for l in by_size if k[:2] == l[:2] and k[2] < l[2]
    ]
    assert keys
    pairs = []
    for _ in range(count):
        k, l = rng.choice(keys)
        pairs.append((rng.choice(by_size[k]), rng.choice(by_size[l])))
    return pairs


def test_connected_against_disconnected_on_the_family():
    for a, b in pairs_of_other_component_counts(list(exhaustive_family(2, 2)), Random(5), 200):
        assert_no_witness_either_way(a, b)


def test_connected_against_disconnected_on_random_atlases():
    corpus = [random_atlas(3 + seed % 2, 2, 8000 + seed) for seed in range(60)]
    pairs = pairs_of_other_component_counts(corpus, Random(6), 20)
    assert sum(is_connected(a) for a, _ in pairs) >= 5
    for a, b in pairs:
        assert_no_witness_either_way(a, b)


def fresh(atlas: StripedAtlas) -> StripedAtlas:
    """The atlas parsed from its text, with no index built."""
    return parse_atlas(serialize_atlas(atlas))


@pytest.mark.parametrize("flip", [False, True], ids=["isomorphic", "not-isomorphic"])
def test_connected_search_builds_one_index(monkeypatch, flip):
    # The reference walk of a connected source shows it connected: neither
    # atlas is split into components, and the partner table is the one
    # index either builds.
    atlas = necklace(4)
    other = moved_copy(parity_flipped(atlas) if flip else atlas, Random(7))
    a, b = fresh(atlas), fresh(other)
    splits = count_calls(monkeypatch, connected_components)
    assert (isomorphic(a, b) is None) == flip
    assert not splits
    for built in (vars(a), vars(b)):
        assert "_partners" in built
        assert not {"locations", "gluing_of", "strips_by_id", "components"} & built.keys()


def test_disconnected_source_takes_the_component_route():
    atlas = disjoint_union([necklace(2), necklace(2)], Random(8))
    a, b = fresh(atlas), fresh(moved_copy(atlas, Random(9)))
    assert isomorphic(a, b) is not None
    assert len(vars(a)["components"]) == len(vars(b)["components"]) == 2


def test_disconnected_target_costs_linear_walking(monkeypatch):
    # Every root frame of two half necklaces reads like the whole necklace
    # until its component closes, 79,400 rows in all.  Once the failed
    # walks have reached 2n strips, the failing one is finished and shows
    # the target disconnected: the search stops, having split neither
    # atlas.  The other way, the source's reference walk stops short and
    # the component counts differ.
    n = 200
    whole = fresh(necklace(n))
    halves = fresh(disjoint_union([necklace(n // 2), necklace(n // 2)], Random(10)))
    rows = count_rows(monkeypatch)
    assert isomorphic(whole, halves) is None
    assert len(rows) <= 4 * n
    assert "components" not in vars(whole) and "components" not in vars(halves)
    rows.clear()
    assert isomorphic(halves, whole) is None
    assert len(rows) <= 4 * n
