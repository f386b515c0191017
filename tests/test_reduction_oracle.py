"""The one-pass chain walk of ``reduce_component`` against the stepwise oracle.

``bruteforce.reduce_stepwise`` merges one regular seam at a time and
rescans after each merge.  Merging in gluing order, it must give the same
kind and the same bytes as the chain walk on every small component, on a
seeded random corpus rich in regular seams, on long ladders and cycles,
and on necklaces of long paths; merging in random order, an isomorphic
result.

``reduce_atlas`` reduces the whole atlas before splitting it, and the
kernel and the report check connectivity on the reduced atlas.  Both rest
on merges staying inside a component: a proper outcome has as many
components as its input, and ``bruteforce.reduce_per_component``, which
splits first, gives the same outcomes.  An atlas already reduced comes
back as the same object.
"""

from __future__ import annotations

import time
from random import Random

import pytest

from bruteforce import reduce_per_component, reduce_stepwise
from stripes.atlas import (
    Gluing,
    Parity,
    Strip,
    StripedAtlas,
    component_atlases,
    connected_components,
    is_valid,
    isomorphic,
    serialize_atlas,
)
from stripes.corpus import exhaustive_family, random_atlas
from stripes.reduction import SurfaceKind, is_reduced, reduce_atlas, reduce_component
from stripes.symmetry import leaf_action_kernel

RANDOM_SEEDS = range(1200)


def same_as_oracle(atlas: StripedAtlas) -> bool:
    fast, slow = reduce_component(atlas), reduce_stepwise(atlas)
    if fast.kind is not slow.kind:
        return False
    if fast.kind is not SurfaceKind.PROPER:
        return fast.atlas is slow.atlas is None
    return serialize_atlas(fast.atlas) == serialize_atlas(slow.atlas)


def random_corpus():
    # One interval per side at most for half the seeds, so most seams are
    # regular and chains of several strips are common.
    for seed in RANDOM_SEEDS:
        glue_prob = 1.0 if seed % 3 == 0 else 0.9
        atlas = random_atlas(1 + seed % 8, 1 + seed % 2, 90_000 + seed, glue_prob)
        yield from component_atlases(atlas)


def chain(n: int, seed: int, closed: bool) -> StripedAtlas:
    """n strips joined by regular seams into a path (or a cycle), with
    shuffled strip names, strip order, gluing order, side choice and
    parities.  A path's two end sides carry two intervals each, glued
    to each other, so kept gluings see the mirror bits of both ends."""
    rng = Random(seed)
    parities = (Parity.INCREASING, Parity.DECREASING)
    names = [f"S{k}" for k in rng.sample(range(10 * n), n)]
    strips, gluings = [], []
    for i, name in enumerate(names):
        down = (f"d{i}",) if closed or i > 0 else ("p", "q")
        up = (f"u{i}",) if closed or i < n - 1 else ("r", "s")
        sides = (up, down) if rng.random() < 0.5 else (down, up)
        strips.append(Strip(name, *sides))
    for i in range(n - 1 + closed):
        gluings.append(Gluing(f"u{i}", f"d{(i + 1) % n}", rng.choice(parities)))
    if not closed:
        gluings.append(Gluing("p", "r", rng.choice(parities)))
        gluings.append(Gluing("q", "s", rng.choice(parities)))
    rng.shuffle(strips)
    rng.shuffle(gluings)
    return StripedAtlas(tuple(strips), tuple(gluings))


def beaded(m: int, beads: int, seed: int) -> StripedAtlas:
    """m paths of ``beads`` strips joined by regular seams, strung into a
    necklace: each path's last strip and the next path's first strip have
    an outer side of two intervals, glued pairwise (singular seams).  Strip
    names, strip order, gluing order, side choice, parities and the pairing
    at each joint are shuffled, so kept gluings join the ends of different
    paths, each end mirrored or not."""
    rng = Random(seed)
    parities = (Parity.INCREASING, Parity.DECREASING)
    n = m * beads
    names = [f"S{k}" for k in rng.sample(range(10 * n), n)]
    strips, gluings = [], []
    for i, name in enumerate(names):
        path, k = divmod(i, beads)
        down = (f"d{i}",) if k > 0 else (f"p{path}", f"q{path}")
        up = (f"u{i}",) if k < beads - 1 else (f"r{path}", f"s{path}")
        sides = (up, down) if rng.random() < 0.5 else (down, up)
        strips.append(Strip(name, *sides))
        if k:
            gluings.append(Gluing(f"u{i - 1}", f"d{i}", rng.choice(parities)))
    for path in range(m):
        p, q = f"p{(path + 1) % m}", f"q{(path + 1) % m}"
        if rng.random() < 0.5:
            p, q = q, p
        gluings.append(Gluing(f"r{path}", p, rng.choice(parities)))
        gluings.append(Gluing(f"s{path}", q, rng.choice(parities)))
    rng.shuffle(strips)
    rng.shuffle(gluings)
    return StripedAtlas(tuple(strips), tuple(gluings))


def test_exhaustive_family_matches_oracle():
    mismatches = [
        sub
        for atlas in exhaustive_family(2, 2)
        for sub in component_atlases(atlas)
        if not same_as_oracle(sub)
    ]
    assert mismatches == []


def test_random_corpus_matches_oracle():
    corpus = list(random_corpus())

    def merges(sub: StripedAtlas) -> int:
        outcome = reduce_component(sub)
        return len(sub.strips) - (len(outcome.atlas.strips) if outcome.atlas else 1)

    assert sum(merges(sub) >= 3 for sub in corpus) >= 50, "too few long chains"
    assert [sub for sub in corpus if not same_as_oracle(sub)] == []


@pytest.mark.parametrize("shape", ["ladder", "cycle", "beaded"])
@pytest.mark.parametrize("seed", range(4))
def test_long_chains_match_oracle(seed, shape):
    if shape == "beaded":
        atlas = beaded(3 + seed % 2, 20 + 10 * seed, seed)
    else:
        atlas = chain(200, seed, shape == "cycle")
    assert is_valid(atlas)
    assert same_as_oracle(atlas)


@pytest.mark.parametrize("order_seed", range(3))
def test_any_merge_order_is_isomorphic(order_seed):
    chains = [chain(30, seed, closed) for seed in range(3) for closed in (False, True)]
    corpus = list(random_corpus())[::7] + chains
    for sub in corpus:
        fast = reduce_component(sub)
        other = reduce_stepwise(sub, Random(order_seed))
        assert other.kind is fast.kind
        if fast.kind is SurfaceKind.PROPER:
            assert other.atlas == fast.atlas or isomorphic(other.atlas, fast.atlas)


def whole_atlas_corpus():
    # Whole atlases, not their components: many are disconnected, many
    # unreduced, and some have a cylinder or Moebius component.
    yield from exhaustive_family(2, 2)
    for seed in range(400):
        glue_prob = (1.0, 0.95, 0.8, 0.5)[seed % 4]
        yield random_atlas(1 + seed % 8, 1 + seed % 3 // 2, 40_000 + seed, glue_prob)


def keeps_components_and_splits_late(atlas: StripedAtlas) -> bool:
    outcome = reduce_component(atlas)
    if outcome.kind is SurfaceKind.PROPER:
        if len(connected_components(outcome.atlas)) != len(connected_components(atlas)):
            return False
        if is_reduced(atlas) and outcome.atlas is not atlas:
            return False
    return reduce_atlas(atlas) == reduce_per_component(atlas)


def test_reduction_keeps_components_and_reduced_atlases():
    corpus = list(whole_atlas_corpus())
    # The random draws hold every case the whole-atlas route must get right.
    draws = [(atlas, reduce_per_component(atlas)) for atlas in corpus[-400:]]
    assert sum(len(outcomes) > 1 for _, outcomes in draws) >= 200
    assert sum(not is_reduced(atlas) for atlas, _ in draws) >= 200
    assert sum(
        len(outcomes) > 1 and any(o.kind is not SurfaceKind.PROPER for o in outcomes)
        for _, outcomes in draws
    ) >= 40
    assert [atlas for atlas in corpus if not keeps_components_and_splits_late(atlas)] == []


@pytest.mark.parametrize("closed", [False, True], ids=["ladder", "cycle"])
def test_ten_thousand_strips_reduce_in_linear_time(closed):
    atlas = chain(10_000, 5, closed)
    for operation in (reduce_component, leaf_action_kernel):
        start = time.perf_counter()
        operation(atlas)
        assert time.perf_counter() - start < 5
