"""The leaf-space model, the regular seams and the leaf classes against
their location-based oracles.

``build_leaf_space``, ``regular_seams`` and ``classify_leaf`` read the
atlas index once and compare side lengths; the oracles in ``bruteforce``
look every interval up through ``atlas.location`` and compare side tuples.
They must agree on every small atlas, on seeded random atlases (often
disconnected and not reduced) and on necklaces.
"""

from __future__ import annotations

from bruteforce import build_leaf_space_located, classify_leaf_located, regular_seams_located
from stripes.corpus import exhaustive_family, necklace, random_atlas
from stripes.leafspace import build_leaf_space, classify_leaf, hcl_point
from stripes.reduction import regular_seams


def corpus():
    yield from exhaustive_family(2, 2)
    for seed in range(200):
        yield random_atlas(1 + seed % 12, 1 + seed % 3, 30_000 + seed, (0.6, 0.9, 1.0)[seed % 3])
    for n in range(3, 9):
        yield necklace(n)


def disagreements(atlas) -> list[str]:
    model, oracle = build_leaf_space(atlas), build_leaf_space_located(atlas)
    found = []
    if model.arcs != oracle.arcs or model.points != oracle.points:
        found.append("points")
    if list(model.attachments.items()) != list(oracle.attachments.items()):
        found.append("attachments")
    if list(model.end_points.items()) != list(oracle.end_points.items()):
        found.append("end_points")
    if regular_seams(atlas) != regular_seams_located(atlas):
        found.append("seams")
    for point in oracle.points:
        if classify_leaf(atlas, point) is not classify_leaf_located(atlas, point):
            found.append(f"class of {point.label()}")
        closure = {point}.union(*(oracle.end_points[end] for end in oracle.ends_of(point)))
        if hcl_point(model, point) != closure:
            found.append(f"closure of {point.label()}")
    return found


def test_layers_match_located_oracles():
    failures = {}
    count = 0
    for atlas in corpus():
        count += 1
        found = disagreements(atlas)
        if found:
            failures[str(atlas)] = found
    assert count > 16_000
    assert not failures, list(failures.items())[:3]
