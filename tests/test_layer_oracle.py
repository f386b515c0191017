"""The leaf-space model, the regular seams and the leaf classes against
their location-based oracles.

``build_leaf_space``, ``regular_seams`` and ``classify_leaf`` read the
atlas index once and compare side lengths; the oracles in ``bruteforce``
look every interval up through ``atlas.location`` and compare side tuples.
They must agree on every small atlas, on seeded random atlases (often
disconnected and not reduced) and on necklaces.  ``leaf_points`` must
return the model's points, and the plain ``classify``, ``leafspace`` and
``dual`` commands, which build less than the model or the dual graph,
must print what the oracles and the dual graph give.  Plain ``leafspace``
must print byte for byte what the model route gives, and the closures of
its position pass must be ``hcl_point``'s.  ``component_atlases`` must
split an atlas like the per-component filter.
"""

from __future__ import annotations

import contextlib
import io

from bruteforce import (
    build_leaf_space_located,
    classify_leaf_located,
    classify_text,
    component_atlases_filtered,
    leafspace_text,
    regular_seams_located,
)
from stripes.atlas import component_atlases, is_connected, parse_atlas, serialize_atlas
from stripes.cli import main
from stripes.corpus import exhaustive_family, necklace, random_atlas
from stripes.dualgraph import build_dual_graph, euler_invariant
from stripes.leafspace import (
    build_leaf_space,
    classify_leaf,
    hcl_point,
    leaf_point_table,
    leaf_points,
)
from stripes.reduction import regular_seams
from test_cli import ODD_NAMES


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
    if leaf_points(atlas) != model.points:
        found.append("leaf_points")
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


def cli_disagreements(atlas, path) -> list[str]:
    path.write_text(serialize_atlas(atlas), encoding="utf-8")
    graph = build_dual_graph(atlas)
    expected = {
        "classify": classify_text(atlas),
        "leafspace": leafspace_text(atlas),
        "dual": f"vertices {len(graph.vertices)}\nedges {len(graph.edges)}\n"
        f"euler {euler_invariant(graph)}\n",
    }
    found = []
    for command, text in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, str(path)])
        if (code, out.getvalue()) != (0, text):
            found.append(command)
    return found


def test_structural_commands_match_oracles(tmp_path):
    path = tmp_path / "input.atlas"
    failures = {}
    for atlas in [*corpus(), parse_atlas(ODD_NAMES)]:
        found = cli_disagreements(atlas, path)
        if found:
            failures[str(atlas)] = found
    assert not failures, list(failures.items())[:3]


def leafspace_corpus(fixtures, classes):
    yield from fixtures.values()
    yield from classes
    for seed in range(200):
        glue = (0.3, 0.6, 0.9, 1.0)[seed % 4]
        yield random_atlas(1 + seed % 12, 1 + seed % 3, 70_000 + seed, glue)
    for n in range(3, 9):
        yield necklace(n, "+" * n)
        yield necklace(n, "-" * n)


def test_plain_leafspace_matches_the_model_route(fixtures, exhaustive_all, tmp_path):
    path = tmp_path / "input.atlas"
    failures, count, disconnected = [], 0, 0
    for atlas in leafspace_corpus(fixtures, exhaustive_all):
        count += 1
        disconnected += not is_connected(atlas)
        path.write_text(serialize_atlas(atlas), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["leafspace", str(path)])
        if (code, out.getvalue()) != (0, leafspace_text(atlas, build_leaf_space)):
            failures.append((atlas, "stdout"))
        model = build_leaf_space(atlas)
        points, _, closures = leaf_point_table(atlas)
        for point, closure in zip(points, closures):
            if closure != sorted(set(closure)) or {points[q] for q in closure} != hcl_point(
                model, point
            ):
                failures.append((atlas, point.label()))
    assert count == 7 + 1043 + 200 + 12
    assert disconnected >= 60
    assert not failures, failures[:3]


def test_component_atlases_match_the_filter():
    disconnected = 0
    for seed in range(300):
        glue = (0.2, 0.5, 0.8)[seed % 3]
        atlas = random_atlas(1 + seed % 40, 1 + seed % 3, 40_000 + seed, glue)
        disconnected += not is_connected(atlas)
        expected = component_atlases_filtered(atlas)
        got = component_atlases(atlas)
        assert [(a.strips, a.gluings) for a in got] == [(a.strips, a.gluings) for a in expected]
    assert disconnected >= 200
