from __future__ import annotations

import pytest

from stripes.atlas import isomorphic, witness_interval_map
from stripes.corpus import random_atlas
from stripes.dualgraph import (
    EdgeEnd,
    atlas_from_dual_graph,
    build_dual_graph,
    euler_invariant,
    export_dot,
)
from stripes.reduction import SurfaceKind, reduce_atlas
from stripes.symmetry import enumerate_automorphisms


def test_punctured_two_parallel_edges(fixtures):
    graph = build_dual_graph(fixtures["PUNCTURED"])
    assert graph.vertices == (("S", 0, 2), ("T", 2, 0))
    assert len(graph.edges) == 2
    assert all(
        {end.strip for end in edge.ends} == {"S", "T"} for edge in graph.edges
    )


def test_cyl_is_a_loop(fixtures):
    graph = build_dual_graph(fixtures["CYL"])
    assert graph.vertices == (("S", 1, 1),)
    (edge,) = graph.edges
    assert edge.ends == (EdgeEnd("S", 0, 0), EdgeEnd("S", 1, 0))


def test_plane_single_vertex(fixtures):
    graph = build_dual_graph(fixtures["PLANE"])
    assert graph.vertices == (("S", 0, 0),)
    assert graph.edges == ()


@pytest.mark.parametrize(
    "name, value", [("PLANE", 1), ("CYL", 0), ("LADDER", 1), ("PUNCTURED", 0)]
)
def test_euler_invariant(fixtures, name, value):
    assert euler_invariant(build_dual_graph(fixtures[name])) == value


def test_euler_invariant_survives_reduction(fixtures):
    (outcome,) = reduce_atlas(fixtures["LADDER"])
    assert outcome.kind is SurfaceKind.PROPER
    assert euler_invariant(build_dual_graph(outcome.atlas)) == 1


def test_export_dot_plane(fixtures):
    assert export_dot(build_dual_graph(fixtures["PLANE"])) == (
        'graph dual {\n  "S" [side0=0, side1=0];\n}\n'
    )


def test_export_dot_cyl_loop_with_parity(fixtures):
    text = export_dot(build_dual_graph(fixtures["CYL"]))
    assert '"S" -- "S"' in text
    assert "S.0[0]--S.1[0] +" in text


def test_export_dot_punctured_deterministic(fixtures):
    text = export_dot(build_dual_graph(fixtures["PUNCTURED"]))
    assert text == export_dot(build_dual_graph(fixtures["PUNCTURED"]))
    assert text.count(" -- ") == 2
    assert '"S" [side0=0, side1=2];' in text


def test_round_trip_up_to_relabeling(fixtures):
    for atlas in fixtures.values():
        rebuilt = atlas_from_dual_graph(build_dual_graph(atlas))
        assert isomorphic(atlas, rebuilt) is not None


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random(seed):
    atlas = random_atlas(1 + seed % 3, 2, 5000 + seed)
    rebuilt = atlas_from_dual_graph(build_dual_graph(atlas))
    assert isomorphic(atlas, rebuilt) is not None


def test_automorphisms_act_on_the_graph(fixtures):
    for atlas in fixtures.values():
        graph = build_dual_graph(atlas)
        edge_set = set(graph.edges)
        vertex_set = set(graph.vertices)
        for aut in enumerate_automorphisms(atlas):
            mapping = witness_interval_map(
                atlas, atlas, aut.strip_map, aut.side_flip, aut.reversal
            )
            for name, side0, side1 in graph.vertices:
                image = atlas.strip(aut.strip_map[name])
                assert (image.id, len(image.side0), len(image.side1)) in vertex_set
                sizes = (len(image.side0), len(image.side1))
                if aut.side_flip[name]:
                    sizes = sizes[::-1]
                assert sizes == (side0, side1)
            for g in atlas.gluings:
                image_pair = frozenset((mapping[g.a], mapping[g.b]))
                bits = (
                    aut.reversal[atlas.location(g.a)[0]]
                    ^ aut.reversal[atlas.location(g.b)[0]]
                )
                matching = [
                    e
                    for e in edge_set
                    if {EdgeEnd(*atlas.location(n)) for n in image_pair}
                    == set(e.ends)
                ]
                assert matching and matching[0].parity == g.parity.xor(bits)
