"""Dual graph of an atlas: strips as vertices, seams as edges.

Each edge end is decorated with the strip, side and position of the glued
interval, and each vertex with its two side sizes, so the graph determines
the atlas up to isomorphism (free intervals reappear as undecorated side
positions).  Loops and parallel edges are allowed.
"""

from __future__ import annotations

from typing import NamedTuple

from .atlas import Gluing, Parity, Strip, StripedAtlas
from .render import dot_quote


class EdgeEnd(NamedTuple):
    strip: str
    side: int
    index: int

    def label(self) -> str:
        return f"{self.strip}.{self.side}[{self.index}]"


class _DualEdgeFields(NamedTuple):
    ends: tuple[EdgeEnd, EdgeEnd]
    parity: Parity


class DualEdge(_DualEdgeFields):
    """One seam; ends sorted so the edge is an unordered pair."""

    __slots__ = ()

    def __new__(cls, ends: tuple[EdgeEnd, EdgeEnd], parity: Parity):
        return tuple.__new__(cls, (tuple(sorted(ends)), parity))

    def label(self) -> str:
        return f"{self.ends[0].label()}--{self.ends[1].label()} {self.parity.symbol}"


class DualGraph(NamedTuple):
    """Vertices carry (strip id, |side0|, |side1|); edges are decorated seams."""

    vertices: tuple[tuple[str, int, int], ...]
    edges: tuple[DualEdge, ...]


def build_dual_graph(atlas: StripedAtlas) -> DualGraph:
    vertices = tuple(
        sorted((s.id, len(s.side0), len(s.side1)) for s in atlas.strips)
    )
    new, locations, edges = tuple.__new__, atlas.locations, []
    for g in atlas.gluings:
        a, b = new(EdgeEnd, locations[g.a]), new(EdgeEnd, locations[g.b])
        edges.append(new(DualEdge, ((a, b) if a <= b else (b, a), g.parity)))
    return DualGraph(vertices, tuple(sorted(edges)))


def euler_invariant(graph: DualGraph) -> int:
    """Vertex count minus edge count; reduction merges preserve it."""
    return len(graph.vertices) - len(graph.edges)


def export_dot(graph: DualGraph) -> str:
    """Deterministic DOT multigraph with parity and end decorations."""
    lines = ["graph dual {"]
    for name, side0, side1 in graph.vertices:
        lines.append(f"  {dot_quote(name)} [side0={side0}, side1={side1}];")
    for edge in graph.edges:
        a, b = edge.ends
        ends, label = f"{dot_quote(a.strip)} -- {dot_quote(b.strip)}", dot_quote(edge.label())
        lines.append(f"  {ends} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def atlas_from_dual_graph(graph: DualGraph) -> StripedAtlas:
    """Rebuild an atlas from its dual graph, with positional interval names.

    The result is isomorphic to any atlas the graph was built from.
    """
    strips = tuple(
        Strip(
            name,
            tuple(f"{name}.0.{i}" for i in range(side0)),
            tuple(f"{name}.1.{i}" for i in range(side1)),
        )
        for name, side0, side1 in graph.vertices
    )
    gluings = tuple(
        Gluing(
            f"{edge.ends[0].strip}.{edge.ends[0].side}.{edge.ends[0].index}",
            f"{edge.ends[1].strip}.{edge.ends[1].side}.{edge.ends[1].index}",
            edge.parity,
        )
        for edge in graph.edges
    )
    return StripedAtlas(strips, gluings)
