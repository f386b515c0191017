"""Diagram emitters for leaf-space models: DOT and a small static SVG."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .leafspace import LeafSpaceModel

# What XML 1.0 forbids in character data and that an identifier may hold:
# control characters other than tab, newline and carriage return, surrogates,
# U+FFFE and U+FFFF.  Escaping them (&#1;) would not help: the references
# are forbidden as well.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def dot_quote(text: str) -> str:
    """A DOT quoted string holding ``text`` verbatim."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def leafspace_dot(model: LeafSpaceModel) -> str:
    """DOT digraph: arcs as oriented edges between their end nodes, leaf
    points as nodes, attachment order as edge labels."""
    lines = ["digraph leafspace {"]
    for arc in sorted(model.arcs):
        lines.append(f"  {dot_quote(arc + '.0')} [shape=point];")
        lines.append(f"  {dot_quote(arc + '.1')} [shape=point];")
    for point in model.points:
        lines.append(f"  {dot_quote(point.label())} [shape=circle];")
    for arc in sorted(model.arcs):
        tail, head, label = dot_quote(arc + ".0"), dot_quote(arc + ".1"), dot_quote(arc)
        lines.append(f"  {tail} -> {head} [label={label}];")
    for point in model.points:
        for attachment in model.attachments[point]:
            end, target = dot_quote(attachment.end.label()), dot_quote(point.label())
            lines.append(f'  {end} -> {target} [label="{attachment.index}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def leafspace_svg(model: LeafSpaceModel) -> str:
    """Arcs as horizontal segments, attached points as stacked dots at the
    ends.  Presentational only; no layout guarantees."""
    # Imported here: saxutils pulls in urllib, which every other command
    # would pay for at start-up, and ``dual --dot`` (dot_quote only) needs
    # no leafspace.
    from xml.sax.saxutils import escape as escape_markup

    from .leafspace import ArcEnd

    def escape(text: str) -> str:
        # A character XML cannot carry is shown as its Python escape, \x01.
        return escape_markup(_NOT_XML.sub(lambda m: ascii(m[0])[1:-1], text))

    row_height = 70
    left, right = 120, 680
    width = 800
    height = row_height * len(model.arcs) + 40

    rows = {arc: 40 + row_height * i for i, arc in enumerate(sorted(model.arcs))}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for arc, y in rows.items():
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{right}" y2="{y}" stroke="black"/>'
        )
        parts.append(f'<text x="{(left + right) // 2}" y="{y - 6}">{escape(arc)}</text>')
        for side, x in ((0, left), (1, right)):
            attached = model.end_points[ArcEnd(arc, side)]
            for slot, point in enumerate(attached):
                cy = y + 14 * (slot + 1)
                parts.append(f'<circle cx="{x}" cy="{cy}" r="4" fill="crimson"/>')
                anchor = "end" if side == 0 else "start"
                tx = x - 8 if side == 0 else x + 8
                parts.append(
                    f'<text x="{tx}" y="{cy + 4}" font-size="10" '
                    f'text-anchor="{anchor}">{escape(point.label())}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
