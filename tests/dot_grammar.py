"""A checker for DOT text, after the published grammar
(https://graphviz.org/doc/info/lang.html), for the part of it that
``stripes`` writes: ``graph|digraph ID { stmt_list }`` whose statements
are nodes ``ID [a_list]`` and single edges ``ID -- ID [a_list]`` (``->``
in a digraph), each with an optional ``;``.  Anything else is rejected.

Tokens are quoted strings, the edge operators ``--`` and ``->``, the
marks ``[ ] { } ; , =`` and IDs (a name or a numeral).  Inside a quoted
string ``\\"`` and ``\\\\`` are pairs, as Graphviz's lexer reads them, so
a string ends at the first ``"`` no backslash pairs with.  ``unquote``
turns the pairs back into ``"`` and ``\\``, which gives back the text
``stripes.render.dot_quote`` quoted.

Run as a script, it checks each DOT file named on the command line and
that every edge end is a declared node:
``python tests/dot_grammar.py FILE...``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

TOKEN = re.compile(
    r'(?P<space>[ \t\r\n]+)'
    r'|(?P<quoted>"(?:\\.|[^"\\])*")'
    r"|(?P<mark>--|->|[\[\]{};,=])"
    r"|(?P<name>[A-Za-z_\x80-\U0010ffff][A-Za-z_0-9\x80-\U0010ffff]*)"
    r"|(?P<numeral>-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?))",
    re.DOTALL,
)
KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


class DotError(ValueError):
    """The text is not DOT, or uses a part of DOT this checker leaves out."""


@dataclass
class DotGraph:
    kind: str  # "graph" or "digraph"
    name: str
    nodes: dict[str, dict[str, str]] = field(default_factory=dict)
    edges: list[tuple[str, str, dict[str, str]]] = field(default_factory=list)


def unquote(token: str) -> str:
    """The text of a quoted string, its pairs read as ``"`` and ``\\``."""
    return re.sub(r'\\(["\\])', r"\1", token[1:-1])


def tokens(text: str) -> list[tuple[str, str]]:
    """(kind, text) per token; kind is "quoted", "mark", "name" or "numeral"."""
    found, at = [], 0
    while at < len(text):
        match = TOKEN.match(text, at)
        if match is None:
            raise DotError(f"no DOT token at offset {at}: {text[at:at + 20]!r}")
        if match.lastgroup != "space":
            found.append((match.lastgroup, match.group()))
        at = match.end()
    return found


def parse_dot(text: str) -> DotGraph:
    """The graph ``text`` describes, or ``DotError``."""
    items = tokens(text)
    at = 0

    def peek() -> tuple[str, str]:
        return items[at] if at < len(items) else ("end", "")

    def take(expected: str | None = None) -> tuple[str, str]:
        nonlocal at
        kind, value = peek()
        if kind == "end" or (expected is not None and value.lower() != expected):
            raise DotError(f"expected {expected or 'a token'}, found {value or 'the end'!r}")
        at += 1
        return kind, value

    def take_id() -> str:
        kind, value = take()
        if kind == "quoted":
            return unquote(value)
        if kind == "numeral" or (kind == "name" and value.lower() not in KEYWORDS):
            return value
        raise DotError(f"expected an ID, found {value!r}")

    def attr_list() -> dict[str, str]:
        attrs: dict[str, str] = {}
        if peek() == ("mark", "["):
            take("[")
            while peek() != ("mark", "]"):
                key = take_id()
                take("=")
                attrs[key] = take_id()
                if peek() in (("mark", ";"), ("mark", ",")):
                    take()
            take("]")
        return attrs

    kind = take()[1].lower()
    if kind not in ("graph", "digraph"):
        raise DotError(f"expected graph or digraph, found {kind!r}")
    graph = DotGraph(kind, take_id())
    op = "->" if kind == "digraph" else "--"
    take("{")
    while peek() != ("mark", "}"):
        end = take_id()
        if peek() in (("mark", "--"), ("mark", "->")):
            if take()[1] != op:
                raise DotError(f"a {kind} takes {op} edges")
            graph.edges.append((end, take_id(), attr_list()))
        else:
            graph.nodes.setdefault(end, {}).update(attr_list())
        if peek() == ("mark", ";"):
            take()
    take("}")
    if at != len(items):
        raise DotError(f"text after the graph: {peek()[1]!r}")
    return graph


def undeclared_ends(graph: DotGraph) -> set[str]:
    """Edge ends that no node statement declares."""
    return {end for a, b, _ in graph.edges for end in (a, b)} - set(graph.nodes)


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as handle:
            try:
                undeclared = undeclared_ends(parse_dot(handle.read()))
            except DotError as exc:
                sys.exit(f"{path}: {exc}")
        if undeclared:
            sys.exit(f"{path}: edge ends not declared as nodes: {sorted(undeclared)!r}")
    print(len(sys.argv) - 1, "DOT files parse")
