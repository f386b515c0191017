"""Command line frontend.

One subcommand per invocation; output is line oriented, one fact per
line, and byte-stable for fixed inputs and seeds.

Commands compute, ``main`` writes.  ``_run`` returns the exit code and the
stdout text, and writes only the files a command is asked for (``-o OUT``,
``--svg PATH``).  ``main`` is the one writer of stdout.  It writes a
command's text as one string, so a command that fails leaves stdout
empty.

Exit codes: 0 success, 1 invalid atlas (one ``stripes: line N: ...`` line
from the parser) or failed selfcheck, 2 usage error (bad arguments, a file
that cannot be read or written, a stdout that cannot be written: one
``stripes: cannot write stdout: No space left on device`` line, or a
stdout whose encoding cannot carry the output: one ``stripes: cannot
write U+03A9 to stdout (encoding ascii)`` line), 3 precondition error
(for example a disconnected atlas passed to ``kernel``), 4 internal error
(a guard on a fact the package proves did not hold; one ``stripes:
internal error: ...`` line).  A reader that closes stdout early
(``stripes aut FILE | head -n 1``) ends the command quietly with the exit
code it already had: 0, or 1 for a failed selfcheck.

The argument parser is built once per process, so repeated in-process
``main`` calls (tests, library users) do not rebuild it.

A command loads only the modules it uses.  This module imports ``atlas``
alone; every other name below is read from its home module by
``__getattr__`` (PEP 562), which imports that module on first use and
keeps no copy here.  ``_run`` reads those names through the module
(``_cli.name``), so it calls the home module's current value, or a value
set on ``stripes.cli`` itself (a test's monkeypatch) while that is set.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import import_module
from pathlib import Path

from .atlas import (
    AtlasError,
    DisconnectedAtlasError,
    StripedAtlas,
    isomorphic,
    parse_atlas,
    serialize_atlas,
)

# Name -> home module, for the names read on use.
_LAZY = {
    "AtlasAutomorphism": "symmetry",
    "enumerate_automorphisms": "symmetry",
    "homeotopy_report": "symmetry",
    "leaf_action_kernel": "symmetry",
    "LeafClass": "leafspace",
    "build_leaf_space": "leafspace",
    "classify_leaf": "leafspace",
    "leaf_point_table": "leafspace",
    "leaf_points": "leafspace",
    "SurfaceKind": "reduction",
    "reduce_atlas": "reduction",
    "build_dual_graph": "dualgraph",
    "export_dot": "dualgraph",
    "leafspace_dot": "render",
    "leafspace_svg": "render",
    "random_atlas": "corpus",
    "selfcheck": "selfcheck",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{module}"), name)


_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load(path: str) -> StripedAtlas:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"cannot read {path}: not UTF-8 text") from exc
    return parse_atlas(text)


class SystemExit2(Exception):
    """Usage failure carrying its message."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripes",
        description="combinatorial atlases of strip-glued surfaces and their leaf spaces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def with_file(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("file", help="atlas text file")
        return sub

    with_file("validate", "check atlas invariants")
    with_file("classify", "classify every boundary leaf")

    leafspace = with_file("leafspace", "describe the leaf-space model")
    leafspace.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    leafspace.add_argument("--svg", metavar="PATH", help="write an SVG rendering")

    reduce_cmd = with_file("reduce", "merge strips across regular seams")
    reduce_cmd.add_argument("-o", metavar="OUT", dest="out", help="output file")

    dual = with_file("dual", "dual graph of the atlas")
    dual.add_argument("--dot", action="store_true", help="emit DOT text")

    with_file("aut", "enumerate atlas automorphisms")
    with_file("kernel", "kernel of the induced leaf-space action")
    with_file("report", "group orders around the leaf-space action")

    iso = commands.add_parser("iso", help="search for an isomorphism")
    iso.add_argument("file", help="first atlas file")
    iso.add_argument("other", help="second atlas file")

    rand = commands.add_parser("random", help="emit a seeded random atlas")
    rand.add_argument("--strips", type=int, required=True, metavar="N")
    rand.add_argument("--max-ints", type=int, required=True, metavar="M")
    rand.add_argument("--seed", type=int, required=True, metavar="S")
    rand.add_argument("--glue-prob", type=float, default=0.75, metavar="P")
    rand.add_argument("-o", metavar="OUT", dest="out", help="output file")

    with_file("selfcheck", "run all invariant cross-checks")

    return parser


def _write(text: str, out: str | None) -> str:
    """Write ``text`` to the file ``out`` and return what stdout gets: ""
    then, or ``text`` itself when there is no ``out``."""
    if not out:
        return text
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write {out}: {exc.strerror or exc}") from exc
    return ""


def _run(args: argparse.Namespace) -> tuple[int, str]:
    """One command's exit code and stdout text."""
    if args.command == "validate":
        _load(args.file)
        return EXIT_OK, "OK\n"

    if args.command == "random":
        try:
            atlas = _cli.random_atlas(args.strips, args.max_ints, args.seed, args.glue_prob)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        return EXIT_OK, _write(serialize_atlas(atlas), args.out)

    if args.command == "iso":
        witness = isomorphic(_load(args.file), _load(args.other))
        if witness is None:
            return EXIT_OK, "NOT-ISOMORPHIC\n"
        return EXIT_OK, f"ISOMORPHIC {_cli.AtlasAutomorphism(*witness).format()}\n"

    atlas = _load(args.file)

    if args.command == "classify":
        # One classify_leaf call per point; each class's text is read once.
        classify, text = _cli.classify_leaf, {kind: kind.value for kind in _cli.LeafClass}
        lines = [
            f"{point.kind} {' '.join(point.intervals)} {text[classify(atlas, point)]}\n"
            for point in _cli.leaf_points(atlas)
        ]
        return EXIT_OK, "".join(lines)

    if args.command == "leafspace":
        if args.svg or args.dot:
            model = _cli.build_leaf_space(atlas)
            if args.svg:
                _write(_cli.leafspace_svg(model), args.svg)
            if args.dot:
                return EXIT_OK, _cli.leafspace_dot(model)
        # Arcs are the strips in atlas order; every label is rendered once.
        points, slots, closures = _cli.leaf_point_table(atlas)
        labels = [point.label() for point in points]
        lines = [f"arc {s.id} side0={len(s.side0)} side1={len(s.side1)}\n" for s in atlas.strips]
        for label, point, where in zip(labels, points, slots):
            attach = ",".join([f"{strip}.{side}[{index}]" for strip, side, index in where])
            lines.append(f"point {label} kind={point.kind} attach={attach}\n")
        for label, closure in zip(labels, closures):
            lines.append(f"hcl {label} = {','.join([labels[q] for q in closure])}\n")
        return EXIT_OK, "".join(lines)

    if args.command == "reduce":
        exceptional: list[str] = []
        proper: list[StripedAtlas] = []
        for outcome in _cli.reduce_atlas(atlas):
            if outcome.kind is _cli.SurfaceKind.OPEN_CYLINDER:
                exceptional.append("CYLINDER\n")
            elif outcome.kind is _cli.SurfaceKind.OPEN_MOEBIUS_BAND:
                exceptional.append("MOEBIUS\n")
            else:
                proper.append(outcome.atlas)
        # OUT always gets the proper part, so no earlier file survives
        # there; with no proper part, it and stdout get no text at all.
        text = ""
        if proper:
            text = serialize_atlas(
                StripedAtlas(
                    tuple(s for a in proper for s in a.strips),
                    tuple(g for a in proper for g in a.gluings),
                )
            )
        return EXIT_OK, "".join(exceptional) + _write(text, args.out)

    if args.command == "dual":
        if args.dot:
            return EXIT_OK, _cli.export_dot(_cli.build_dual_graph(atlas))
        # One vertex per strip and one edge per gluing, by construction.
        vertices, edges = len(atlas.strips), len(atlas.gluings)
        return EXIT_OK, f"vertices {vertices}\nedges {edges}\neuler {vertices - edges}\n"

    if args.command == "aut":
        lines = [f"{aut.format()}\n" for aut in _cli.enumerate_automorphisms(atlas)]
        return EXIT_OK, "".join(lines)

    if args.command == "kernel":
        trivial = _cli.leaf_action_kernel(atlas).is_trivial
        return EXIT_OK, "TRIVIAL\n" if trivial else "Z2 witness=(id;m=0;r=1)\n"

    if args.command == "report":
        result = _cli.homeotopy_report(atlas)
        return EXIT_OK, (
            f"autOrder {result.aut_order}\n"
            f"kernel {result.kernel.label()}\n"
            f"imageOrder {result.image_order}\n"
            f"leafModelAutOrder {result.leaf_model_aut_order}\n"
        )

    if args.command == "selfcheck":
        report = _cli.selfcheck(atlas)
        verdict = "SELFCHECK OK" if report.ok else "SELFCHECK FAILED"
        text = "".join(f"{line}\n" for line in [*report.lines(), verdict])
        return (EXIT_OK if report.ok else EXIT_INVALID), text

    raise SystemExit2(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code, text = _run(args)
    except SystemExit2 as exc:
        print(f"stripes: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AtlasError as exc:
        print(f"stripes: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DisconnectedAtlasError as exc:
        print(f"stripes: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"stripes: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # With stdout on devnull the flush at exit cannot fail again.  A
        # closed pipe means the reader is gone, and the code already
        # computed stands; any other failed write (a full disk) is one line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"stripes: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    except UnicodeEncodeError as exc:
        char = f"U+{ord(exc.object[exc.start]):04X}"
        print(f"stripes: cannot write {char} to stdout (encoding {exc.encoding})", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
