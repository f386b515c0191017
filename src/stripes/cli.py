"""Command line frontend.

One subcommand per invocation; output is line oriented, one fact per
line, and byte-stable for fixed inputs and seeds.  Exit codes: 0 success,
1 invalid atlas (one ``stripes: line N: ...`` line from the parser, which
rejects every violation ``atlas.validate`` reports) or failed selfcheck, 2
usage error, 3 precondition error (for example a disconnected atlas passed
to ``kernel``), 4 internal error (a guard on a fact the package proves,
such as an exceptional component without a leaf reversal, did not hold;
one ``stripes: internal error: ...`` line).  A reader that closes stdout
early (``stripes aut FILE | head -n 1``) ends the command quietly, exit 0,
or 1 for a failed selfcheck, whose verdict is known before it prints.

``aut``, ``iso`` and ``report`` find witnesses by rooted traversal: one
root strip's image, side flip and reversal bit force the rest.  Of the 4n
root frames of a connected atlas of n strips, only those whose root strip
reads like the reference root (its sides' glued/free flags in frame
order) are walked, each up to its first row (one per strip) that differs
from the reference; ``canonical_form`` still traverses all 4n.
Disconnected atlases pair their components with an explicit stack, so any
number of components fits.  ``kernel`` reads the single all-leaf reversal
of the reduced atlas off its sides, O(size), and builds no leaf-space model.

The structural commands build only what they print, from an atlas that
``parse_atlas`` accepts by whole-text checks.  ``classify`` reads the leaf
points off the atlas (``leaf_points``) and builds no leaf-space model.
Plain ``dual`` prints its counts from the atlas: the dual graph has one
vertex per strip and one edge per gluing, so only ``dual --dot`` builds
it.  Plain ``leafspace`` formats one position pass (``leaf_point_table``),
each label rendered once; only ``--dot`` and ``--svg`` build the model.

The argument parser is built once per process, so repeated in-process
``main`` calls (tests, library users) do not rebuild it.

A command loads only the modules it uses.  This module imports ``atlas``
alone; every other name below is bound on its first use by ``__getattr__``
(PEP 562), which imports the home module, and then kept as a module global,
as an import would keep it.  ``_run`` reads those names through the module
(``_cli.name``), so a value set on ``stripes.cli`` (a test's monkeypatch, a
tracer's wrapper) is the one called.  ``validate`` and plain ``dual`` load
nothing more; ``classify`` and plain ``leafspace`` add ``leafspace``;
``reduce`` adds ``reduction``; ``aut``, ``kernel``, ``report`` and ``iso``
(to print a witness) add ``symmetry``, which loads ``leafspace`` and
``reduction``; ``selfcheck`` adds ``selfcheck``, which loads those three;
``random`` adds ``corpus``.  Only ``--dot`` and ``--svg`` add ``render``
(and ``leafspace`` for the model, ``dualgraph`` for ``dual --dot``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from .atlas import (
    AtlasError,
    DisconnectedAtlasError,
    StripedAtlas,
    isomorphic,
    parse_atlas,
    serialize_atlas,
)

# Name -> home module, for the names bound on first use.
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
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__package__}.{module}"), name)
    return value


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


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write {out}: {exc.strerror or exc}") from exc


def _run(args: argparse.Namespace) -> int:
    if args.command == "validate":
        _load(args.file)
        print("OK")
        return EXIT_OK

    if args.command == "random":
        try:
            atlas = _cli.random_atlas(args.strips, args.max_ints, args.seed, args.glue_prob)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        _emit(serialize_atlas(atlas), args.out)
        return EXIT_OK

    if args.command == "iso":
        witness = isomorphic(_load(args.file), _load(args.other))
        if witness is None:
            print("NOT-ISOMORPHIC")
        else:
            print("ISOMORPHIC " + _cli.AtlasAutomorphism(*witness).format())
        return EXIT_OK

    atlas = _load(args.file)

    if args.command == "classify":
        # One classify_leaf call per point; each class's text is read once.
        classify, text = _cli.classify_leaf, {kind: kind.value for kind in _cli.LeafClass}
        lines = [
            f"{point.kind} {' '.join(point.intervals)} {text[classify(atlas, point)]}\n"
            for point in _cli.leaf_points(atlas)
        ]
        sys.stdout.write("".join(lines))
        return EXIT_OK

    if args.command == "leafspace":
        if args.svg or args.dot:
            model = _cli.build_leaf_space(atlas)
            if args.svg:
                _emit(_cli.leafspace_svg(model), args.svg)
            if args.dot:
                sys.stdout.write(_cli.leafspace_dot(model))
                return EXIT_OK
        # Arcs are the strips in atlas order; every label is rendered once.
        points, slots, closures = _cli.leaf_point_table(atlas)
        labels = [point.label() for point in points]
        lines = [f"arc {s.id} side0={len(s.side0)} side1={len(s.side1)}\n" for s in atlas.strips]
        for label, point, where in zip(labels, points, slots):
            attach = ",".join([f"{strip}.{side}[{index}]" for strip, side, index in where])
            lines.append(f"point {label} kind={point.kind} attach={attach}\n")
        for label, closure in zip(labels, closures):
            lines.append(f"hcl {label} = {','.join([labels[q] for q in closure])}\n")
        sys.stdout.write("".join(lines))
        return EXIT_OK

    if args.command == "reduce":
        proper: list[StripedAtlas] = []
        for outcome in _cli.reduce_atlas(atlas):
            if outcome.kind is _cli.SurfaceKind.OPEN_CYLINDER:
                print("CYLINDER")
            elif outcome.kind is _cli.SurfaceKind.OPEN_MOEBIUS_BAND:
                print("MOEBIUS")
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
        if text or args.out:
            _emit(text, args.out)
        return EXIT_OK

    if args.command == "dual":
        if args.dot:
            sys.stdout.write(_cli.export_dot(_cli.build_dual_graph(atlas)))
            return EXIT_OK
        # One vertex per strip and one edge per gluing, by construction.
        vertices, edges = len(atlas.strips), len(atlas.gluings)
        sys.stdout.write(f"vertices {vertices}\nedges {edges}\neuler {vertices - edges}\n")
        return EXIT_OK

    if args.command == "aut":
        for aut in _cli.enumerate_automorphisms(atlas):
            print(aut.format())
        return EXIT_OK

    if args.command == "kernel":
        result = _cli.leaf_action_kernel(atlas)
        if result.is_trivial:
            print("TRIVIAL")
        else:
            print("Z2 witness=(id;m=0;r=1)")
        return EXIT_OK

    if args.command == "report":
        result = _cli.homeotopy_report(atlas)
        print(f"autOrder {result.aut_order}")
        print(f"kernel {result.kernel.label()}")
        print(f"imageOrder {result.image_order}")
        print(f"leafModelAutOrder {result.leaf_model_aut_order}")
        return EXIT_OK

    if args.command == "selfcheck":
        report = _cli.selfcheck(atlas)
        # The verdict is the exit code, also when the reader stops early.
        with contextlib.suppress(BrokenPipeError):
            for line in report.lines():
                print(line)
            print("SELFCHECK OK" if report.ok else "SELFCHECK FAILED")
        return EXIT_OK if report.ok else EXIT_INVALID

    raise SystemExit2(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    code = EXIT_OK
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: with stdout on devnull, the flush at exit cannot
        # fail.  A code already computed (a failed selfcheck) stands.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
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


if __name__ == "__main__":
    sys.exit(main())
