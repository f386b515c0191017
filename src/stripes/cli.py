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
(a guard on a fact the package proves did not hold, such as a fault that
``parse_atlas`` finds but the line walk wording its message does not; one
``stripes: internal error: ...`` line).  A reader that closes stdout early
(``stripes aut FILE | head -n 1``) ends the command quietly with the exit
code it already had: 0, or 1 for a failed selfcheck.

The command line is one table, ``COMMANDS``: each command's positionals,
its options (a flag, or one value of type ``str``, ``int`` or ``float``
with its default) and the options it requires.  The reader ``_read``, the
``-h``/``--help`` text and every usage error come from that table.
Options come before or after the positionals, as ``--name value`` or
``--name=value``; a long option may be any unique prefix, ``-o OUT`` may
be written ``-oOUT``, and the last of a repeated option wins.  A value
may start with ``-`` when it reads as a negative number (``--max-ints
-1``).  A usage error is one ``stripes: ... (usage: ...)`` line.  ``--``
is not read as the end of the options; it is an unknown option.

A command loads only the modules it uses.  This module imports ``atlas``
alone; each branch of ``_run`` imports the names it calls from their home
modules where it runs, so it calls each home module's current binding
and keeps no copy here.  ``isomorphic`` and ``homeotopy_report`` (which
imports ``symmetry``'s on each call) are names of this module, so a test
can substitute either on ``stripes.cli``, and undoing that puts the real
function back.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

from .atlas import (
    AtlasError,
    DisconnectedAtlasError,
    StripedAtlas,
    isomorphic,
    parse_atlas,
    serialize_atlas,
)


def homeotopy_report(atlas: StripedAtlas):
    from .symmetry import homeotopy_report

    return homeotopy_report(atlas)


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


class Option(NamedTuple):
    """A command's option.  A flag (``type`` None) reads True when given and
    False when not; any other option reads one value, converted by
    ``type``, or ``default`` when it is not given."""

    key: str  # the name ``_run`` reads its value under
    type: type | None = None
    metavar: str = ""
    default: object = None
    required: bool = False


class Command(NamedTuple):
    """A command's summary, its positionals (each read under its name in
    lower case) and its options by spelling."""

    summary: str
    positionals: tuple[str, ...]
    options: dict[str, Option]


_FILE = ("FILE",)

# The whole grammar of the command line: the reader, the help text and
# every usage error are read from this table.
COMMANDS = {
    "validate": Command("check atlas invariants", _FILE, {}),
    "classify": Command("classify every boundary leaf", _FILE, {}),
    "leafspace": Command(
        "describe the leaf-space model; --dot prints it as a DOT digraph, --svg writes an SVG rendering",
        _FILE,
        {"--dot": Option("dot"), "--svg": Option("svg", str, "PATH")},
    ),
    "reduce": Command(
        "merge strips across regular seams; -o writes the reduced atlas to OUT",
        _FILE,
        {"-o": Option("out", str, "OUT")},
    ),
    "dual": Command("dual graph of the atlas; --dot prints it as DOT text", _FILE, {"--dot": Option("dot")}),
    "aut": Command("enumerate atlas automorphisms", _FILE, {}),
    "kernel": Command("kernel of the induced leaf-space action", _FILE, {}),
    "report": Command("group orders around the leaf-space action", _FILE, {}),
    "iso": Command("search for an isomorphism from FILE to OTHER", ("FILE", "OTHER"), {}),
    "random": Command(
        "emit a seeded random atlas of N strips, at most M intervals per side, each offered for"
        " gluing with probability P; -o writes it to OUT",
        (),
        {
            "--strips": Option("strips", int, "N", required=True),
            "--max-ints": Option("max_ints", int, "M", required=True),
            "--seed": Option("seed", int, "S", required=True),
            "--glue-prob": Option("glue_prob", float, "P", 0.75),
            "-o": Option("out", str, "OUT"),
        },
    ),
    "selfcheck": Command("run all invariant cross-checks", _FILE, {}),
}

_HELP = Option("help")
_HELP_SPELLINGS = {"-h": _HELP, "--help": _HELP}
# Per command: every spelling it takes, help included, and the values it
# reads when nothing is given.
_SPELLINGS = {name: {**c.options, **_HELP_SPELLINGS} for name, c in COMMANDS.items()}
_DEFAULTS = {
    name: {
        "command": name,
        **dict.fromkeys(map(str.lower, c.positionals)),
        **{o.key: o.default if o.type else False for o in c.options.values()},
    }
    for name, c in COMMANDS.items()
}
# A token that reads as a negative number is a value, not an option.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Help(Exception):
    """``-h`` or ``--help``: the help text is the command's output."""


def _usage(name: str) -> str:
    command = COMMANDS[name]
    words = ["stripes", name, *command.positionals]
    for spelling, option in command.options.items():
        word = f"{spelling} {option.metavar}" if option.type else spelling
        words.append(word if option.required else f"[{word}]")
    return " ".join(words)


def _help(name: str | None) -> str:
    if name:
        return f"usage: {_usage(name)}\n\n{COMMANDS[name].summary}\n"
    return "".join(
        [
            "usage: stripes COMMAND ...\n\n"
            "combinatorial atlases of strip-glued surfaces and their leaf spaces\n\ncommands:\n",
            *[f"  {_usage(n)}\n      {c.summary}\n" for n, c in COMMANDS.items()],
            "\n`stripes COMMAND --help` shows one command.\n",
        ]
    )


def _option(token: str, spellings: dict[str, Option]) -> tuple[str, str | None] | None:
    """The spelling an option token names and the value attached to it (by
    ``=``, or after ``-o``), or None for a value token.  A long option may
    be a unique prefix; an unknown option keeps its token as spelling."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, attached = token.partition("=")
    if name in spellings:
        return name, attached if eq else None
    if name[:2] == "--":
        if len(name) > 2:
            found = [spelling for spelling in spellings if spelling.startswith(name)]
            if len(found) > 1:
                raise SystemExit2(f"ambiguous option {name} could match {', '.join(found)}")
            if found:
                return found[0], attached if eq else None
    elif token[:2] in spellings:
        return token[:2], token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return token, None


def _read(argv: list[str]) -> dict[str, object]:
    """The command ``argv`` names and its values by key.  Raises ``_Help``
    for ``-h``/``--help`` and ``SystemExit2`` for a usage error."""
    if not argv or argv[0] not in COMMANDS:
        if argv and _option(argv[0], _HELP_SPELLINGS) in (("-h", None), ("--help", None)):
            raise _Help(_help(None))
        problem = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise SystemExit2(f"{problem}; choose from {', '.join(COMMANDS)} (stripes --help)")
    name = argv[0]
    command, spellings, values = COMMANDS[name], _SPELLINGS[name], dict(_DEFAULTS[name])

    def usage(problem: str) -> SystemExit2:
        return SystemExit2(f"{problem} (usage: {_usage(name)})")

    free: list[str] = []  # positionals
    extra: list[str] = []  # unknown options and surplus positionals
    tokens = iter(argv[1:])
    for token in tokens:
        found = _option(token, spellings)
        if found is None:
            (free if len(free) < len(command.positionals) else extra).append(token)
            continue
        spelling, value = found
        option = spellings.get(spelling)
        if option is None:
            extra.append(token)
        elif option.type is None:
            if value is not None:
                raise usage(f"{spelling} takes no value")
            if option is _HELP:
                raise _Help(_help(name))
            values[option.key] = True
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _option(value, spellings) is not None:
                    raise usage(f"{spelling} needs a value {option.metavar}")
            try:
                values[option.key] = option.type(value)
            except ValueError:
                raise usage(f"{spelling}: invalid {option.type.__name__} value {value!r}") from None
    if len(free) < len(command.positionals):
        raise usage(f"missing {command.positionals[len(free)]}")
    for spelling, option in command.options.items():
        if option.required and values[option.key] is None:
            raise usage(f"missing {spelling} {option.metavar}")
    if extra:
        raise usage(f"unrecognized arguments: {' '.join(extra)}")
    values.update(zip(map(str.lower, command.positionals), free))
    return values


def _write(text: str, out: str | None) -> str:
    """Write ``text`` to the file ``out`` and return what stdout gets: ""
    then, or ``text`` itself when there is no ``out``.  An empty ``out`` is
    a path like any other, so it fails to be written."""
    if out is None:
        return text
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write {out}: {exc.strerror or exc}") from exc
    return ""


def _run(args: dict) -> tuple[int, str]:
    """One command's exit code and stdout text, for the values ``_read``
    returns."""
    command = args["command"]
    if command == "validate":
        _load(args["file"])
        return EXIT_OK, "OK\n"

    if command == "random":
        from .corpus import random_atlas

        try:
            atlas = random_atlas(args["strips"], args["max_ints"], args["seed"], args["glue_prob"])
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        return EXIT_OK, _write(serialize_atlas(atlas), args["out"])

    if command == "iso":
        witness = isomorphic(_load(args["file"]), _load(args["other"]))
        if witness is None:
            return EXIT_OK, "NOT-ISOMORPHIC\n"
        from .symmetry import AtlasAutomorphism

        return EXIT_OK, f"ISOMORPHIC {AtlasAutomorphism(*witness).format()}\n"

    atlas = _load(args["file"])

    if command == "classify":
        from .leafspace import LeafClass, classify_leaf, leaf_points

        # One classify_leaf call per point; each class's text is read once.
        text = {kind: kind.value for kind in LeafClass}
        lines = [
            f"{point.kind} {' '.join(point.intervals)} {text[classify_leaf(atlas, point)]}\n"
            for point in leaf_points(atlas)
        ]
        return EXIT_OK, "".join(lines)

    if command == "leafspace":
        from .leafspace import build_leaf_space, leaf_point_table

        if args["svg"] is not None or args["dot"]:
            from .render import leafspace_dot, leafspace_svg

            model = build_leaf_space(atlas)
            if args["svg"] is not None:
                _write(leafspace_svg(model), args["svg"])
            if args["dot"]:
                return EXIT_OK, leafspace_dot(model)
        # Arcs are the strips in atlas order; every label is rendered once.
        points, slots, closures = leaf_point_table(atlas)
        labels = [point.label() for point in points]
        lines = [f"arc {s.id} side0={len(s.side0)} side1={len(s.side1)}\n" for s in atlas.strips]
        for label, point, where in zip(labels, points, slots):
            attach = ",".join([f"{strip}.{side}[{index}]" for strip, side, index in where])
            lines.append(f"point {label} kind={point.kind} attach={attach}\n")
        for label, closure in zip(labels, closures):
            lines.append(f"hcl {label} = {','.join([labels[q] for q in closure])}\n")
        return EXIT_OK, "".join(lines)

    if command == "reduce":
        from .reduction import SurfaceKind, reduce_atlas

        exceptional: list[str] = []
        proper: list[StripedAtlas] = []
        for outcome in reduce_atlas(atlas):
            if outcome.kind is SurfaceKind.OPEN_CYLINDER:
                exceptional.append("CYLINDER\n")
            elif outcome.kind is SurfaceKind.OPEN_MOEBIUS_BAND:
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
        return EXIT_OK, "".join(exceptional) + _write(text, args["out"])

    if command == "dual":
        if args["dot"]:
            from .dualgraph import build_dual_graph, export_dot

            return EXIT_OK, export_dot(build_dual_graph(atlas))
        # One vertex per strip and one edge per gluing, by construction.
        vertices, edges = len(atlas.strips), len(atlas.gluings)
        return EXIT_OK, f"vertices {vertices}\nedges {edges}\neuler {vertices - edges}\n"

    if command == "aut":
        from .symmetry import enumerate_automorphisms

        lines = [f"{aut.format()}\n" for aut in enumerate_automorphisms(atlas)]
        return EXIT_OK, "".join(lines)

    if command == "kernel":
        from .symmetry import leaf_action_kernel

        trivial = leaf_action_kernel(atlas).is_trivial
        return EXIT_OK, "TRIVIAL\n" if trivial else "Z2 witness=(id;m=0;r=1)\n"

    if command == "report":
        result = homeotopy_report(atlas)
        return EXIT_OK, (
            f"autOrder {result.aut_order}\n"
            f"kernel {result.kernel.label()}\n"
            f"imageOrder {result.image_order}\n"
            f"leafModelAutOrder {result.leaf_model_aut_order}\n"
        )

    if command == "selfcheck":
        from .selfcheck import selfcheck

        report = selfcheck(atlas)
        verdict = "SELFCHECK OK" if report.ok else "SELFCHECK FAILED"
        text = "".join(f"{line}\n" for line in [*report.lines(), verdict])
        return (EXIT_OK if report.ok else EXIT_INVALID), text

    raise SystemExit2(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        code, text = _run(_read(sys.argv[1:] if argv is None else argv))
    except _Help as exc:
        code, text = EXIT_OK, str(exc)
    except SystemExit2 as exc:
        return _fail(str(exc), EXIT_USAGE)
    except AtlasError as exc:
        return _fail(str(exc), EXIT_INVALID)
    except DisconnectedAtlasError as exc:
        return _fail(str(exc), EXIT_PRECONDITION)
    except RuntimeError as exc:
        return _fail(f"internal error: {exc}", EXIT_INTERNAL)
    if sys.stdout is None:  # fd 1 was closed before the start
        if text:
            return _fail(f"cannot write stdout: {os.strerror(errno.EBADF)}", EXIT_USAGE)
        return code
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
            return _fail(f"cannot write stdout: {exc.strerror or exc}", EXIT_USAGE)
    except UnicodeEncodeError as exc:
        char = f"U+{ord(exc.object[exc.start]):04X}"
        return _fail(f"cannot write {char} to stdout (encoding {exc.encoding})", EXIT_USAGE)
    return code


def _fail(message: str, code: int) -> int:
    # One ``stripes:`` line on stderr, dropped when fd 2 was closed before
    # the start (``print`` to a ``None`` file would write to stdout).
    if sys.stderr is not None:
        print(f"stripes: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
