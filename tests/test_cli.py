from __future__ import annotations

import io
import itertools
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stripes
from bruteforce import argparse_values
from dot_grammar import DotError, parse_dot, undeclared_ends
from stripes.atlas import (
    AtlasError,
    Gluing,
    Strip,
    StripedAtlas,
    iter_witnesses,
    parse_atlas,
    serialize_atlas,
)
from stripes.cli import COMMANDS, SystemExit2, _read, main
from stripes.corpus import necklace, random_atlas
from stripes.dualgraph import build_dual_graph
from stripes.fixtures import FIXTURE_NAMES, fixture_text
from stripes.leafspace import leaf_points


@pytest.fixture()
def atlas_file(tmp_path):
    def write(name_or_text: str, filename: str = "input.atlas"):
        text = (
            fixture_text(name_or_text)
            if name_or_text in FIXTURE_NAMES
            else name_or_text
        )
        path = tmp_path / filename
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_punctured(atlas_file, capsys):
    code, out, _ = run(capsys, "kernel", atlas_file("PUNCTURED"))
    assert (code, out) == (0, "TRIVIAL\n")


def test_kernel_plane(atlas_file, capsys):
    code, out, _ = run(capsys, "kernel", atlas_file("PLANE"))
    assert (code, out) == (0, "Z2 witness=(id;m=0;r=1)\n")


def test_kernel_disconnected_exits_3(atlas_file, capsys):
    # Connectivity is checked after reducing: on the reduced atlas when it
    # is proper (a ladder's reduction keeps its disjoint strip), on the
    # input when a cylinder component takes the exceptional fallback.
    cylinder = "strip C\nside0 x\nside1 y\nglue x y +\n"
    punctured = "strip U\nside1 u1 u2\nstrip V\nside0 v1 v2\nglue u1 v1 +\nglue u2 v2 +\n"
    inputs = [
        "strip S\nstrip T\n",
        fixture_text("LADDER") + "strip U\n",
        serialize_atlas(necklace(3)) + cylinder,
        fixture_text("PUNCTURED") + punctured,
    ]
    for text in inputs:
        for command in ("kernel", "report"):
            code, out, err = run(capsys, command, atlas_file(text))
            assert (code, out, err) == (3, "", "stripes: atlas disconnected - apply per component\n")


@pytest.mark.parametrize("command", ["kernel", "report"])
def test_no_strips_exits_3(atlas_file, capsys, command):
    code, out, err = run(capsys, command, atlas_file("# only a comment\n"))
    assert (code, out, err) == (3, "", "stripes: atlas has no strips\n")


def test_reduce_moeb(atlas_file, capsys):
    code, out, _ = run(capsys, "reduce", atlas_file("MOEB"))
    assert (code, out) == (0, "MOEBIUS\n")


def test_reduce_cyl(atlas_file, capsys):
    code, out, _ = run(capsys, "reduce", atlas_file("CYL"))
    assert (code, out) == (0, "CYLINDER\n")


def test_reduce_ladder_writes_atlas(atlas_file, capsys, tmp_path):
    out_path = tmp_path / "reduced.atlas"
    code, out, _ = run(capsys, "reduce", atlas_file("LADDER"), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == "strip S\n"


def test_reduce_all_exceptional_replaces_out(atlas_file, capsys, tmp_path):
    # No proper component: OUT still gets the proper part, no text at all,
    # so a file left there by an earlier run does not survive, and stdout
    # followed by OUT is what plain reduce prints.
    out_path = tmp_path / "reduced.atlas"
    out_path.write_text("strip OLD\n")
    code, out, _ = run(capsys, "reduce", atlas_file("MOEB"), "-o", str(out_path))
    assert (code, out) == (0, "MOEBIUS\n")
    assert out_path.read_text() == ""


def test_reduce_mixed_components(atlas_file, capsys):
    text = "strip S\nside0 a\nside1 b\nstrip T\nside1 x\nglue a b -\n"
    code, out, _ = run(capsys, "reduce", atlas_file(text))
    assert code == 0
    assert out == "MOEBIUS\nstrip T\nside1 x\n"


def test_validate_ok(atlas_file, capsys):
    code, out, _ = run(capsys, "validate", atlas_file("PUNCTURED"))
    assert (code, out) == (0, "OK\n")


def test_validate_parse_error_exits_1(atlas_file, capsys):
    code, _, err = run(capsys, "validate", atlas_file("strip S\nglue a a +\n"))
    assert code == 1
    assert "glued to itself" in err


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_byte_order_mark_is_skipped(tmp_path, capsys, name):
    # A file saved with a UTF-8 byte-order mark reads like the plain file.
    plain, marked = tmp_path / "plain.atlas", tmp_path / "marked.atlas"
    plain.write_bytes(fixture_text(name).encode())
    marked.write_bytes(b"\xef\xbb\xbf" + fixture_text(name).encode())
    for command in ("validate", "kernel", "report"):
        expected = run(capsys, command, str(plain))
        assert expected[0] == 0
        assert run(capsys, command, str(marked)) == expected


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.atlas")
    assert code == 2
    assert "cannot read" in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_aut_cyl(atlas_file, capsys):
    code, out, _ = run(capsys, "aut", atlas_file("CYL"))
    assert code == 0
    assert out == (
        "sigma: S->S m: S=0 r: S=0\n"
        "sigma: S->S m: S=0 r: S=1\n"
        "sigma: S->S m: S=1 r: S=0\n"
        "sigma: S->S m: S=1 r: S=1\n"
    )


def test_aut_punctured(atlas_file, capsys):
    code, out, _ = run(capsys, "aut", atlas_file("PUNCTURED"))
    assert code == 0
    assert out == (
        "sigma: S->S,T->T m: S=0,T=0 r: S=0,T=0\n"
        "sigma: S->S,T->T m: S=0,T=0 r: S=1,T=1\n"
        "sigma: S->T,T->S m: S=1,T=1 r: S=0,T=0\n"
        "sigma: S->T,T->S m: S=1,T=1 r: S=1,T=1\n"
    )


def test_report_punctured(atlas_file, capsys):
    code, out, _ = run(capsys, "report", atlas_file("PUNCTURED"))
    assert code == 0
    assert out == "autOrder 4\nkernel TRIVIAL\nimageOrder 4\nleafModelAutOrder 4\n"


def test_classify_punctured(atlas_file, capsys):
    code, out, _ = run(capsys, "classify", atlas_file("PUNCTURED"))
    assert code == 0
    assert out == "seam s1 t1 Special\nseam s2 t2 Special\n"


def test_classify_mixed(atlas_file, capsys):
    code, out, _ = run(capsys, "classify", atlas_file("strip S\nside0 a b c\nglue a c +\n"))
    assert code == 0
    assert out == "seam a c Special\nfree b Special\n"


def test_leafspace_plain(atlas_file, capsys):
    code, out, _ = run(capsys, "leafspace", atlas_file("PUNCTURED"))
    assert code == 0
    assert out.splitlines() == [
        "arc S side0=0 side1=2",
        "arc T side0=2 side1=0",
        "point {s1,t1} kind=seam attach=S.1[0],T.0[0]",
        "point {s2,t2} kind=seam attach=S.1[1],T.0[1]",
        "hcl {s1,t1} = {s1,t1},{s2,t2}",
        "hcl {s2,t2} = {s1,t1},{s2,t2}",
    ]


def test_leafspace_dot(atlas_file, capsys):
    code, out, _ = run(capsys, "leafspace", atlas_file("CYL"), "--dot")
    assert code == 0
    assert out.startswith("digraph leafspace {")
    assert '"S.0" -> "S.1" [label="S"];' in out
    assert '"S.1" -> "{a,b}" [label="0"];' in out


def test_leafspace_svg(atlas_file, capsys, tmp_path):
    svg_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "leafspace", atlas_file("PUNCTURED"), "--svg", str(svg_path))
    assert code == 0
    body = svg_path.read_text()
    assert body.startswith("<svg")
    assert "{s1,t1}" in body


def test_dual_plain_and_dot(atlas_file, capsys):
    code, out, _ = run(capsys, "dual", atlas_file("PUNCTURED"))
    assert (code, out) == (0, "vertices 2\nedges 2\neuler 0\n")
    code, out, _ = run(capsys, "dual", atlas_file("CYL"), "--dot")
    assert code == 0
    assert '"S" -- "S" [label="S.0[0]--S.1[0] +"];' in out


def test_iso(atlas_file, capsys):
    a = atlas_file("CYL", "a.atlas")
    b = atlas_file("MOEB", "b.atlas")
    code, out, _ = run(capsys, "iso", a, b)
    assert (code, out) == (0, "NOT-ISOMORPHIC\n")
    code, out, _ = run(capsys, "iso", a, a)
    assert code == 0
    assert out.startswith("ISOMORPHIC sigma: S->S")


def test_random_deterministic(capsys):
    code, first, _ = run(capsys, "random", "--strips", "3", "--max-ints", "2", "--seed", "42")
    assert code == 0
    code, second, _ = run(capsys, "random", "--strips", "3", "--max-ints", "2", "--seed", "42")
    assert first == second
    code, third, _ = run(capsys, "random", "--strips", "3", "--max-ints", "2", "--seed", "43")
    assert third != first


def test_random_output_parses(capsys, tmp_path):
    out_path = tmp_path / "random.atlas"
    code = main(["random", "--strips", "4", "--max-ints", "3", "--seed", "7", "-o", str(out_path)])
    assert code == 0
    assert main(["validate", str(out_path)]) == 0


@pytest.mark.parametrize("name", ["PUNCTURED", "CYL", "LADDER"])
def test_selfcheck_fixtures(atlas_file, capsys, name):
    code, out, _ = run(capsys, "selfcheck", atlas_file(name))
    assert code == 0
    assert out.endswith("SELFCHECK OK\n")
    assert all(line.startswith(("PASS", "SELFCHECK")) for line in out.splitlines())


def test_selfcheck_takes_no_samples_option(atlas_file, capsys):
    # selfcheck has no settings: the reader rejects the removed option.
    code, out, err = run(capsys, "selfcheck", atlas_file("PUNCTURED"), "--samples", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --samples 2" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["kernel", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: stripes kernel")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["kernel"],
        ["kernel", "{f}", "extra"],
        ["leafspace", "{f}", "--svg"],
        ["reduce", "{f}", "-o"],
        ["random", "--strips", "x", "--max-ints", "1", "--seed", "1"],
        ["random", "--strips", "2", "--seed", "1"],
        ["random", "--s", "2", "--max-ints", "1", "--seed", "1"],  # ambiguous prefix
        # "--" ends the options for argparse; the reader takes no such form.
        ["kernel", "--", "{f}"],
    ],
)
def test_usage_error_exits_2_with_one_line(atlas_file, capsys, argv):
    code, out, err = run(capsys, *(arg.format(f=atlas_file("PUNCTURED")) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("stripes: ") and err.count("\n") == 1


# Tokens the reader and argparse are compared on, and near misses: values
# of the wrong type and unknown options.  A token that starts with "-" is
# an option, a word with a space, or a negative number argparse reads as a
# value on every supported Python; no drawn token asks for help.
WORDS = ["in.atlas", "b c", "-a b", "", "-", "-1", "-0.5", "x=y"]
VALUES = {  # type -> (good values, bad values)
    str: (["out.txt", "", "-1", "a=b", " x", "-.5"], []),
    int: (["3", "-2", "0", " 7", "1_0"], ["x", "1.5", "-.5", ""]),
    float: (["0.5", "-0.1", "1e-3", "nan", "3", "-.5"], ["x", ""]),
}
UNKNOWN = ["--samples", "--frobnicate", "--dots", "-x", "-q"]


def one_in(draw, n: int) -> bool:
    return draw(st.integers(1, n)) == 1


@st.composite
def option_tokens(draw, spelling: str, option) -> list[str]:
    # The full spelling or a prefix of a long one (a prefix shared by two
    # options is a near miss), and its value apart, after "=", attached to
    # a short option, or missing.
    if spelling.startswith("--") and one_in(draw, 2):
        spelling = draw(st.sampled_from([spelling[:k] for k in range(3, len(spelling))]))
    if option is None or option.type is None:
        return [f"{spelling}=1"] if one_in(draw, 10) else [spelling]
    if one_in(draw, 10):
        return [spelling]
    good, bad = VALUES[option.type]
    value = draw(st.sampled_from(bad if bad and one_in(draw, 10) else good))
    form = draw(st.sampled_from(["apart"] * 5 + ["equals"] * 3 + ["attached"]))
    if form == "equals":
        return [f"{spelling}={value}"]
    if form == "attached" and not spelling.startswith("--") and value[:1] not in ("", "="):
        return [spelling + value]
    return [spelling, value]


@st.composite
def command_lines(draw) -> list[str]:
    # A command with its positionals (one missing or one extra now and
    # then), its required options (one left out now and then), up to four
    # more options with repeats, and now and then an unknown one, in any
    # order.
    name = draw(st.sampled_from([*COMMANDS, "frobnicate"]))
    command = COMMANDS.get(name)
    positionals = len(command.positionals) if command else 0
    positionals = max(0, positionals + draw(st.sampled_from([-1, 1] + [0] * 8)))
    pieces = [[draw(st.sampled_from(WORDS))] for _ in range(positionals)]
    options = command.options if command else {}
    chosen = [s for s, option in options.items() if option.required and not one_in(draw, 20)]
    if options:
        chosen += draw(st.lists(st.sampled_from(list(options)), max_size=4))
    if one_in(draw, 8):
        chosen.append(draw(st.sampled_from(UNKNOWN)))
    pieces += [draw(option_tokens(s, options.get(s))) for s in chosen]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def read_values(argv: list[str]) -> dict | None:
    try:
        return _read(argv)
    except SystemExit2:
        return None


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example(["random", "--str", "2", "--max", "1", "--seed", "1", "--glue", "0.5"])
@example(["random", "--max-ints", "-1", "--seed=3", "--strips", "2", "--seed", "4", "-oOUT"])
@example(["leafspace", "--svg=a.svg", "in.atlas", "--d", "--sv", "b.svg"])
@example(["iso", "-1", "--frobnicate", "b c"])
@example(["reduce", "in.atlas", "-o", "--dots"])
def test_reader_agrees_with_argparse(argv):
    # Both accept or both reject, with the same values; repr, so that a nan
    # read by both compares equal.
    expected, got = argparse_values(argv), read_values(argv)
    assert (expected is None) == (got is None), (argv, expected, got)
    if expected is not None:
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in expected.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--strips", "0", "--max-ints", "1", "--seed", "1"],
        ["random", "--strips", "2", "--max-ints", "-1", "--seed", "1"],
        ["random", "--strips", "2", "--max-ints", "1", "--seed", "1", "--glue-prob", "1.5"],
        ["random", "--strips", "2", "--max-ints", "1", "--seed", "1", "--glue-prob", "-0.1"],
        ["random", "--strips", "2", "--max-ints", "1", "--seed", "1", "--glue-prob", "nan"],
        ["validate", "{binary}"],
        ["iso", "{binary}", "{binary}"],
        ["selfcheck", "{binary}"],
        ["selfcheck", "{punctured}/"],
        ["validate", "{punctured}/"],
        ["iso", "{punctured}", "{binary}"],
        ["random", "--strips", "2", "--max-ints", "1", "--seed", "1", "--glue-prob", "inf"],
        # An empty OUT or PATH is a path that cannot be written, not "none".
        ["reduce", "{punctured}", "-o="],
        ["reduce", "{punctured}", "-o", ""],
        ["leafspace", "{punctured}", "--svg="],
        ["random", "--strips", "2", "--max-ints", "1", "--seed", "1", "-o="],
    ],
)
def test_bad_input_exits_2_with_one_line(atlas_file, capsys, tmp_path, argv):
    binary = tmp_path / "binary.atlas"
    binary.write_bytes(b"strip S\xff\n")
    paths = {"binary": str(binary), "punctured": atlas_file("PUNCTURED")}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("stripes: ") and err.count("\n") == 1
    assert "Traceback" not in err


ODD_NAMES = 'strip S"x\nside0 a<b c\\d&\nstrip T\nside1 e\nglue a<b e +\n'


def _balanced_quotes(line: str) -> bool:
    unescaped = line.replace("\\\\", "").replace('\\"', "")
    return unescaped.count('"') % 2 == 0


def test_dot_escapes_identifiers(atlas_file, capsys):
    path = atlas_file(ODD_NAMES)
    for argv in (["leafspace", path, "--dot"], ["dual", path, "--dot"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert all(_balanced_quotes(line) for line in out.splitlines())
    assert '"S\\"x.0" -> "{a<b,e}"' in run(capsys, "leafspace", path, "--dot")[1]


# Names with characters XML 1.0 forbids; the parser takes any token without
# whitespace or '#'.
CONTROL_NAMES = "strip A\x01B\nside0 x\x00y z\ufffe\nstrip T\nside1 e\x1b\uffff\nglue x\x00y e\x1b\uffff +\n"


def check_dot(command: str, text: str, atlas: StripedAtlas) -> None:
    # Both --dot outputs follow the DOT grammar, every edge end is a
    # declared node, and the quoted strings read back as the identifiers.
    graph = parse_dot(text)
    assert not undeclared_ends(graph)
    if command == "leafspace":
        ends = {f"{s.id}.{side}" for s in atlas.strips for side in (0, 1)}
        assert (graph.kind, set(graph.nodes)) == ("digraph", ends | {p.label() for p in leaf_points(atlas)})
        arcs = [attrs["label"] for tail, head, attrs in graph.edges if tail in ends and head in ends]
        assert sorted(arcs) == sorted(atlas.strip_ids)
    else:
        assert (graph.kind, set(graph.nodes)) == ("graph", set(atlas.strip_ids))
        labels = [attrs["label"] for _, _, attrs in graph.edges]
        assert labels == [edge.label() for edge in build_dual_graph(atlas).edges]


@pytest.mark.parametrize(
    "text",
    [*FIXTURE_NAMES, pytest.param(ODD_NAMES, id="ODD_NAMES"), pytest.param(CONTROL_NAMES, id="CONTROL_NAMES")],
)
@pytest.mark.parametrize("command", ["leafspace", "dual"])
def test_dot_follows_the_grammar(atlas_file, command, text):
    path = atlas_file(text)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([command, path, "--dot"]) == 0
    check_dot(command, out.getvalue(), parse_atlas(Path(path).read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "text",
    [
        'digraph g { "a\\" -> "b" }',  # the backslash pairs with the closing quote
        'digraph g { "a" -> "b" ',  # no closing brace
        'graph g { "a" -> "b" }',  # a directed edge in an undirected graph
        'digraph g { "a" [label="x" }',  # an open attribute list
        'digraph g { node -> "b" }',  # a keyword as a node
        'digraph g { "a b" c" }',  # a stray quote
        'digraph g { "a" } "b"',  # text after the graph
        'strict digraph g { "a" }',  # DOT that stripes does not write
        'digraph { "a" }',
        'digraph g { "a" -> "b" -> "c" }',
    ],
)
def test_dot_checker_rejects_malformed_text(text):
    with pytest.raises(DotError):
        parse_dot(text)


def test_svg_escapes_identifiers(atlas_file, capsys, tmp_path):
    svg_path = tmp_path / "odd.svg"
    code, _, _ = run(capsys, "leafspace", atlas_file(ODD_NAMES), "--svg", str(svg_path))
    assert code == 0
    texts = {node.text for node in ET.parse(svg_path).getroot().iter()}
    assert {'S"x', "{a<b,e}", "{c\\d&}"} <= texts


def test_svg_shows_characters_xml_forbids(atlas_file, capsys, tmp_path):
    # The parser takes any token without whitespace or '#'; the SVG shows
    # what XML 1.0 cannot carry as its Python escape and still parses.
    text = "strip A\x01B\nside0 x\x00y z\ufffe\nstrip T\nside1 e\x1b\uffff\nglue x\x00y e\x1b\uffff +\n"
    assert parse_atlas(text).strips[0].id == "A\x01B"
    svg_path = tmp_path / "ctrl.svg"
    code, _, _ = run(capsys, "leafspace", atlas_file(text), "--svg", str(svg_path))
    assert code == 0
    texts = {node.text for node in ET.parse(svg_path).getroot().iter()}
    assert {"A\\x01B", "T", "{e\\x1b\\uffff,x\\x00y}", "{z\\ufffe}"} <= texts


@pytest.mark.parametrize(
    "argv",
    [
        ["leafspace", "{ladder}", "--svg", "{dir}"],
        ["reduce", "{ladder}", "-o", "{missing}"],
        ["reduce", "{ladder}", "-o", "{dir}"],
        ["random", "--strips", "2", "--max-ints", "1", "--seed", "1", "-o", "{missing}"],
    ],
)
def test_unwritable_output_exits_2_with_one_line(atlas_file, tmp_path, argv):
    paths = {
        "ladder": atlas_file("LADDER"),
        "dir": str(tmp_path),
        "missing": str(tmp_path / "missing" / "dir" / "x"),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(stripes.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "stripes.cli", *(arg.format(**paths) for arg in argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("stripes: cannot write ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_closed_stdout_exits_0_without_traceback(tmp_path):
    # aut on necklace(200) prints 800 lines, about 4.8 MB; the reader takes
    # one line and closes the pipe.
    path = tmp_path / "necklace200.atlas"
    path.write_text(serialize_atlas(necklace(200)))
    env = dict(os.environ, PYTHONPATH=str(Path(stripes.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stripes.cli", "aut", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"sigma: ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


@pytest.mark.parametrize("failures", [1, 2000])
def test_closed_stdout_keeps_a_failed_selfcheck_exit_1(atlas_file, monkeypatch, failures):
    # One failure line stays in the buffer until the final flush; 2,000
    # lines (about 60 KB) overflow it while they are printed.
    from stripes.selfcheck import CheckResult, SelfCheckReport

    failed = SelfCheckReport([CheckResult("s0", "broken", False)] * failures)
    monkeypatch.setattr("stripes.selfcheck.selfcheck", lambda atlas: failed)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["selfcheck", atlas_file("PLANE")]) == 1
        monkeypatch.undo()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        *[f"{command} {{f}}" for command in ("validate", "classify", "leafspace", "dual")],
        *[f"{command} {{f}}" for command in ("reduce", "kernel", "report", "selfcheck", "aut")],
        "leafspace {f} --dot",
        "leafspace {f} --svg {svg}",
        "dual {f} --dot",
        "iso {f} {f}",
        "random --strips 3 --max-ints 2 --seed 1",
    ],
)
def test_stdout_that_cannot_be_written_exits_2_with_one_line(atlas_file, tmp_path, argv):
    # /dev/full fails every write with ENOSPC, at the write or at the flush.
    args = argv.format(f=atlas_file("PUNCTURED"), svg=tmp_path / "out.svg").split()
    env = dict(os.environ, PYTHONPATH=str(Path(stripes.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "stripes.cli", *args], stdout=full, stderr=subprocess.PIPE, env=env
        )
    assert done.returncode == 2, done.stderr
    assert done.stderr == b"stripes: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize(
    "fd, argv, code, out, err",
    [
        (1, "kernel {f}", 2, b"", b"stripes: cannot write stdout: Bad file descriptor\n"),
        (1, "aut {f}", 2, b"", b"stripes: cannot write stdout: Bad file descriptor\n"),
        (1, "reduce {f} -o {out}", 0, b"", b""),
        (1, "kernel {missing}", 2, b"", b"stripes: cannot read {missing}: No such file or directory\n"),
        (2, "kernel {missing}", 2, b"", b""),
        (2, "kernel {f}", 0, b"TRIVIAL\n", b""),
    ],
    ids=["stdout-kernel", "stdout-aut", "stdout-reduce-o", "stdout-error", "stderr-error", "stderr-kernel"],
)
def test_stream_closed_before_the_start(atlas_file, tmp_path, fd, argv, code, out, err):
    # As `>&-` or `2>&-`: the stream is None in the command.  A text for a
    # closed stdout is one line and exit 2, an empty one keeps the code; a
    # line for a closed stderr is dropped and the code stands.
    paths = {"f": atlas_file("PUNCTURED"), "out": tmp_path / "r.atlas", "missing": tmp_path / "missing"}
    env = dict(os.environ, PYTHONPATH=str(Path(stripes.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "stripes.cli", *argv.format(**paths).split()],
        capture_output=True,
        env=env,
        preexec_fn=lambda: os.close(fd),
    )
    err = err.replace(b"{missing}", bytes(paths["missing"]))
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def run_cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(stripes.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "stripes.cli", *argv], capture_output=True, env=env)


@pytest.mark.parametrize(
    "argv, printed",
    [
        ("validate {f}", b"OK\n"),
        ("dual {f}", b"vertices 1\nedges 1\neuler 0\n"),
        ("kernel {f}", b"Z2 witness=(id;m=0;r=1)\n"),
        ("report {f}", b"autOrder 2\nkernel Z2\nimageOrder 1\nleafModelAutOrder 1\n"),
        *[(f"{command} {{f}}", None) for command in ("classify", "leafspace", "reduce", "aut", "selfcheck")],
        ("leafspace {f} --dot", None),
        ("dual {f} --dot", None),
        ("iso {f} {f}", None),
    ],
    ids=lambda value: value if isinstance(value, str) else "prints" if value else "fails",
)
def test_stdout_that_cannot_encode_a_name_exits_2_with_one_line(tmp_path, argv, printed):
    # On an ASCII stdout, a command whose output names no identifier prints
    # it; any other ends with one line and prints nothing.
    path = tmp_path / "greek.atlas"
    path.write_text("strip \u03a9\nside0 \u03b1 \u03b2\nglue \u03b1 \u03b2 +\n", encoding="utf-8")
    done = run_cli(*(arg.format(f=path) for arg in argv.split()), PYTHONIOENCODING="ascii")
    if printed is not None:
        assert (done.returncode, done.stdout, done.stderr) == (0, printed, b"")
        return
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err.startswith("stripes: cannot write U+03") and err.count("\n") == 1
    assert err.endswith(" to stdout (encoding ascii)\n")
    assert done.stdout == b""


def test_failed_command_prints_nothing(atlas_file, tmp_path):
    # reduce knows CYLINDER before it writes OUT, but prints it only on success.
    done = run_cli("reduce", atlas_file("CYL"), "-o", str(tmp_path / "missing" / "x"))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"stripes: cannot write ") and done.stderr.count(b"\n") == 1


def test_parser_is_reused_across_calls(atlas_file, capsys):
    path = atlas_file("PUNCTURED")
    first = run(capsys, "report", path)
    assert first == run(capsys, "report", path)
    assert first[0] == 0
    code, out, err = run(capsys, "kernel")
    assert (code, out) == (2, "")
    assert "usage: stripes kernel" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: stripes")
    assert run(capsys, "report", path) == first


def test_internal_error_exits_4_with_one_line(atlas_file, capsys, monkeypatch):
    monkeypatch.setattr("stripes.symmetry.reversal_witness", lambda atlas: None)
    code, out, err = run(capsys, "kernel", atlas_file("CYL"))
    assert (code, out) == (4, "")
    assert err == "stripes: internal error: exceptional component without a reversal\n"


# ``aut`` prints one line per automorphism, and repeated components
# multiply them: eight bare strips have 8!·4^8 = 2,642,411,520.  A draw
# with more automorphisms than this runs every command but ``aut``.
AUT_LINES_CAP = 10_000


def aut_lines_fit(atlas) -> bool:
    witnesses = iter_witnesses(atlas, atlas)
    return sum(1 for _ in itertools.islice(witnesses, AUT_LINES_CAP + 1)) <= AUT_LINES_CAP


@settings(max_examples=60, deadline=None)
@given(
    strips=st.integers(0, 8),
    max_ints=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    glue_prob=st.floats(0, 1),
)
def test_every_file_command_ends_cleanly(tmp_path_factory, strips, max_ints, seed, glue_prob):
    # In-process, on random atlases of at most 8 strips, the empty one too:
    # each command exits 0 or 3 with at most one stderr line.  A traceback
    # would surface here as the exception itself.
    atlas = random_atlas(strips, max_ints, seed, glue_prob) if strips else StripedAtlas((), ())
    path = str(tmp_path_factory.getbasetemp() / "drawn.atlas")
    Path(path).write_text(serialize_atlas(atlas))
    commands = ["validate", "classify", "leafspace", "dual", "reduce", "kernel", "report", "selfcheck"]
    if aut_lines_fit(atlas):
        commands.append("aut")
    for argv in [[command, path] for command in commands] + [["iso", path, path]]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3), (argv, code, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# Any token of the text format: no whitespace (as str.split sees it), no
# '#', and no lone surrogate, which UTF-8 cannot encode.
identifiers = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda name: "#" not in name and name.split() == [name]
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    strips=st.integers(1, 6),
    max_ints=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    glue_prob=st.floats(0, 1),
)
def test_every_command_ends_cleanly_on_any_identifiers(
    tmp_path_factory, data, strips, max_ints, seed, glue_prob
):
    # A random atlas renamed with distinct drawn identifiers: every file
    # command, and each output option, exits 0 or 3 with at most one stderr
    # line; the SVG parses, both --dot texts pass the DOT checker, and
    # reduce -o writes what plain reduce prints after its CYLINDER / MOEBIUS
    # lines.
    atlas = random_atlas(strips, max_ints, seed, glue_prob)
    old = [*atlas.strip_ids, *atlas.intervals()]
    new = data.draw(st.lists(identifiers, min_size=len(old), max_size=len(old), unique=True))
    name = dict(zip(old, new)).__getitem__
    atlas = StripedAtlas(
        tuple(
            Strip(name(s.id), tuple(map(name, s.side0)), tuple(map(name, s.side1)))
            for s in atlas.strips
        ),
        tuple(Gluing(name(g.a), name(g.b), g.parity) for g in atlas.gluings),
    )
    base = tmp_path_factory.getbasetemp()
    path, svg, reduced = (str(base / f"renamed.{ext}") for ext in ("atlas", "svg", "out"))
    Path(path).write_text(serialize_atlas(atlas), encoding="utf-8")
    commands = ["validate", "classify", "leafspace", "dual", "reduce", "kernel", "report", "selfcheck"]
    if aut_lines_fit(atlas):
        commands.append("aut")
    runs = [[command, path] for command in commands] + [
        ["iso", path, path],
        ["leafspace", path, "--dot"],
        ["leafspace", path, "--svg", svg],
        ["dual", path, "--dot"],
        ["reduce", path, "-o", reduced],
    ]
    printed = {}
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3), (argv, code, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
        printed[tuple(argv)] = out.getvalue()
    ET.parse(svg)
    for command in ("leafspace", "dual"):
        check_dot(command, printed[(command, path, "--dot")], atlas)
    written = Path(reduced).read_text(encoding="utf-8")
    assert printed[("reduce", path, "-o", reduced)] + written == printed[("reduce", path)]


# Valid atlas texts, then chunks to insert anywhere: directive words,
# names and parities, bytes that are not UTF-8, a byte-order mark, NUL,
# line and token separators str.splitlines and str.split know, and the
# UTF-8 forms of U+0085, U+00A0 and U+2028.
RAW_BASES = (
    b"",
    b"strip S\nside0 a b\nside1 c\nstrip T\nside0 d\nglue a c +\nglue b d -\n",
    b"strip S\nside0 a\nside1 b\nglue a b -\n",
    b"strip S\nstrip T\nside1 x y\n",
)
BYTE_CHUNKS = (
    b"strip ", b"side0 ", b"side1 ", b"glue ", b"a", b"b", b"c", b" ", b"+", b"-", b"#", b"\n",
    b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00", b"\r", b"\x0b", b"\x0c",
    b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\xc2\x85", b"\xc2\xa0", b"\xe2\x80\xa8",
)


@st.composite
def raw_files(draw) -> bytes:
    # A valid text, or none, with drawn chunks inserted, cut at 200 bytes.
    data = draw(st.sampled_from(RAW_BASES))
    for chunk in draw(st.lists(st.sampled_from(BYTE_CHUNKS), max_size=30)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + chunk + data[at:]
    return data[:200]


@settings(max_examples=300, deadline=None)
@given(raw_files())
def test_every_file_command_ends_cleanly_on_raw_bytes(tmp_path_factory, data):
    # Any file of at most 200 bytes: every file command exits 0, 1, 2 or 3
    # with at most one newline-terminated stderr line.  aut runs only where
    # its lines are few, as a file of bare strips has factorially many.
    path = tmp_path_factory.getbasetemp() / "raw.atlas"
    path.write_bytes(data)
    try:
        atlas = parse_atlas(data.decode("utf-8-sig"))
    except (UnicodeDecodeError, AtlasError):
        atlas = None
    commands = ["validate", "classify", "leafspace", "dual", "reduce", "kernel", "report", "selfcheck"]
    if atlas is None or aut_lines_fit(atlas):
        commands.append("aut")
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        message = err.getvalue()
        assert code in (0, 1, 2, 3), (command, data, code, message)
        assert len(message.splitlines()) <= 1 and message.count("\n") <= 1, (command, data, message)
        assert not message or message.endswith("\n"), (command, data, message)
