"""Modules load on first use: ``import stripes`` runs no submodule, and
each CLI command loads only the modules it uses."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import stripes
import stripes.cli as cli
from stripes import atlas, symmetry

SRC = Path(stripes.__file__).parents[1]
DATA = Path(stripes.__file__).parent / "data"

# The public names of the package, by home module.
PUBLIC = {
    "atlas": "AtlasError DisconnectedAtlasError Gluing Parity Strip StripedAtlas canonical_form "
    "connected_components component_atlases is_connected is_valid isomorphic parse_atlas "
    "serialize_atlas validate",
    "dualgraph": "DualGraph build_dual_graph euler_invariant export_dot",
    "fixtures": "FIXTURE_NAMES all_fixtures fixture_atlas fixture_text",
    "leafspace": "ArcEnd Attachment FiniteBasisSpace LeafClass LeafPoint LeafSpaceModel Sample "
    "boundary_points build_leaf_space classify_leaf hcl_bruteforce hcl_point sampled_space "
    "special_points",
    "reduction": "SurfaceClass SurfaceKind is_reduced reduce_atlas reduce_component regular_seams",
    "symmetry": "AtlasAutomorphism HomeotopyReport KernelResult LeafMap all_leaf_reversal "
    "enumerate_automorphisms homeotopy_report identity_automorphism induced_leaf_map "
    "leaf_action_kernel leaf_model_automorphism_count reversal_witness",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def loaded_after(code: str, *args: str) -> set[str]:
    """The ``stripes`` modules a fresh interpreter holds after ``code``, and
    ``argparse`` and ``dataclasses`` if it holds them: the CLI reads its
    argv without the one, and no module defines its types with the other."""
    probe = code + (
        "\nimport sys"
        "\nsys.stdout.flush()"
        "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('stripes', 'argparse', 'dataclasses')), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def test_import_stripes_loads_no_submodule():
    assert loaded_after("import stripes") == {"stripes"}


def test_import_cli_loads_only_atlas():
    assert loaded_after("import stripes.cli") == {"stripes", "stripes.cli", "stripes.atlas"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["validate", "{plane}"], ""),
        (["dual", "{plane}"], ""),
        (["iso", "{plane}", "{cyl}"], ""),  # no witness to print
        (["classify", "{plane}"], "leafspace"),
        (["leafspace", "{plane}"], "leafspace"),
        (["reduce", "{plane}"], "reduction"),
        (["aut", "{plane}"], "symmetry leafspace reduction"),
        (["iso", "{plane}", "{plane}"], "symmetry leafspace reduction"),
        (["kernel", "{plane}"], "symmetry leafspace reduction"),
        (["report", "{plane}"], "symmetry leafspace reduction"),
        (["selfcheck", "{plane}"], "selfcheck symmetry leafspace reduction"),
        (["random", "--strips", "3", "--max-ints", "2", "--seed", "1"], "corpus"),
        (["leafspace", "{plane}", "--dot"], "render leafspace"),
        (["leafspace", "{plane}", "--svg", "{svg}"], "render leafspace"),
        (["dual", "{plane}", "--dot"], "render dualgraph"),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, modules):
    paths = {"plane": DATA / "plane.atlas", "cyl": DATA / "cyl.atlas", "svg": tmp_path / "out.svg"}
    args = [arg.format(**paths) for arg in argv]
    code = "import sys\nfrom stripes.cli import main\nassert main(sys.argv[1:]) == 0"
    expected = {"stripes", "stripes.cli", "stripes.atlas"} | {f"stripes.{m}" for m in modules.split()}
    assert loaded_after(code, *args) == expected


def test_no_submodule_loads_dataclasses():
    # fixtures, corpus and render included, which no command loads alone.
    names = {f"stripes.{m.name}" for m in pkgutil.iter_modules(stripes.__path__)}
    assert {"stripes.cli", "stripes.fixtures", "stripes.corpus", "stripes.render"} <= names
    assert loaded_after("".join(f"import {name}\n" for name in names)) == {"stripes", *names}


def test_all_holds_the_public_names():
    assert sorted(stripes.__all__) == sorted(HOME)
    assert len(stripes.__all__) == 55


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_home_modules_object(name):
    assert getattr(stripes, name) is getattr(import_module(f"stripes.{HOME[name]}"), name)


def test_dir_and_star_import_list_the_public_names():
    assert set(HOME) <= set(dir(stripes))
    namespace: dict = {}
    exec("from stripes import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(HOME)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stripes.no_such_name  # noqa: B018


def test_disconnected_error_is_one_class():
    assert symmetry.DisconnectedAtlasError is atlas.DisconnectedAtlasError
    assert stripes.DisconnectedAtlasError is atlas.DisconnectedAtlasError


# Per command that imports library names where it runs: its argv, and the
# home module and name of one function it calls there once.  validate and
# plain dual call only names the CLI imports from ``atlas``.
CALLS = [
    (["random", "--strips", "3", "--max-ints", "2", "--seed", "1"], "corpus", "random_atlas"),
    (["iso", "{plane}", "{plane}"], "symmetry", "AtlasAutomorphism"),
    (["classify", "{plane}"], "leafspace", "leaf_points"),
    (["leafspace", "{plane}"], "leafspace", "leaf_point_table"),
    (["leafspace", "{plane}", "--dot"], "render", "leafspace_dot"),
    (["leafspace", "{plane}", "--svg", "{svg}"], "render", "leafspace_svg"),
    (["reduce", "{plane}"], "reduction", "reduce_atlas"),
    (["dual", "{plane}", "--dot"], "dualgraph", "export_dot"),
    (["aut", "{plane}"], "symmetry", "enumerate_automorphisms"),
    (["kernel", "{plane}"], "symmetry", "leaf_action_kernel"),
    (["report", "{plane}"], "symmetry", "homeotopy_report"),
    (["selfcheck", "{plane}"], "selfcheck", "selfcheck"),
]


def test_cli_reads_the_home_modules_current_value(tmp_path, capsys):
    # A patch on the home module reaches the command while it is set, and
    # is gone from the CLI once it is undone: the CLI keeps no copy.
    paths = {"plane": DATA / "plane.atlas", "svg": tmp_path / "out.svg"}
    assert {argv[0] for argv, _, _ in CALLS} | {"validate", "dual"} == set(cli.COMMANDS)
    for argv, module, name in CALLS:
        args = [arg.format(**paths) for arg in argv]
        home = import_module(f"stripes.{module}")
        real, calls = getattr(home, name), []

        def counted(*given, real=real, calls=calls):
            calls.append(given)
            return real(*given)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(home, name, counted)
            assert cli.main(args) == 0
        assert getattr(home, name) is real
        assert cli.main(args) == 0
        assert len(calls) == 1, (argv, len(calls))
    capsys.readouterr()


def test_cli_names_can_be_substituted_and_restored(monkeypatch, capsys):
    # homeotopy_report and isomorphic are names of stripes.cli: a substitute
    # set there answers for report and iso, and undoing it puts the real
    # functions back, so a later patch on the home module reaches report.
    plane = str(DATA / "plane.atlas")
    real_report = cli.homeotopy_report

    def printed(*argv: str) -> str:
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    monkeypatch.setattr(cli, "homeotopy_report", lambda a: real_report(a)._replace(aut_order=-1))
    monkeypatch.setattr(cli, "isomorphic", lambda a, b: None)
    assert printed("report", plane).startswith("autOrder -1\n")
    assert printed("iso", plane, plane) == "NOT-ISOMORPHIC\n"
    monkeypatch.undo()
    assert cli.homeotopy_report is real_report
    assert cli.isomorphic is atlas.isomorphic
    assert printed("iso", plane, plane).startswith("ISOMORPHIC ")

    calls = []
    real = symmetry.homeotopy_report
    monkeypatch.setattr(symmetry, "homeotopy_report", lambda a: calls.append(a) or real(a))
    assert printed("report", plane).startswith("autOrder 4\n")
    assert len(calls) == 1
