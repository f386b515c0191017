"""Witness order and canonical strings, pinned as literals.

The order tests of ``test_witness_oracle`` compare the pruned matcher
with the unpruned one, and both read root frames in the same order: a
change to that order in both would change ``iso``'s printed witness
unseen.  These values were computed once and are independent of any
matcher.
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest

from stripes.atlas import canonical_form, isomorphic, serialize_atlas
from stripes.cli import main
from stripes.corpus import exhaustive_family, necklace, random_atlas
from stripes.fixtures import FIXTURE_NAMES, fixture_atlas
from test_witness_oracle import moved_copy

ISO_LINES = {
    "PLANE": "ISOMORPHIC sigma: S->CS m: S=0 r: S=0\n",
    "HALFPLANE": "ISOMORPHIC sigma: S->CS m: S=0 r: S=0\n",
    "CYL": "ISOMORPHIC sigma: S->CS m: S=0 r: S=0\n",
    "MOEB": "ISOMORPHIC sigma: S->CS m: S=0 r: S=0\n",
    "SAMESIDE": "ISOMORPHIC sigma: S->CS m: S=0 r: S=0\n",
    "PUNCTURED": "ISOMORPHIC sigma: S->CT,T->CS m: S=0,T=0 r: S=0,T=1\n",
    "LADDER": "ISOMORPHIC sigma: S->CT,T->CS m: S=0,T=1 r: S=0,T=1\n",
}

NECKLACE_3_AUT = """\
sigma: N0->N0,N1->N1,N2->N2 m: N0=0,N1=0,N2=0 r: N0=0,N1=0,N2=0
sigma: N0->N0,N1->N1,N2->N2 m: N0=0,N1=0,N2=0 r: N0=1,N1=1,N2=1
sigma: N0->N0,N1->N2,N2->N1 m: N0=1,N1=1,N2=1 r: N0=0,N1=0,N2=0
sigma: N0->N0,N1->N2,N2->N1 m: N0=1,N1=1,N2=1 r: N0=1,N1=1,N2=1
sigma: N0->N1,N1->N0,N2->N2 m: N0=1,N1=1,N2=1 r: N0=0,N1=0,N2=0
sigma: N0->N1,N1->N0,N2->N2 m: N0=1,N1=1,N2=1 r: N0=1,N1=1,N2=1
sigma: N0->N1,N1->N2,N2->N0 m: N0=0,N1=0,N2=0 r: N0=0,N1=0,N2=0
sigma: N0->N1,N1->N2,N2->N0 m: N0=0,N1=0,N2=0 r: N0=1,N1=1,N2=1
sigma: N0->N2,N1->N0,N2->N1 m: N0=0,N1=0,N2=0 r: N0=0,N1=0,N2=0
sigma: N0->N2,N1->N0,N2->N1 m: N0=0,N1=0,N2=0 r: N0=1,N1=1,N2=1
sigma: N0->N2,N1->N1,N2->N0 m: N0=1,N1=1,N2=1 r: N0=0,N1=0,N2=0
sigma: N0->N2,N1->N1,N2->N0 m: N0=1,N1=1,N2=1 r: N0=1,N1=1,N2=1
"""

PUNCTURED_AUT = """\
sigma: S->S,T->T m: S=0,T=0 r: S=0,T=0
sigma: S->S,T->T m: S=0,T=0 r: S=1,T=1
sigma: S->T,T->S m: S=1,T=1 r: S=0,T=0
sigma: S->T,T->S m: S=1,T=1 r: S=1,T=1
"""

CANONICAL_FORMS = {
    "PUNCTURED": (
        "strip T1\nside0 T1.0.0 T1.0.1\nstrip T2\nside0 T2.0.0 T2.0.1\n"
        "glue T1.0.0 T2.0.0 +\nglue T1.0.1 T2.0.1 +\n"
    ),
    "LADDER": "strip T1\nside0 T1.0.0\nstrip T2\nside0 T2.0.0\nglue T1.0.0 T2.0.0 +\n",
    "necklace(2)": (
        "strip T1\nside0 T1.0.0 T1.0.1\nside1 T1.1.0 T1.1.1\n"
        "strip T2\nside0 T2.0.0 T2.0.1\nside1 T2.1.0 T2.1.1\n"
        "glue T1.0.0 T2.0.0 +\nglue T1.0.1 T2.0.1 +\n"
        "glue T1.1.0 T2.1.0 +\nglue T1.1.1 T2.1.1 +\n"
    ),
}

# sha256 of the reprs of isomorphic(a, moved_copy(a, Random(seed))), dict
# key order included, for a = random_atlas(1 + seed % 5, 2, seed), seed < 200.
RANDOM_WITNESSES_SHA256 = "4e3218c8d2ab4322c7fc7fca277256b763355fe186425fbb8b202622257a55e6"
# sha256 of the canonical forms of exhaustive_family(2, 2), each ended by NUL.
FAMILY_FORMS_SHA256 = "f401158ff22e3ac556de12e0120a7fee1858b8f9606bb8c768d1cbb98a034e81"


def printed(capsys, tmp_path, command, *atlases) -> str:
    paths = []
    for k, atlas in enumerate(atlases):
        path = tmp_path / f"{k}.atlas"
        path.write_text(serialize_atlas(atlas))
        paths.append(str(path))
    assert main([command, *paths]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_iso_line_on_bundled_atlases(name, capsys, tmp_path):
    atlas = fixture_atlas(name)
    copy = moved_copy(atlas, Random(FIXTURE_NAMES.index(name)))
    assert printed(capsys, tmp_path, "iso", atlas, copy) == ISO_LINES[name]


def test_aut_lines(capsys, tmp_path):
    assert printed(capsys, tmp_path, "aut", necklace(3)) == NECKLACE_3_AUT
    assert printed(capsys, tmp_path, "aut", fixture_atlas("PUNCTURED")) == PUNCTURED_AUT


def test_canonical_forms():
    atlases = {
        "PUNCTURED": fixture_atlas("PUNCTURED"),
        "LADDER": fixture_atlas("LADDER"),
        "necklace(2)": necklace(2),
    }
    assert {name: canonical_form(a) for name, a in atlases.items()} == CANONICAL_FORMS


def test_witnesses_on_random_atlases():
    digest = hashlib.sha256()
    for seed in range(200):
        atlas = random_atlas(1 + seed % 5, 2, seed)
        digest.update(repr(isomorphic(atlas, moved_copy(atlas, Random(seed)))).encode())
    assert digest.hexdigest() == RANDOM_WITNESSES_SHA256


def test_canonical_forms_of_the_family():
    digest = hashlib.sha256()
    for atlas in exhaustive_family(2, 2):
        digest.update(canonical_form(atlas).encode() + b"\0")
    assert digest.hexdigest() == FAMILY_FORMS_SHA256
