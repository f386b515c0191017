from __future__ import annotations

import sys

import pytest

from stripes.fixtures import FIXTURE_NAMES, fixture_atlas


@pytest.fixture(scope="session")
def fixtures():
    return {name: fixture_atlas(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def exhaustive_all():
    """One representative per isomorphism class of the small family."""
    from stripes.corpus import dedup_by_isomorphism, exhaustive_family

    return dedup_by_isomorphism(exhaustive_family(2, 2))


@pytest.fixture(scope="session")
def exhaustive_connected(exhaustive_all):
    """The connected classes only (isomorphism preserves connectivity)."""
    from stripes.atlas import is_connected

    return [a for a in exhaustive_all if is_connected(a)]


def patch_everywhere(monkeypatch, function, replacement) -> None:
    """Replace a package function under every name it is bound to."""
    for name, module in list(sys.modules.items()):
        if name == "stripes" or name.startswith("stripes."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, function) -> list:
    """Count the calls of a package function, under every name it is bound to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    patch_everywhere(monkeypatch, function, counted)
    return calls
