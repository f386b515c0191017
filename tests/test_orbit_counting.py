"""Orbit–stabiliser identity over the exhaustive families.

``exhaustive_family(n, m)`` holds, for every strip count k <= n, all
atlases of k strips with at most m intervals per side, named by position.
It is closed under the frame group H_k, which permutes the strips, flips
and reverses their sides and renames by position, and has k!·4^k
elements.  An atlas's stabiliser in H_k is its automorphism group, so
every isomorphism class C of k-strip atlases satisfies

    |C ∩ family| · |Aut(C)| = k!·4^k.

The identity ties ``canonical_form`` (the partition into classes) to
``enumerate_automorphisms`` (the group orders) with no relabelling search.
The class counts are pinned, so a change of canonical strings must keep the
partition.  ``(4, 1)`` (33,866 atlases, 280 classes) runs in CI only.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

import pytest

from stripes.atlas import canonical_form
from stripes.corpus import exhaustive_family
from stripes.symmetry import enumerate_automorphisms


def orbit_counting_failures(max_strips: int, max_per_side: int) -> tuple[int, list[str]]:
    """The number of classes of ``exhaustive_family(max_strips, max_per_side)``
    and the canonical forms of those that break the identity."""
    sizes: Counter[str] = Counter()
    representative = {}
    for atlas in exhaustive_family(max_strips, max_per_side):
        key = canonical_form(atlas)
        sizes[key] += 1
        representative.setdefault(key, atlas)
    failures = []
    for key, atlas in representative.items():
        k = len(atlas.strips)
        if sizes[key] * len(enumerate_automorphisms(atlas)) != factorial(k) * 4**k:
            failures.append(key)
    return len(sizes), failures


@pytest.mark.parametrize("family, classes", [((2, 2), 1043), ((3, 1), 90)])
def test_class_size_times_group_order_is_the_frame_group_order(family, classes):
    count, failures = orbit_counting_failures(*family)
    assert failures == []
    assert count == classes
