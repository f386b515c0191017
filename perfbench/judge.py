"""Independent routes that judge the package's answers by meaning.

Nothing here imports ``stripes``.  A witness ``(strip_map, flip, rev)``
sends strip S to ``strip_map[S]``, its side e to side ``e ^ flip[S]``, keeps
interval order when ``rev[S]`` is 0 and reverses it when 1, and must carry
every gluing of parity p onto a gluing of parity ``p ^ rev[S_a] ^ rev[S_b]``
and every free interval onto a free interval.
"""

from __future__ import annotations

import re
from typing import Iterator

from inputs import Atlas, flipped

Witness = tuple[dict[str, str], dict[str, int], dict[str, int]]


class _Index:
    """Interval locations and partners of one atlas."""

    def __init__(self, atlas: Atlas):
        self.sides = {sid: (s0, s1) for sid, s0, s1 in atlas.strips}
        self.where = {
            iv: (sid, e, i)
            for sid, s0, s1 in atlas.strips
            for e, side in enumerate((s0, s1))
            for i, iv in enumerate(side)
        }
        self.partner: dict[str, tuple[str, str]] = {}
        for a, b, p in atlas.gluings:
            self.partner[a] = (b, p)
            self.partner[b] = (a, p)

    def image(self, w: Witness, target: "_Index", iv: str) -> str | None:
        smap, flip, rev = w
        sid, e, i = self.where[iv]
        src_side = self.sides[sid][e]
        dst_side = target.sides[smap[sid]][e ^ flip[sid]]
        if len(src_side) != len(dst_side):
            return None
        return dst_side[len(dst_side) - 1 - i if rev[sid] else i]


def is_witness(src: Atlas, dst: Atlas, w: Witness, _ix=None) -> bool:
    s, d = _ix or (_Index(src), _Index(dst))
    smap, flip, rev = w
    if sorted(smap) != sorted(s.sides) or sorted(smap.values()) != sorted(d.sides):
        return False
    for sid, (s0, s1) in s.sides.items():
        if flip.get(sid) not in (0, 1) or rev.get(sid) not in (0, 1):
            return False
        t0, t1 = d.sides[smap[sid]]
        if flip[sid]:
            t0, t1 = t1, t0
        if (len(s0), len(s1)) != (len(t0), len(t1)):
            return False
    for iv in s.where:
        image = s.image(w, d, iv)
        if iv not in s.partner:
            if image in d.partner:
                return False
            continue
        other, parity = s.partner[iv]
        bits = rev[s.where[iv][0]] ^ rev[s.where[other][0]]
        expected = flipped(parity) if bits else parity
        if d.partner.get(image) != (s.image(w, d, other), expected):
            return False
    return True


def witnesses(src: Atlas, dst: Atlas) -> Iterator[Witness]:
    """Every witness from ``src`` to ``dst``, both connected.

    In a connected atlas the image, side flip and reversal bit of one root
    strip force the rest: a glued interval's image fixes where its partner
    goes, the partner's side gives its flip and the parity rule its reversal
    bit.  So at most 4n candidates are tried, each checked in full.
    """
    if len(src.strips) != len(dst.strips) or len(src.gluings) != len(dst.gluings):
        return
    s, d = _Index(src), _Index(dst)
    root = src.strips[0][0]
    for target in d.sides:
        for f in (0, 1):
            for r in (0, 1):
                w = _propagate(s, d, root, target, f, r)
                if w is not None and is_witness(src, dst, w, (s, d)):
                    yield w


def _propagate(s: _Index, d: _Index, root, target, f, r) -> Witness | None:
    smap, flip, rev = {root: target}, {root: f}, {root: r}
    w = (smap, flip, rev)
    queue = [root]
    while queue:
        sid = queue.pop()
        for side in s.sides[sid]:
            for iv in side:
                if iv not in s.partner:
                    continue
                image = s.image(w, d, iv)
                if image not in d.partner:
                    return None
                other, parity = s.partner[iv]
                image_other, image_parity = d.partner[image]
                osid, oside, _ = s.where[other]
                tsid, tside, _ = d.where[image_other]
                guess = (tsid, oside ^ tside, rev[sid] ^ (parity != image_parity))
                if osid in smap:
                    if (smap[osid], flip[osid], rev[osid]) != guess:
                        return None
                    continue
                smap[osid], flip[osid], rev[osid] = guess
                queue.append(osid)
    return w


def isomorphic(a: Atlas, b: Atlas) -> bool:
    return next(witnesses(a, b), None) is not None


def automorphism_count(atlas: Atlas) -> int:
    return sum(1 for _ in witnesses(atlas, atlas))


def reversal_fixes_points(atlas: Atlas) -> bool:
    """Whether reversing every leaf, strips and sides kept, fixes each leaf
    point: the condition for a kernel of order two on a reduced atlas."""
    ids = [sid for sid, _, _ in atlas.strips]
    w = ({i: i for i in ids}, {i: 0 for i in ids}, {i: 1 for i in ids})
    if not is_witness(atlas, atlas, w):
        return False
    ix = _Index(atlas)
    return all(
        ix.image(w, ix, iv) in (iv, ix.partner.get(iv, (None,))[0]) for iv in ix.where
    )


# ---------------------------------------------------------------------------
# Leaf points and their classes, from the definitions


def leaf_points(atlas: Atlas) -> dict[tuple[str, ...], tuple[tuple[str, int, int], ...]]:
    """Each leaf point (sorted interval tuple) with its attachments."""
    ix = _Index(atlas)
    points = {}
    for iv in ix.where:
        key = tuple(sorted((iv, ix.partner[iv][0]))) if iv in ix.partner else (iv,)
        points[key] = tuple(sorted(ix.where[name] for name in key))
    return points


def closures(atlas: Atlas) -> dict[tuple[str, ...], frozenset]:
    """Hausdorff closure of every leaf point: all points sharing an arc end."""
    points = leaf_points(atlas)
    on_end: dict[tuple[str, int], set] = {}
    for key, slots in points.items():
        for sid, e, _ in slots:
            on_end.setdefault((sid, e), set()).add(key)
    return {
        key: frozenset().union(*(on_end[(sid, e)] for sid, e, _ in slots))
        for key, slots in points.items()
    }


def leaf_classes(atlas: Atlas) -> dict[tuple[str, ...], str]:
    """Class of every leaf point: Regular when each interval fills its side,
    SingularNonSpecial when a seam's two intervals fill one side together,
    Special otherwise."""
    ix = _Index(atlas)

    def side_of(iv):
        sid, e, _ = ix.where[iv]
        return ix.sides[sid][e]

    out = {}
    for key in leaf_points(atlas):
        if all(side_of(iv) == (iv,) for iv in key):
            out[key] = "Regular"
        elif len(key) == 2 and ix.where[key[0]][:2] == ix.where[key[1]][:2] and set(side_of(key[0])) == set(key):
            out[key] = "SingularNonSpecial"
        else:
            out[key] = "Special"
    return out


def is_reduced(atlas: Atlas) -> bool:
    return all(cls != "Regular" for key, cls in leaf_classes(atlas).items() if len(key) == 2)


# ---------------------------------------------------------------------------
# Reading the CLI's line formats


_LABEL = re.compile(r"\{([^{}]*)\}")


def parse_witness(text: str) -> Witness:
    """``sigma: A->B,... m: A=0,... r: A=1,...`` as printed by ``aut``/``iso``."""
    sigma, rest = text.split(" m: ")
    m, r = rest.split(" r: ")
    sigma = sigma.removeprefix("sigma: ")
    smap = dict(item.split("->") for item in sigma.split(","))
    flip = {k: int(v) for k, v in (item.split("=") for item in m.split(","))}
    rev = {k: int(v) for k, v in (item.split("=") for item in r.split(","))}
    return smap, flip, rev


def labels(text: str) -> list[tuple[str, ...]]:
    """Leaf point labels ``{a,b}`` in order of appearance."""
    return [tuple(sorted(body.split(","))) for body in _LABEL.findall(text)]


def parse_slot(text: str) -> tuple[str, int, int]:
    """``S.1[0]`` -> ``("S", 1, 0)``."""
    end, index = text[:-1].split("[")
    sid, side = end.rsplit(".", 1)
    return sid, int(side), int(index)


def key_values(out: str) -> dict[str, str]:
    pairs = (line.split(None, 1) for line in out.splitlines() if line.strip())
    return {p[0]: p[1].strip() if len(p) > 1 else "" for p in pairs}
