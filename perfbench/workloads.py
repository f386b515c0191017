"""The three workloads: their inputs, their operations and their judges.

``build(name, seed, workdir)`` returns a :class:`Workload` whose inputs and
operation order depend only on ``seed``.  Every operation carries a judge
that reads the answer by meaning (see ``README.md``), so a planned change
of output bytes, merge order or route is not counted as a failure.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

import inputs as gen
import judge
from inputs import Atlas

REFERENCE = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("census", "symmetric", "chains")

# symmetric: necklace(n) variants, and POOL random connected atlases per
# strip count (3 and 4 strips, <= 2 intervals per side, sub-seeds
# 0..POOL-1).  Every run uses all of them; the seed only relabels and orders.
NECKLACES = [(n, v) for n in (3, 4) for v in gen.NECKLACE_VARIANTS]
POOL = 32

# chains: (strips, free intervals below, above) and (beads, strips per bead,
# necklace parity variant); 120 to 240 strips each.  16 inputs, so that a
# pass has 112 operations and more than ten of them lie beyond p90.
LADDERS = [(120, 1, 1), (120, 2, 0), (130, 0, 2), (130, 1, 2), (140, 2, 1), (150, 0, 1), (160, 2, 2), (240, 1, 0)]
BEADED = [
    (3, 40, "inc"), (4, 30, "alt"), (3, 40, "one"), (4, 32, "inc"),
    (3, 45, "alt"), (4, 35, "one"), (3, 50, "inc"), (4, 40, "alt"),
]


def load_reference(name: str):
    return json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))


class Op(NamedTuple):
    group: str  # input the operation works on; traced numbers are kept per group
    call: tuple  # CLI argv, or (census index,)
    check: Callable[[int, str], bool] | None  # (exit code, stdout) -> correct


@dataclass
class Workload:
    name: str
    texts: list[str]  # every input, as handed to parse_atlas + validate
    files: dict[str, str]  # file name -> text, for the CLI workloads
    ops: list[Op]
    sizes: dict[str, dict]  # group -> strips, gluings, points (and count)
    classes: list[int] = field(default_factory=list)  # census reference

    def judge(self, outcomes: list) -> list[bool]:
        """One verdict per outcome; outcomes run over whole passes of ``ops``.

        An outcome is ``(exit code, stdout)`` for a CLI call, the key string
        for a census call, or the exception the call raised.
        """
        if self.name == "census":
            n = len(self.ops)
            return [
                ok
                for start in range(0, len(outcomes), n)
                for ok in census_partition(self.ops, outcomes[start : start + n], self.classes)
            ]
        return [
            not isinstance(out, Exception) and _safe(op.check, *out)
            for op, out in zip(self.ops * (len(outcomes) // len(self.ops)), outcomes)
        ]


def _safe(check, code: int, stdout: str) -> bool:
    try:
        return bool(check(code, stdout))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False  # unreadable output is a wrong answer


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "census":
        return _census(seed)
    if name == "symmetric":
        return _symmetric(seed, workdir)
    if name == "chains":
        return _chains(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# census: canonical_form on every atlas with <= 2 strips, <= 2 per side


def _census(seed: int) -> Workload:
    atlases = list(gen.census_family())
    classes = load_reference("census_classes")["classes"]
    if len(classes) != len(atlases) or len(set(classes)) != 1043:
        raise RuntimeError("census reference does not match the census family")
    groups, sizes = [], {}
    for atlas in atlases:
        s = atlas.sizes()
        group = "s{strips}-g{gluings}-p{points}".format(**s)
        sizes.setdefault(group, dict(s, count=0))["count"] += 1
        groups.append(group)
    order = list(range(len(atlases)))
    Random(seed).shuffle(order)
    return Workload(
        name="census",
        texts=[a.text() for a in atlases],
        files={},
        ops=[Op(groups[i], (i,), None) for i in order],
        sizes=sizes,
        classes=classes,
    )


def census_partition(ops: list[Op], keys: list, classes: list[int]) -> list[bool]:
    """Judge one pass by the partition into isomorphism classes, not by the
    key strings: a key is right when it is its class's most common key and
    no other class has that key."""
    by_class: dict[int, Counter] = {}
    for op, key in zip(ops, keys):
        if isinstance(key, str):
            by_class.setdefault(classes[op.call[0]], Counter())[key] += 1
    class_key = {c: min(cnt, key=lambda k: (-cnt[k], k)) for c, cnt in by_class.items()}
    owners = Counter(class_key.values())
    return [
        isinstance(key, str) and key == class_key[classes[op.call[0]]] and owners[key] == 1
        for op, key in zip(ops, keys)
    ]


# ---------------------------------------------------------------------------
# symmetric: aut, kernel, report, iso, selfcheck at the witness search's worst case


def _symmetric(seed: int, workdir: Path) -> Workload:
    rng = Random(seed)
    refs = load_reference("symmetric")
    bases = [(f"necklace{n}-{v}", gen.necklace(n, gen.NECKLACE_VARIANTS[v](n))) for n, v in NECKLACES]
    for strips in (3, 4):
        for k in range(POOL):
            bases.append((f"random{strips}-{k}", gen.random_connected_atlas(strips, k)))

    files, ops, sizes = {}, [], {}
    for name, base in bases:
        ref = refs[name]
        if ref["atlas"] != base.text():
            raise RuntimeError(f"generator drifted from the reference for {name}")
        if name.endswith("-inc") and ref["aut_count"] != 4 * len(base.strips):
            raise RuntimeError(f"{name}: the all-increasing necklace(n) has 4n automorphisms")
        atlas = gen.relabel(base, rng)
        copy = gen.random_isomorphic_copy(atlas, rng)
        path, copy_path = str(workdir / f"{name}.atlas"), str(workdir / f"{name}.iso.atlas")
        files[path], files[copy_path] = atlas.text(), copy.text()
        sizes[name] = base.sizes()
        ops += [
            Op(name, ("aut", path), _check_aut(atlas, ref["aut_count"])),
            Op(name, ("kernel", path), lambda c, o, k=ref["kernel"]: c == 0 and o.split()[0] == k),
            Op(name, ("report", path), _check_report(ref)),
            Op(name, ("selfcheck", path), _check_selfcheck),
            Op(name, ("iso", path, copy_path), _check_iso(atlas, copy)),
        ]
        if ref["neg_flip"] is not None:
            negative = gen.relabel(gen.flip_parity(base, ref["neg_flip"]), rng, "n")
            neg_path = str(workdir / f"{name}.neg.atlas")
            files[neg_path] = negative.text()
            ops.append(Op(name, ("iso", path, neg_path), lambda c, o: c == 0 and o.strip() == "NOT-ISOMORPHIC"))
    rng.shuffle(ops)
    return Workload("symmetric", list(files.values()), files, ops, sizes)


def _check_aut(atlas: Atlas, order: int):
    def check(code, out):
        found = [judge.parse_witness(line) for line in out.splitlines()]
        keys = {tuple(tuple(sorted(part.items())) for part in w) for w in found}
        return (
            code == 0
            and len(found) == len(keys) == order
            and all(judge.is_witness(atlas, atlas, w) for w in found)
        )

    return check


def _check_report(ref: dict):
    def check(code, out):
        kv = judge.key_values(out)
        return (
            code == 0
            and int(kv["autOrder"]) == ref["aut_order"]
            and kv["kernel"] == ref["kernel"]
            and int(kv["imageOrder"]) == ref["image_order"]
            and ("leafModelAutOrder" not in kv or int(kv["leafModelAutOrder"]) == ref["leaf_model_aut_order"])
        )

    return check


def _check_selfcheck(code, out):
    *checks, verdict = out.splitlines()
    return code == 0 and verdict == "SELFCHECK OK" and all(line.startswith("PASS ") for line in checks)


def _check_iso(src: Atlas, dst: Atlas):
    def check(code, out):
        head, _, witness = out.strip().partition(" ")
        return code == 0 and head == "ISOMORPHIC" and judge.is_witness(src, dst, judge.parse_witness(witness))

    return check


# ---------------------------------------------------------------------------
# chains: the seven structural subcommands on ladders and beaded necklaces


class _Expect:
    """Answers for one chain input, computed by the independent routes on
    first use, outside the timed loop."""

    def __init__(self, atlas: Atlas, reduced: Atlas, leaf_model_order: int):
        self.atlas, self.reduced, self.leaf_model_order = atlas, reduced, leaf_model_order

    @cached_property
    def points(self):
        return judge.leaf_points(self.atlas)

    @cached_property
    def closures(self):
        return judge.closures(self.atlas)

    @cached_property
    def kernel_label(self) -> str:
        return "Z2" if judge.reversal_fixes_points(self.reduced) else "TRIVIAL"

    @cached_property
    def aut_order(self) -> int:
        return judge.automorphism_count(self.reduced)

    def validate(self, code, out):
        return code == 0 and out.strip() == "OK"

    @cached_property
    def classes(self):
        return {("seam" if len(k) == 2 else "free", k, cls) for k, cls in judge.leaf_classes(self.atlas).items()}

    def classify(self, code, out):
        got = [line.split() for line in out.splitlines()]
        found = {(g[0], tuple(sorted(g[1:-1])), g[-1]) for g in got}
        return code == 0 and len(got) == len(self.classes) and found == self.classes

    def leafspace(self, code, out):
        arcs, points, hcl = set(), set(), {}
        for line in out.splitlines():
            kind, rest = line.split(" ", 1)
            if kind == "arc":
                sid, s0, s1 = rest.split()
                arcs.add((sid, int(s0.removeprefix("side0=")), int(s1.removeprefix("side1="))))
            elif kind == "point":
                label, point_kind, attach = rest.split()
                slots = attach.removeprefix("attach=").split(",")
                points.add(
                    (judge.labels(label)[0], point_kind.removeprefix("kind="), tuple(sorted(map(judge.parse_slot, slots))))
                )
            elif kind == "hcl":
                left, right = rest.split(" = ")
                hcl[judge.labels(left)[0]] = frozenset(judge.labels(right))
            else:
                return False
        want_points = {(k, "seam" if len(k) == 2 else "free", slots) for k, slots in self.points.items()}
        want_arcs = {(sid, len(s0), len(s1)) for sid, s0, s1 in self.atlas.strips}
        return code == 0 and arcs == want_arcs and points == want_points and hcl == self.closures

    def dual(self, code, out):
        kv = judge.key_values(out)
        strips, gluings = len(self.atlas.strips), len(self.atlas.gluings)
        return code == 0 and (int(kv["vertices"]), int(kv["edges"]), int(kv["euler"])) == (
            strips,
            gluings,
            strips - gluings,
        )

    def reduce(self, code, out):
        got = gen.parse(out)
        return code == 0 and judge.is_reduced(got) and judge.isomorphic(got, self.reduced)

    def kernel(self, code, out):
        return code == 0 and out.split()[0] == self.kernel_label

    def report(self, code, out):
        kv = judge.key_values(out)
        order = self.aut_order
        return (
            code == 0
            and int(kv["autOrder"]) == order
            and kv["kernel"] == self.kernel_label
            and int(kv["imageOrder"]) == order // (2 if self.kernel_label == "Z2" else 1)
            and ("leafModelAutOrder" not in kv or int(kv["leafModelAutOrder"]) == self.leaf_model_order)
        )


CHAIN_COMMANDS = ("validate", "classify", "leafspace", "dual", "reduce", "kernel", "report")


def chain_inputs(rng: Random) -> list[tuple[str, Atlas, Atlas]]:
    """(name, atlas, the reduced atlas it must reduce to) for every chain."""
    out = []
    for n, bottom, top in LADDERS:
        out.append((f"ladder{n}-{bottom}-{top}", gen.ladder(n, bottom, top, rng), gen.ladder_reduced(bottom, top)))
    for m, beads, variant in BEADED:
        atlas, reduced = gen.beaded_necklace(m, beads, gen.NECKLACE_VARIANTS[variant](m), rng)
        out.append((f"beaded{m}x{beads}-{variant}", atlas, reduced))
    return out


def _chains(seed: int, workdir: Path) -> Workload:
    rng = Random(seed)
    refs = load_reference("chains")
    files, ops, sizes = {}, [], {}
    for name, atlas, reduced in chain_inputs(rng):
        atlas = gen.relabel(atlas, rng)
        path = str(workdir / f"{name}.atlas")
        files[path] = atlas.text()
        sizes[name] = atlas.sizes()
        expect = _Expect(atlas, reduced, refs[name]["leaf_model_aut_order"])
        ops += [Op(name, (command, path), getattr(expect, command)) for command in CHAIN_COMMANDS]
    rng.shuffle(ops)
    return Workload("chains", list(files.values()), files, ops, sizes)
