"""Record the reference answers in ``reference/`` from the brute-force routes.

Run once from the repository root, against a commit whose answers are
trusted::

    python3 perfbench/record_references.py

It takes about half a minute.  The census partition comes from
``canonical_form``; the symmetric answers from ``homeotopy_report``,
``isomorphic`` and ``selfcheck``; the chains only need the leaf-model
count, which ignores gluing parities.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
import workloads  # noqa: E402
from stripes import (  # noqa: E402
    canonical_form,
    enumerate_automorphisms,
    homeotopy_report,
    isomorphic,
    parse_atlas,
    validate,
)
from stripes.selfcheck import selfcheck  # noqa: E402


def _parsed(atlas: gen.Atlas):
    parsed = parse_atlas(atlas.text())
    if validate(parsed):
        raise RuntimeError(f"generated atlas is invalid: {atlas}")
    return parsed


def census() -> dict:
    first_seen: dict[str, int] = {}
    classes = [
        first_seen.setdefault(canonical_form(_parsed(a)), len(first_seen)) for a in gen.census_family()
    ]
    return {"count": len(classes), "class_count": len(first_seen), "classes": classes}


def symmetric() -> dict:
    bases = [(f"necklace{n}-{v}", gen.necklace(n, gen.NECKLACE_VARIANTS[v](n))) for n, v in workloads.NECKLACES]
    bases += [
        (f"random{strips}-{k}", gen.random_connected_atlas(strips, k))
        for strips in (3, 4)
        for k in range(workloads.POOL)
    ]
    out = {}
    for name, base in bases:
        parsed = _parsed(base)
        report = homeotopy_report(parsed)
        neg_flip = next(
            (i for i in range(len(base.gluings)) if isomorphic(parsed, _parsed(gen.flip_parity(base, i))) is None),
            None,
        )
        if not selfcheck(parsed).ok:
            raise RuntimeError(f"selfcheck fails on {name}")
        out[name] = {
            "atlas": base.text(),
            "aut_count": len(enumerate_automorphisms(parsed)),
            "aut_order": report.aut_order,
            "kernel": report.kernel.label(),
            "image_order": report.image_order,
            "leaf_model_aut_order": report.leaf_model_aut_order,
            "neg_flip": neg_flip,
        }
    return out


def chains() -> dict:
    return {
        name: {"leaf_model_aut_order": homeotopy_report(_parsed(reduced)).leaf_model_aut_order}
        for name, _, reduced in workloads.chain_inputs(Random(0))
    }


def main() -> None:
    (HERE / "reference").mkdir(exist_ok=True)
    for name, make in (("census_classes", census), ("symmetric", symmetric), ("chains", chains)):
        data = make()
        text = json.dumps(data, separators=(",", ":")) if name == "census_classes" else json.dumps(data, indent=1)
        (HERE / "reference" / f"{name}.json").write_text(text + "\n", encoding="utf-8")
        print(f"wrote reference/{name}.json")


if __name__ == "__main__":
    main()
