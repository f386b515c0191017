"""Tests of the benchmark itself: python3 -m pytest -q perfbench

They check that the generators match the package's own corpus laws, that
the independent judging routes agree with the package's brute-force ones,
that a wrong answer is counted as a failure, and that the traced run
reports every per-layer metric named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
import judge  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import stripes  # noqa: E402
import stripes.cli  # noqa: E402
from stripes.corpus import exhaustive_family, random_connected_atlas  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _lib(atlas: gen.Atlas):
    return stripes.parse_atlas(atlas.text())


def test_census_family_is_the_exhaustive_family():
    mine = [a.text() for a in gen.census_family()]
    theirs = [stripes.serialize_atlas(a) for a in exhaustive_family(gen.CENSUS_MAX, gen.CENSUS_MAX)]
    assert mine == theirs and len(mine) == 16428
    classes = workloads.load_reference("census_classes")["classes"]
    assert len(classes) == len(mine) and len(set(classes)) == 1043


def test_random_law_is_the_corpus_law():
    for strips in (3, 4):
        for seed in range(workloads.POOL):
            ours = gen.random_connected_atlas(strips, seed).text()
            assert ours == stripes.serialize_atlas(random_connected_atlas(strips, gen.RANDOM_MAX_PER_SIDE, seed))


def test_own_witness_routes_agree_with_brute_force():
    rng = Random(7)
    for k, atlas in enumerate(gen.census_family()):
        if k % 29 or not gen.is_connected(atlas):
            continue
        assert judge.automorphism_count(atlas) == len(stripes.enumerate_automorphisms(_lib(atlas)))
        copy = gen.random_isomorphic_copy(atlas, rng)
        assert judge.isomorphic(atlas, copy)
        if atlas.gluings:
            flipped = gen.flip_parity(atlas, 0)
            assert judge.isomorphic(atlas, flipped) == (stripes.isomorphic(_lib(atlas), _lib(flipped)) is not None)
    for n in (3, 4):
        assert judge.automorphism_count(gen.necklace(n, gen.NECKLACE_VARIANTS["inc"](n))) == 4 * n


def test_recorded_symmetric_references_agree_with_own_routes():
    for name, ref in workloads.load_reference("symmetric").items():
        atlas = gen.parse(ref["atlas"])
        assert judge.automorphism_count(atlas) == ref["aut_count"], name
        if ref["neg_flip"] is not None:
            assert not judge.isomorphic(atlas, gen.flip_parity(atlas, ref["neg_flip"])), name


@pytest.mark.parametrize("seed", range(4))
def test_chain_expectations_match_the_package(seed):
    rng = Random(seed)
    cases = [(gen.ladder(9, seed % 3, 2, rng), gen.ladder_reduced(seed % 3, 2))]
    m = 3 + seed % 2
    cases.append(gen.beaded_necklace(m, 4, gen.NECKLACE_VARIANTS["alt"](m), rng))
    for atlas, reduced in cases:
        outcome = stripes.reduce_component(_lib(atlas))
        got = gen.parse(stripes.serialize_atlas(outcome.atlas))
        assert judge.isomorphic(got, reduced) and judge.is_reduced(got)
        kernel = stripes.leaf_action_kernel(_lib(atlas)).label()
        assert kernel == ("Z2" if judge.reversal_fixes_points(reduced) else "TRIVIAL")
        assert stripes.homeotopy_report(_lib(atlas)).aut_order == judge.automorphism_count(reduced)


def _small_symmetric(tmp_path):
    wl = workloads.build("symmetric", 3, tmp_path)
    for path, text in wl.files.items():
        Path(path).write_text(text, encoding="utf-8")
    wl.ops = [op for op in wl.ops if op.group.startswith("random3")]
    return wl


def _cli_outcomes(wl):
    call = run.cli_call(stripes.cli.main)
    return [call(list(op.call)) for op in wl.ops]


def test_correct_answers_pass(tmp_path):
    wl = _small_symmetric(tmp_path)
    assert all(wl.judge(_cli_outcomes(wl)))


def test_wrong_answers_count_as_failures(tmp_path, monkeypatch):
    wl = _small_symmetric(tmp_path)
    real_report, real_iso = stripes.cli.homeotopy_report, stripes.cli.isomorphic

    def wrong_report(atlas):
        report = real_report(atlas)
        return replace(report, aut_order=report.aut_order + 1)

    def wrong_iso(a, b):
        # Keeps every strip in place, which never fits the renamed copy.
        witness = real_iso(a, b)
        if witness is None:
            return None
        strip_map, side_flip, reversal = witness
        return {s: s for s in strip_map}, side_flip, reversal

    monkeypatch.setattr(stripes.cli, "homeotopy_report", wrong_report)
    monkeypatch.setattr(stripes.cli, "isomorphic", wrong_iso)
    verdicts = wl.judge(_cli_outcomes(wl))
    for op, ok in zip(wl.ops, verdicts):
        wrong = op.call[0] == "report" or (op.call[0] == "iso" and "iso.atlas" in op.call[2])
        assert ok is not wrong, op.call

    outcomes = _cli_outcomes(wl)
    outcomes[0] = RuntimeError("boom")
    outcomes[1] = (1, outcomes[1][1])
    assert wl.judge(outcomes)[:2] == [False, False]


def test_census_judge_uses_the_partition():
    wl = workloads.build("census", 5, Path("."))
    keys = [f"class{wl.classes[op.call[0]]}" for op in wl.ops]
    assert all(wl.judge(keys))
    merged = ["class0" if k == "class1" else k for k in keys]
    verdicts = wl.judge(merged)
    assert verdicts.count(False) == sum(1 for op in wl.ops if wl.classes[op.call[0]] in (0, 1))
    sizes = Counter(wl.classes)
    split = list(keys)
    split[next(i for i, op in enumerate(wl.ops) if sizes[wl.classes[op.call[0]]] >= 3)] = "odd one"
    assert wl.judge(split).count(False) == 1


def test_tracer_reports_every_per_layer_metric(tmp_path):
    wl = _small_symmetric(tmp_path)
    wl.ops = wl.ops[:12]
    tracer = tracing.Tracer()
    original = stripes.cli.main
    tracer.install()
    try:
        assert stripes.cli.main is not original
        call = run.cli_call(stripes.cli.main)
        for op in wl.ops:
            tracer.group = op.group
            call(list(op.call))
    finally:
        tracer.uninstall()
    assert stripes.cli.main is original
    names = set(tracing.layer_metrics(tracer, 1)) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["cli.self_ms"] > 0 and metrics["atlas.witness.candidates"] > 0


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.delattr(stripes.atlas, "is_valid_witness")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["atlas.is_valid_witness"]


def test_times_are_scaled_to_reference_speed():
    ref = run.REFERENCE_S
    assert run.scaled(2.0, ref, ref) == 2.0
    assert run.scaled(2.0, 2 * ref, 2 * ref) == 1.0  # a host half as fast
    assert run.scaled(2.0, ref, 3 * ref) == 1.0  # the blocks before and after
    assert run.reference_block(0) > 0  # runs the reference at least once


def test_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "symmetric", "--seed", "4", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["metrics"]["success_rate"]["value"] == 1.0
    assert result["attempted"] >= 100


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
