"""Benchmark of the ``stripes`` package: one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

It imports ``stripes`` from ``src/`` (nothing is installed), sets up the
workload's inputs, then runs whole passes over them as a closed loop with
one client and one thread until ``--seconds`` of timed work are done.  CLI
workloads call ``stripes.cli.main(argv)`` in-process with stdout captured.
Every answer is judged, untimed, when its pass ends.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record (environment, input sizes, per-input
traced numbers) goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-ups per run: SETUPS_PER_PASS before each pass until there are SETUPS,
# so the samples spread over the run like the operations do, and any still
# missing after the last pass.  The count is fixed because the modules each
# set-up imports stay reachable after the next one drops them (about 1 MB a
# set-up), which peak_rss_mb would otherwise track with the pass count.
SETUPS, SETUPS_PER_PASS = 9, 3
# Latency samples a run needs, so that at least ten lie beyond p90.
MIN_SAMPLES = 100

# Host speed.  On the 2-core host this was built on, the speed one thread
# gets swings by up to 1.6x from one millisecond to the next and drifts
# over seconds and minutes (README, Noise).  So every timed stretch is bracketed by blocks of a fixed piece of
# interpreter work, REFERENCE, and each time is reported as it would be on a
# host where one REFERENCE takes REFERENCE_S: raw time x REFERENCE_S / the
# mean REFERENCE time of the blocks just before and just after it.  A block
# runs at least one REFERENCE and lasts about REFERENCE_SHARE of the stretch
# it follows, so long operations get a longer look at the host.
REFERENCE_S = 35e-6
REFERENCE_SHARE = 0.1
_TABLE = list(range(64))
_MAP = {i: 3 * i for i in range(64)}


def reference() -> int:
    """The fixed work: loads, lookups and integer arithmetic that allocate
    no container, so it neither triggers nor feels the collector."""
    total = 0
    for i in range(300):
        total += _MAP[_TABLE[i & 63]] * (i % 7)
    return total


def reference_block(budget: float) -> float:
    """Run REFERENCE until ``budget`` seconds are spent, at least once;
    returns its mean time."""
    clock, spent, runs = time.perf_counter, 0.0, 0
    while True:
        t0 = clock()
        reference()
        spent += clock() - t0
        runs += 1
        if spent >= budget:
            return spent / runs


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` seconds at reference speed, from the blocks around it."""
    return raw * REFERENCE_S / ((before + after) / 2)


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_stripes(keep: frozenset[str]):
    """Import ``stripes`` afresh from ``src/`` and return it with its CLI.

    Every module imported since ``keep`` was taken is dropped first, the
    standard library ones the package pulls in too, so each set-up pays the
    package's whole import."""
    for name in set(sys.modules) - keep:
        del sys.modules[name]
    package = importlib.import_module("stripes")
    cli = importlib.import_module("stripes.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported stripes from {package.__file__}, not from src/")
    return package, cli


def cli_call(main):
    """One CLI operation in-process: its exit code and captured stdout."""

    def call(argv):
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, stdout.getvalue()

    return call


class Bench:
    """One workload in this process: its set-ups and passes."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.wl = None
        self.keep = frozenset(sys.modules)  # what is loaded before any set-up

    def set_up(self) -> tuple[float, float]:
        """Import the package, generate the corpus and run parse_atlas +
        validate on every text; returns the time taken, raw and at
        reference speed.  The CLI workloads' files are written after."""
        self.wl = self.stripes = self.cli = None
        gc.unfreeze()
        gc.collect()  # every set-up starts from the same collector state
        before = reference_block(0.02)
        start = time.perf_counter()
        stripes, cli = import_stripes(self.keep)
        wl = workloads.build(self.workload, self.seed, self.workdir)
        problems = [p for text in wl.texts for p in stripes.validate(stripes.parse_atlas(text))]
        elapsed = time.perf_counter() - start
        after = reference_block(REFERENCE_SHARE * elapsed)
        # Untimed: writing some hundred small files takes 7-40 ms here,
        # set by the file system rather than by the package.
        for path, text in wl.files.items():
            Path(path).write_text(text, encoding="utf-8")
        if problems:
            raise SetupError(f"generated input fails validate: {problems[0]}")
        self.stripes, self.cli, self.wl = stripes, cli, wl
        return elapsed, scaled(elapsed, before, after)

    def call(self):
        """(argument, call): ``argument(op)`` is made untimed just before the
        operation, ``call(argument)`` is the timed operation.  Functions are
        looked up now, so wrappers installed by a tracer are the ones called."""
        if self.wl.name == "census":
            # Each atlas is parsed just before its operation, so the timed
            # call works on fresh objects, as a caller's would, and the run
            # holds only the texts.
            parse, texts = self.stripes.parse_atlas, self.wl.texts
            return (lambda op: parse(texts[op.call[0]])), self.stripes.canonical_form
        return (lambda op: list(op.call)), cli_call(self.cli.main)

    def passes(self, seconds: float):
        """Whole passes until ``seconds`` of timed work and MIN_SAMPLES
        operations, and SETUPS fresh set-ups spread over them.  Each pass
        is judged, untimed, as soon as it ends, and nothing of it but its
        verdicts and latencies outlives it, so what the run holds does not
        grow with the run.
        Returns (passes, verdicts, raw latencies, latencies at reference
        speed, set-up times as (raw, at reference speed))."""
        verdicts, latencies, latencies_ref, setups = [], array("d"), array("d"), []
        done = 0
        while sum(latencies) < seconds or len(latencies) < MIN_SAMPLES:
            if len(setups) < SETUPS:
                setups += [self.set_up() for _ in range(SETUPS_PER_PASS)]
            pass_verdicts, pass_latencies, pass_latencies_ref = self._one_pass()
            verdicts += pass_verdicts
            latencies.extend(pass_latencies)
            latencies_ref.extend(pass_latencies_ref)
            done += 1
        setups += [self.set_up() for _ in range(SETUPS - len(setups))]
        return done, verdicts, latencies, latencies_ref, setups

    def _one_pass(self, tracer=None):
        argument, call = self.call()
        # What the benchmark holds is moved out of the collector's reach, so
        # collections in the loop scan only what the package allocates.
        gc.collect()
        gc.freeze()
        outcomes, latencies, blocks = [], [], [reference_block(0)]
        for op in self.wl.ops:
            if tracer is not None:
                tracer.group = "prepare"  # not part of any metric
            arg = argument(op)
            if tracer is not None:
                tracer.group = op.group
            t0 = time.perf_counter()
            try:
                outcome = call(arg)
            except (Exception, SystemExit) as exc:
                outcome = exc
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            blocks.append(reference_block(REFERENCE_SHARE * latencies[-1]))
        latencies_ref = [scaled(t, *blocks[i : i + 2]) for i, t in enumerate(latencies)]
        return self.wl.judge(outcomes), latencies, latencies_ref


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("hit_rate", "ratio")):
        return "ratio"
    return "count"


def timings(latencies, setups) -> dict:
    lat_ms = [1000.0 * s for s in latencies]
    return {
        "throughput_ops_s": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[list[bool], dict, dict]:
    """Timings at reference speed; the raw ones go to the record."""
    passes, verdicts, latencies, latencies_ref, setups = bench.passes(seconds)
    metrics = timings(latencies_ref, [ref for _, ref in setups])
    metrics.update(
        success_rate=metric(sum(verdicts) / len(verdicts), "ratio"),
        peak_rss_mb=metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    )
    record = {
        "timed_s": sum(latencies),
        "passes": passes,
        "ops": len(verdicts),
        "setup_s": setups,
        "raw": timings(latencies, [raw for raw, _ in setups]),
    }
    return verdicts, metrics, record


def traced(bench: Bench) -> tuple[list[bool], dict, dict]:
    """One untraced pass, then the same pass traced; the per-layer numbers
    cover one traced set-up parse plus that pass."""
    bench.set_up()
    verdicts, latencies, _ = bench._one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for text in bench.wl.texts:  # group "setup"
            bench.stripes.validate(bench.stripes.parse_atlas(text))
        traced_verdicts, traced_latencies, _ = bench._one_pass(tracer)
    finally:
        tracer.uninstall()
    verdicts += traced_verdicts
    metrics = {name: metric(v, unit_of(name)) for name, v in tracing.layer_metrics(tracer, 1).items()}
    metrics["trace.overhead_ratio"] = metric(sum(traced_latencies) / sum(latencies), "ratio")
    if tracer.absent:
        print("perfbench: not in this version, counted as 0: " + ", ".join(tracer.absent))
    record = {
        "timed_s": sum(latencies),
        "traced_s": sum(traced_latencies),
        "passes": 1,
        "ops": len(verdicts),
        "absent": tracer.absent,
        "setup_group": tracer.numbers("setup"),
        "groups": {
            group: {"sizes": sizes, "per_pass": tracer.numbers(group)}
            for group, sizes in sorted(bench.wl.sizes.items())
        },
    }
    return verdicts, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    if not (SRC / "stripes" / "__init__.py").is_file():
        print(f"perfbench: no stripes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, workdir)
    try:
        verdicts, metrics, record = traced(bench) if args.trace else end_to_end(bench, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(verdicts) - sum(verdicts)
    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed, "metrics": metrics}
    record.update(
        workload=args.workload,
        seed=args.seed,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        loadavg_at_start=load_at_start,
        sizes=bench.wl.sizes,
        result=result,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
