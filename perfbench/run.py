#!/usr/bin/env python3
"""Seeded benchmark of the qaoadepth compiler and its oracles.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload graph-large --seed 1 --seconds 20 --trace 0

One client in one process runs a closed loop: each operation is one
in-process call of ``qaoadepth.cli.main`` (``analyze`` or ``verify``) on an
input file written during set-up, started after the previous one returned.
Passes over the workload's operations, each after fresh set-ups, repeat
while another pass still fits in ``--seconds`` (at least three times).  The
benchmark's reference loop (``benchref``) is timed before every operation
and after the last; an operation's latency in the unit ``ref`` is its time
over the reference times around it, and the median of its repeats.  Every
artifact is checked by ``benchcheck`` (which shares no code with the
program) and must repeat byte for byte in every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is one JSON object; a per-operation record goes
to ``.perfbench/results/`` in the checkout.  Exits non-zero without a
result if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import benchcheck
import benchref
import benchtrace
import benchwork

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
MODULES = ("cli", "pipeline", "io", "problems", "hypergraph", "coloring", "poly")
#: Every run makes at least this many passes, so artifacts can be compared.
MIN_PASSES = 3
#: Set-ups (import included) before each pass; setup_s is the median of all of them.
SETUPS_PER_PASS = 3
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 70, 60, 50)


def import_program() -> dict:
    """Import the qaoadepth modules afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "qaoadepth" or m.startswith("qaoadepth.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"qaoadepth.{name}") for name in MODULES}


def set_up(workload: str, seed: int, directory: Path, modules: dict) -> list[benchwork.Op]:
    inputs = benchwork.Inputs(directory, modules["problems"], modules["io"])
    benchwork.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), inputs)
    return inputs.ops


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Outcome:
    """What one execution of an operation returned."""

    def __init__(self, code, artifact: bytes | None, latency_ns: int, stderr: str = "", error: str = ""):
        self.code = code
        self.artifact = artifact
        self.latency_ns = latency_ns
        self.stderr = stderr
        self.error = error
        self.digest = hashlib.sha256(artifact).hexdigest() if artifact is not None else None


def execute(cli, op: benchwork.Op, out: Path) -> Outcome:
    out.unlink(missing_ok=True)
    gc.collect()
    argv = [*op.argv, "--out", out.name]
    messages = io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stderr(messages):
            code = cli.main(argv)
    except Exception as exc:  # counted as a failed operation, never fatal
        latency = time.perf_counter_ns() - start
        trace = "".join(traceback.format_exception(exc, limit=-3)).strip()
        return Outcome(None, None, latency, messages.getvalue(), trace)
    latency = time.perf_counter_ns() - start
    return Outcome(code, out.read_bytes() if out.exists() else None, latency, messages.getvalue())


def judge(op: benchwork.Op, outcome: Outcome) -> dict:
    """Check one artifact; returns the per-operation record."""
    record = {"family": op.family, "size": op.size, "kind": op.kind, "argv": list(op.argv),
              "code": outcome.code, "stderr": outcome.stderr, "digest": outcome.digest,
              "failure": outcome.error}
    if outcome.error:
        return record
    searching = "--method" in op.argv
    if outcome.code == 4 and outcome.artifact is None and searching:
        record.update(budget_exceeded=True, certified=False)
        return record
    if outcome.code not in (0, 4) or outcome.artifact is None:
        record["failure"] = f"exit code {outcome.code} without the expected artifact"
        return record
    record["budget_exceeded"] = outcome.code == 4
    record["artifact_bytes"] = len(outcome.artifact)
    try:
        record.update(read_artifact(op, json.loads(outcome.artifact)))
    except (benchcheck.CheckError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        record["failure"] = f"checker: {type(exc).__name__}: {exc}"
    return record


def read_artifact(op: benchwork.Op, artifact: dict) -> dict:
    """The verdicts of a verify artifact, or the checked depth and coloring of an analyze one."""
    if op.kind == "verify":
        penalty, phase = benchcheck.verify_verdicts(artifact)
        found = {"penalty_passed": penalty, "phase_passed": phase}
        if not phase:
            found["failure"] = "phase oracle FAIL"
        elif not penalty and op.known_defect is None:
            found["failure"] = "penalty oracle FAIL"
        elif not penalty:
            found["known_defect"] = op.known_defect
        return found
    benchcheck.check_analyze(artifact)
    fb = artifact["depth"]["family_bound"]
    return {
        "depth": artifact["depth"]["structural_depth"],
        "colors": artifact["coloring"]["num_colors"],
        "lower_bound": artifact["coloring"]["lower_bound"],
        "certified": benchcheck.certified(artifact),
        "family_mismatch": fb is not None and fb["matches_structural"] is False,
    }


def depth_twin(op: benchwork.Op, record: dict) -> benchwork.Op | None:
    """The untimed ``analyze`` that gives an operation's depth when its own run does not."""
    if op.kind == "verify":
        # verify prints no schedule: analyze the same instance.
        return replace(op, kind="analyze", argv=("analyze", *op.argv[1:]))
    if record.get("budget_exceeded") and "depth" not in record:
        # An exact search out of budget writes no artifact.  The program's
        # documented fallback, subset absorption plus greedy coloring, is also
        # the search's incumbent: a search that finishes can only match or beat it.
        argv = list(op.argv)
        argv[argv.index("--method") + 1] = "greedy"
        return replace(op, argv=tuple(argv))
    return None


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    percentile = next(
        (p for p in TAIL_PERCENTILES if len(samples) * (100 - p) / 100 >= 10), TAIL_PERCENTILES[-1]
    )
    ordered = sorted(samples)
    rank = max(0, -(-len(ordered) * percentile // 100) - 1)
    return percentile, ordered[rank]


def run(args) -> dict:
    if not (ROOT / "src" / "qaoadepth" / "__init__.py").is_file():
        raise SystemExit(f"error: no qaoadepth sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = benchtrace.Tracer() if args.trace else None
    try:
        return measure(args, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, tracer) -> dict:
    failures: list[str] = []
    attempted = failed = 0

    setup_times, setup_scaled, setup_layers, digests = [], [], [], set()
    records: list[dict | None] = []
    pass_layers: list[dict] = []
    latencies: dict[bool, list[list[float]]] = {}
    scaled: dict[bool, list[list[float]]] = {}
    directory = None
    started = time.perf_counter()
    passes = 0
    pass_s = 0.0
    # A pass starts only if one more as long as the last still ends in time.
    while passes < MIN_PASSES or time.perf_counter() - started + pass_s <= args.seconds:
        pass_started = time.perf_counter()
        traced = tracer is not None and passes % 2 == 1
        # Every pass starts from fresh set-ups, import included, so that the
        # set-up repeats spread over the run as the operations do.  The pass
        # runs on the last of them.
        for _ in range(SETUPS_PER_PASS):
            previous, directory = directory, work / f"setup{len(setup_times)}"
            before = benchref.time_reference()
            start = time.perf_counter()
            modules = import_program()
            import_s = time.perf_counter() - start
            if traced:
                tracer.spans = []
                tracer.install(modules)
            start = time.perf_counter()
            ops = set_up(args.workload, args.seed, directory, modules)
            seconds = import_s + time.perf_counter() - start
            setup_times.append(seconds)
            setup_scaled.append(seconds / ((before + benchref.time_reference()) / 2))
            if traced:
                tracer.uninstall()
                setup_layers.append(benchtrace.layer_metrics(tracer.spans)["problems.generate_s"])
            digests.add((tree_digest(directory), tuple(ops)))
            os.chdir(directory)
            if previous is not None:
                shutil.rmtree(previous)
        if passes == 0:
            records = [None] * len(ops)
            latencies = {False: [[] for _ in ops], True: [[] for _ in ops]}
            scaled = {False: [[] for _ in ops], True: [[] for _ in ops]}
        if traced:
            tracer.spans = []
            tracer.install(modules)
        cli = modules["cli"]
        out = directory / "artifact.json"

        refs = [benchref.time_reference()]
        pass_ms = []
        for index, op in enumerate(ops):
            if traced:
                tracer.op = index
            outcome = execute(cli, op, out)
            refs.append(benchref.time_reference())
            attempted += 1
            pass_ms.append(outcome.latency_ns / 1e6)
            if records[index] is None:
                records[index] = judge(op, outcome)
                bad = records[index]["failure"]
            elif outcome.digest != records[index]["digest"]:
                bad = "artifact differs from the first pass" + (" (traced)" if traced else "")
            else:
                bad = outcome.error
            if bad:
                failed += 1
                failures.append(f"op {index} ({op.family} {op.size}): {bad}")
        for index, (ms, scale) in enumerate(zip(pass_ms, benchref.scales(refs))):
            latencies[traced][index].append(ms)
            scaled[traced][index].append(ms / 1e3 / scale)
        if traced:
            tracer.uninstall()
            tracer.op = None
            pass_layers.append(benchtrace.layer_metrics(tracer.spans))
        passes += 1
        pass_s = time.perf_counter() - pass_started
    if len(digests) != 1:
        failed += 1
        failures.append("set-up wrote different inputs for the same seed")

    # Every operation reports a depth, so depth_total sums over the same set
    # whichever searches finish within their budget.
    for index, op in enumerate(ops):
        twin = depth_twin(op, records[index])
        if twin is None:
            continue
        outcome = execute(cli, twin, out)
        attempted += 1
        found = judge(twin, outcome)
        if found["failure"]:
            failed += 1
            failures.append(f"op {index} untimed {' '.join(twin.argv)}: {found['failure']}")
        for key in ("depth", "colors", "lower_bound", "family_mismatch"):
            if key in found:
                records[index][key] = found[key]
        if op.kind == "verify":
            records[index]["certified"] = found.get("certified", False)
        else:
            records[index]["depth_from"] = "greedy fallback"
    # An operation's latency is the median of its untraced repeats, each in
    # units of the reference loop timed around it (see benchref).
    op_ref = [statistics.median(samples) for samples in scaled[False]]
    op_ms = [statistics.median(samples) for samples in latencies[False]]
    for record, ref, ms in zip(records, op_ref, op_ms):
        record["latency_ref"] = ref
        record["latency_ms"] = ms
    known = sum(1 for r in records if r.get("known_defect"))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "setups_s": setup_times,
        "ops_per_pass": len(ops),
        "artifact_digest": hashlib.sha256(
            "".join(r["digest"] or "-" for r in records).encode()
        ).hexdigest(),
        "failures": failures,
        "known_defects": known,
        # a known-defect verdict repeats in every pass, like the artifact
        "fail_share": (failed + known * passes) / attempted,
        "records": records,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
    }
    result["wall_s"] = sum(op_ms) / 1e3
    if tracer is None:
        percentile, tail_ref = tail(op_ref)
        result["tail_percentile"] = percentile
        result["tail_samples"] = len(op_ref)
        result["metrics"] = {
            "setup_s": (statistics.median(setup_scaled) * benchref.REFERENCE_S, "s"),
            "wall_ref": (sum(op_ref), "ref"),
            "op_p50_ref": (statistics.median(op_ref), "ref"),
            "op_tail_ref": (tail_ref, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "depth_total": (sum(r.get("depth", 0) for r in records), "layers"),
            "certified_share": (sum(bool(r.get("certified")) for r in records) / len(records), "ratio"),
        }
    else:
        result["metrics"] = per_layer(pass_layers, setup_layers, records)
        traced_ref = [statistics.median(samples) for samples in scaled[True]]
        result["metrics"]["trace.overhead_ref"] = (sum(traced_ref) - sum(op_ref), "ref")
        result["metrics"]["fail_share"] = (result["fail_share"], "ratio")
    return result


def per_layer(pass_layers, setup_layers, records) -> dict:
    """Per-layer metrics: span medians over traced passes plus counts from the artifacts."""
    layers = {name: statistics.median(p[name] for p in pass_layers) for name in pass_layers[0]}
    layers["problems.generate_s"] = statistics.median(setup_layers)
    metrics = {
        name: (value, "s" if "self_s" in name or name.endswith("_s") else "count")
        for name, value in layers.items()
    }
    metrics["poly.cube_min.interval_share"] = (layers["poly.cube_min.interval_share"], "ratio")
    metrics["io.artifact_bytes"] = (sum(r.get("artifact_bytes", 0) for r in records), "bytes")
    metrics["coloring.budget_exceeded"] = (sum(bool(r.get("budget_exceeded")) for r in records), "count")
    metrics["coloring.certified"] = (sum(bool(r.get("certified")) for r in records), "count")
    metrics["coloring.gap"] = (
        sum(r["colors"] - r["lower_bound"] for r in records if "colors" in r), "count"
    )
    metrics["schedule.family_mismatch"] = (sum(bool(r.get("family_mismatch")) for r in records), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchwork.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args)
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {result['passes']} passes of "
          f"{result['ops_per_pass']} operations, artifact digest {result['artifact_digest'][:16]}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"fail_share {result['fail_share']:.4f} ratio "
          f"({result['failed']} failed, {result['known_defects']} known-defect verdicts, "
          f"{result['attempted']} attempted)")
    print(f"one pass took {result['wall_s']:.4g} s of operations (the median repeat of each) "
          f"and a set-up {statistics.median(result['setups_s']):.4g} s: not metrics, "
          "as they move with the machine")
    if "tail_percentile" in result:
        print(f"op_tail_ref is p{result['tail_percentile']} of {result['tail_samples']} operations, "
              "each at its median repeat")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
