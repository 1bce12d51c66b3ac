#!/usr/bin/env python3
"""End-to-end benchmark of the Atlas advisor: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-3site --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  ``--trace 1``
wraps each layer's public functions (``tracer.py``), records spans, writes them
and a per-layer self-time table under ``.bench_work/``, follows every traced
round with the same round untraced to prove the wrappers change no front and to
measure their overhead, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it describe the host, each
timed operation and the layer table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, for ``end_to_end`` and ``per_layer`` of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> object:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program and benchmark sources (a checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args: argparse.Namespace) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed Python + numpy loop: how fast this host ran at one moment.

    Not a metric; it is stamped on the result so that runs taken while the host
    was slower or faster can be told apart.
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((120, 120))
    times = []
    for _ in range(repeats + 1):  # the first pass warms up and is dropped
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        product = matrix
        for _ in range(60):
            product = product @ matrix
            product /= product.max()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setups(cls, args, tally, recorder):
    """Set the workload up ``cls.setup_repeats`` times from scratch; keep the last one."""
    times = []
    workload = None
    for repeat in range(cls.setup_repeats):
        if workload is not None:
            workload.close()
        gc.collect()
        workload = cls(args.seed, tally, WORKDIR, recorder)
        if recorder is not None:
            recorder.request = -1 - repeat
        start = time.perf_counter()
        with recorder.span("setup") if recorder is not None else nullcontext():
            workload.setup()
        times.append(time.perf_counter() - start)
    return workload, times


def run_rounds(seconds: float, workload, replay=None, recorder=None) -> int:
    """Closed loop: rounds until ``seconds`` have passed (at least one).

    In a traced run each traced round of ``workload`` is followed by the same
    round of ``replay`` with recording off, so both see the same host
    conditions and their fronts can be compared one to one.
    """
    deadline = time.perf_counter() + seconds
    done = 0
    while done == 0 or time.perf_counter() < deadline:
        done += 1
        gc.collect()
        if recorder is not None:
            recorder.enabled = True
        workload.run_round(done)
        if recorder is not None:
            recorder.enabled = False
        if replay is not None:
            gc.collect()
            replay.run_round(done)
    return done


def end_to_end_metrics(workload, setup_times) -> Dict[str, float]:
    from stats import summarize

    return {
        "setup_s": statistics.median(setup_times),
        "recommend_p50_s": summarize(workload.samples["recommend"])["p50"],
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(workload, recorder, rounds, overhead_s) -> Dict[str, float]:
    from stats import group_times, nested_time, percentile, supported_percentile

    spans = [span for span in recorder.spans if span.request >= 0]
    inclusive, own = group_times(spans)
    setup_inclusive, _ = group_times([span for span in recorder.spans if span.request < 0])
    counts = recorder.counts

    def t(name: str) -> float:  # inclusive seconds per round
        return inclusive.get(name, 0.0) / rounds

    def n(name: str) -> float:  # recorder count per round
        return counts.get(name, 0.0) / rounds

    def c(name: str) -> float:  # service counter per round
        return workload.counters.get(name, 0) / rounds

    def per_setup(name: str) -> float:
        return setup_inclusive.get(name, 0.0) / workload.setup_repeats

    def median_ms(kind: str) -> float:
        samples = workload.samples.get(kind)
        return 1e3 * statistics.median(samples) if samples else 0.0

    hits = [1e3 * s for s in workload.samples.get("hit", [])]
    hit_tail = supported_percentile(len(hits)) if hits else None
    knees = workload.knees
    sort_calls = counts.get("optimizer.sort.calls", 0.0)
    plans = counts.get("quality.score.plans", 0.0)
    train_scoring = nested_time(spans, "optimizer.drl_train", ["quality.score"])
    metrics = {
        "workload.generate_s": per_setup("workload.generate"),
        "simulator.simulate_s": per_setup("simulator.simulate"),
        "learning.learn_s": per_setup("learning.learn"),
        "optimizer.search_s": t("optimizer.search"),
        "optimizer.evaluations": n("optimizer.search.evaluations"),
        "optimizer.sort_s": t("optimizer.sort"),
        "optimizer.sort_calls": n("optimizer.sort.calls"),
        "optimizer.sort_n_mean": counts["optimizer.sort.n"] / sort_calls if sort_calls else 0.0,
        "optimizer.crowding_s": t("optimizer.crowding"),
        "optimizer.drl_train_s": t("optimizer.drl_train"),
        "optimizer.drl_train_self_s": t("optimizer.drl_train") - train_scoring / rounds,
        "optimizer.knee_qperf": statistics.median(k[0] for k in knees) if knees else 0.0,
        "optimizer.knee_qavai": statistics.median(k[1] for k in knees) if knees else 0.0,
        "optimizer.knee_qcost": statistics.median(k[2] for k in knees) if knees else 0.0,
        "quality.score_s": t("quality.score"),
        "quality.score_calls": n("quality.score.calls"),
        "quality.score_plans": plans / rounds,
        "quality.unique_ratio": counts.get("quality.score.unique", 0.0) / plans if plans else 0.0,
        "quality.qperf_s": t("quality.qperf"),
        "quality.qcost_s": t("quality.qcost"),
        "quality.qavai_s": t("quality.qavai"),
        "quality.constraints_s": t("quality.constraints"),
        "learning.aggregate_matrix_calls": n("learning.aggregate_matrix.calls"),
        "cluster.capacity_matrix_calls": n("cluster.capacity_matrix.calls"),
        "quality.certify_s": t("quality.certify"),
        "quality.certify_evals": n("quality.certify.evals"),
        "quality.certify_p50_ms": median_ms("certify"),
        "quality.cache_hits": c("cache_hits"),
        "quality.cache_misses": c("cache_misses"),
        "quality.cache_store_hits": c("cache_store_hits"),
        "recommend.memo_hits": c("memo_hits"),
        "recommend.memo_misses": c("memo_misses"),
        "recommend.journal_hits": c("journal_hits"),
        "recommend.journal_misses": c("journal_misses"),
        "recommend.build_evaluator_s": t("recommend.build_evaluator"),
        "recommend.hit_p50_ms": statistics.median(hits) if hits else 0.0,
        "recommend.hit_p99_ms": percentile(hits, 99.0) if hit_tail and hit_tail >= 99.0 else 0.0,
        "recommend.revive_p50_ms": median_ms("revive"),
        "serving.save_s": t("serving.save"),
        "serving.save_calls": n("serving.save.calls"),
        "serving.save_bytes": n("serving.save.bytes"),
        "serving.load_s": t("serving.load"),
        "serving.load_calls": n("serving.load.calls"),
        "serving.load_misses": n("serving.load.misses"),
        "serving.checkpoint_s": t("serving.checkpoint"),
        "serving.cycle_s": t("serving.cycle"),
        "serving.store_mb": getattr(workload, "store_bytes", 0) / 2**20,
        "monitoring.drift_check_s": t("monitoring.drift_check"),
        "trace.unattributed_s": sum(
            seconds for name, seconds in own.items() if name.startswith("request.")
        ) / rounds,
        "trace.overhead_s": overhead_s,
    }
    return metrics


def format_table(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'request':<18} {'layer':<28} {'calls/round':>12} {'self s/round':>13} {'share':>7}"]
    for row in rows:
        lines.append(
            f"{row['request']:<18} {row['layer']:<28} {row['calls_per_round']:>12.1f} "
            f"{row['self_s_per_round']:>13.4f} {100 * row['share']:>6.1f}%"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks" / "_shared.py"
    ).is_file():
        print(f"perfbench: no Atlas sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]

    from stats import Tally, layer_table, summarize
    from tracer import Recorder, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    declared = declared_metrics()
    info = stamp(args)
    probe_start = host_probe_ms()
    tally = Tally()
    recorder = None
    if args.trace:
        recorder = Recorder()
        instrument(recorder)
        recorder.enabled = True

    workload, setup_times = run_setups(cls, args, tally, recorder)
    replay = None
    if recorder is not None:
        recorder.enabled = False
        recorder.counts.clear()
        replay = cls(args.seed, tally, WORKDIR, None)
        replay.setup()
        replay.warmup()
    workload.warmup()
    try:
        rounds = run_rounds(args.seconds, workload, replay, recorder)
        if recorder is not None:
            recorder.enabled = True
        workload.finish()
    finally:
        if recorder is not None:
            recorder.enabled = False
        workload.close()
        if replay is not None:
            replay.close()

    info["host_probe_ms"] = [probe_start, host_probe_ms()]
    report: Dict[str, object] = {"stamp": info, "rounds": rounds, "setup_s": setup_times}
    report["operations"] = {kind: summarize(values) for kind, values in workload.samples.items()}
    report["samples_s"] = dict(workload.samples)
    if recorder is None:
        metrics = end_to_end_metrics(workload, setup_times)
        units = declared["end_to_end"]
    else:
        tally.check(
            replay.fronts == workload.fronts, "traced fronts differ from the untraced replay"
        )
        traced, untraced = workload.samples["recommend"], replay.samples["recommend"]
        overhead = statistics.median(t - u for t, u in zip(traced, untraced))
        metrics = per_layer_metrics(workload, recorder, rounds, overhead)
        units = declared["per_layer"]
        rows = layer_table([span for span in recorder.spans if span.request >= 0], rounds)
        report["layers"] = rows
        report["untraced_samples_s"] = dict(replay.samples)
        tag = f"{args.workload}-seed{args.seed}"
        recorder.dump(WORKDIR / f"spans-{tag}.json", info)
        (WORKDIR / f"layers-{tag}.txt").write_text(format_table(rows) + "\n")
        print(format_table(rows))

    report["metrics"] = metrics
    report["failures"] = tally.reasons[:20]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    result_path = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str))
    print("# stamp " + json.dumps(info))
    print("# operations " + json.dumps(report["operations"]))
    if tally.reasons:
        print("# failures " + json.dumps(tally.reasons[:20]))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
