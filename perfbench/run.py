"""Benchmark of the bound sweeps, link simulation and serving paths.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analytic-bounds --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with layer wrappers installed on every second round (for
``serve-mixed``: on a second daemon) and reports per-layer self times and
counts, the uncovered remainder and the tracing overhead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the run record.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    WORK,
    emit,
    emit_json,
    git_rev,
    host_fingerprint,
    median,
    require_source,
    scratch_root,
    tail_percentile,
    timed_launches,
)

WORKLOADS = ("analytic-bounds", "link-clean", "link-traffic", "link-deepfade-is", "serve-mixed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cached_cells_per_s": "1/s",
    "requests_per_s": "1/s",
    "cold_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> span name whose self time it reports (per traced round).
SELF_TIMES = {
    "scenarios.lower_s": "scenarios.lower",
    "campaign.spec.sample_s": "campaign.spec.sample",
    "campaign.kernel.s": "campaign.kernel",
    "campaign.engine.self_s": "campaign.engine",
    "campaign.executors.self_s": "campaign.executors",
    "campaign.cache.store_s": "campaign.cache.store",
    "campaign.cache.load_s": "campaign.cache.load",
    "simulation.montecarlo.self_s": "simulation.montecarlo",
    "simulation.engine.self_s": "simulation.engine",
    "simulation.convolutional.decode_s": "simulation.convolutional.decode",
    "simulation.convolutional.encode_s": "simulation.convolutional.encode",
    "simulation.linkcodec.demodulate_s": "simulation.linkcodec.demodulate",
    "simulation.linkcodec.self_s": "simulation.linkcodec",
    "simulation.crc.s": "simulation.crc",
    "channels.halfduplex.s": "channels.halfduplex",
    "simulation.relay.sic_s": "simulation.relay.sic",
    "simulation.sampling.twist_s": "simulation.sampling.twist",
    "simulation.sampling.weights_s": "simulation.sampling.weights",
    "traffic.self_s": "traffic",
    "serve.protocol.encode_s": "serve.protocol.encode",
    "serve.protocol.decode_s": "serve.protocol.decode",
}

#: Per-layer counters (per traced round), as the wrappers name them.
COUNTS = (
    ("campaign.kernel.calls", "count"),
    ("campaign.kernel.cells", "count"),
    ("campaign.engine.chunks", "count"),
    ("campaign.engine.chunk_retries", "count"),
    ("campaign.executors.batches", "count"),
    ("campaign.cache.bytes_written", "bytes"),
    ("campaign.cache.bytes_read", "bytes"),
    ("campaign.cache.hits", "count"),
    ("campaign.cache.misses", "count"),
    ("simulation.engine.waves", "count"),
    ("simulation.engine.rows", "count"),
    ("simulation.montecarlo.unresolved_cells", "count"),
    ("simulation.convolutional.decode_rows", "count"),
    ("simulation.crc.frames_checked", "count"),
    ("simulation.crc.frames_failed", "count"),
    ("traffic.frames", "count"),
    ("traffic.refills", "count"),
    ("serve.protocol.bytes", "bytes"),
)

#: Daemon ``stats`` counters reported per traced round on ``serve-mixed``.
DAEMON_STATS = {
    "serve.daemon.served_cache": "served_from_cache",
    "serve.daemon.served_computed": "computed",
    "serve.daemon.served_joined": "deduplicated",
}

SETUP_LAUNCHES = 5


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _setup_samples(workload: str, seed: int) -> list:
    probe = str(Path(__file__).with_name("probe.py"))
    return timed_launches([sys.executable, probe, "setup", workload, str(seed)], SETUP_LAUNCHES)


#: Root spans whose self time no layer wrapper covers: the benchmark's own
#: span around each in-process ``evaluate`` and the daemon's handler of
#: one connection. (The serve client's round trip, ``serve.client``, is a
#: root too, but its self time is the wait the daemon's spans account for.)
UNCOVERED = ("bench.evaluate", "serve.daemon")


def _print_table(title: str, self_by_name: dict, rounds: int, busy: float) -> None:
    """Self time per span name; ``share`` is of the summed root spans."""
    emit(f"self time per traced round: {title} (root spans {busy / rounds:.4f} s)")
    emit(f"  {'span':36s} {'self s':>10s} {'share':>7s} {'calls':>10s}")
    covered = 0.0
    for name, (total, calls) in sorted(self_by_name.items(), key=lambda kv: -kv[1][0]):
        label = f"uncovered remainder ({name})" if name in UNCOVERED else name
        covered += total
        emit(
            f"  {label:36s} {total / rounds:10.4f} {total / busy:7.1%} "
            f"{calls / rounds:10.1f}"
        )
    emit(f"  {'(all rows)':36s} {covered / rounds:10.4f} {covered / busy:7.1%}")


def _layer_metrics(self_by_name: dict, counts, rounds: int) -> dict:
    metrics = {}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = _metric(self_by_name.get(span, (0.0, 0))[0] / rounds, "s")
    for name, unit in COUNTS:
        metrics[name] = _metric(counts.get(name, 0) / rounds, unit)
    uncovered = sum(self_by_name.get(name, (0.0, 0))[0] for name in UNCOVERED)
    metrics["trace.uncovered_s"] = _metric(uncovered / rounds, "s")
    return metrics


def _traced_in_process(workload: str, seed: int, seconds: float) -> tuple:
    import inprocess
    from spans import load_dump, root_time, totals

    dump = WORK / "spans" / f"{workload}-seed{seed}.jsonl"
    dump.unlink(missing_ok=True)
    outcome, _cells, missing = inprocess.run(workload, seed, seconds, dump)
    traced = inprocess.round_walls(outcome, True)
    untraced = inprocess.round_walls(outcome, False)
    spans, bumps = load_dump(dump)
    rounds = max(1, len(traced))
    by_name = _merge_self_times(spans)
    busy = sum(root_time(process_spans) for process_spans in spans.values())
    _print_table(workload, by_name, rounds, busy)
    metrics = _layer_metrics(by_name, totals(b for p in bumps.values() for b in p), rounds)
    for name in DAEMON_STATS:
        metrics[name] = _metric(0, "count")
    overhead = median(traced) - median(untraced)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.round_wall_s"] = _metric(median(traced), "s")
    emit(f"spans written to {dump}; missing wrap points: {missing or 'none'}")
    emit(f"tracing overhead per round: {overhead:+.4f} s over {median(untraced):.4f} s untraced")
    return outcome.attempted, outcome.failed, outcome.errors, metrics


def _merge_self_times(spans: dict) -> dict:
    """Self time and calls per span name, summed over processes."""
    from spans import self_times

    merged: dict = {}
    for process_spans in spans.values():
        for name, (total, calls) in self_times(process_spans).items():
            prev = merged.get(name, (0.0, 0))
            merged[name] = (prev[0] + total, prev[1] + calls)
    return merged


def _traced_serve(seed: int, seconds: float) -> tuple:
    import serve_mixed
    from spans import Tracer, load_dump, root_time, self_times, totals

    tracer = Tracer()
    dump = WORK / "spans" / f"serve-mixed-seed{seed}.jsonl"
    dump.unlink(missing_ok=True)
    record, stats, untraced, traced, window = serve_mixed.run_traced(
        seed, seconds, tracer, dump
    )
    tracer.dump(dump, "bench")
    spans, bumps = load_dump(dump)
    # The daemon was traced from launch; keep what it did during the timed
    # loop (perf_counter is the system-wide monotonic clock on Linux).
    spans["daemon"] = [s for s in spans.get("daemon", []) if window[0] <= s[3] <= window[1]]
    counts = totals([b for process in bumps.values() for b in process], window)
    rounds = max(1, len(traced))
    for process, process_spans in sorted(spans.items()):
        own = self_times(process_spans)
        _print_table(f"serve-mixed, {process} process", own, rounds, root_time(process_spans))
    metrics = _layer_metrics(_merge_self_times(spans), counts, rounds)
    for name, key in DAEMON_STATS.items():
        metrics[name] = _metric(stats.get(key, 0) / rounds, "count")
    overhead = median(traced) - median(untraced)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.round_wall_s"] = _metric(median(traced), "s")
    emit(f"spans written to {dump}; missing wrap points: {tracer.missing or 'none'}")
    emit(f"tracing overhead per round: {overhead:+.4f} s over {median(untraced):.4f} s untraced")
    return record.attempted, record.failed, record.errors, metrics


def _untraced(workload: str, seed: int, seconds: float) -> tuple:
    if workload == "serve-mixed":
        import serve_mixed

        record, values, stats = serve_mixed.run(seed, seconds)
        for kind in ("hot", "cold", "shared", "idle-hot"):
            samples = serve_mixed.latencies(record, kind)
            if samples:
                line = f"{kind} latency p50 {1e3 * median(samples):.2f} ms over {len(samples)}"
                tail = tail_percentile(samples)
                if tail is not None:
                    line += f"; p{tail[0]:g} {1e3 * tail[1]:.2f} ms (n={tail[2]})"
                emit(line)
        emit_json("daemon stats", stats)
        attempted, failed, errors = record.attempted, record.failed, record.errors
    else:
        import inprocess

        setup = _setup_samples(workload, seed)
        outcome, cells, _missing = inprocess.run(workload, seed, seconds)
        values = dict(inprocess.end_to_end(outcome, cells), setup_s=median(setup))
        emit(f"{len(outcome.rounds)} rounds of {cells} cells; setup samples {setup}")
        hot = [t for r in outcome.rounds for t in r["hot"]]
        emit(f"hot evaluation p50 {1e3 * median(hot):.3f} ms over {len(hot)} (not bounded)")
        attempted, failed, errors = outcome.attempted, outcome.failed, outcome.errors
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return attempted, failed, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    started = time.perf_counter()
    try:
        if args.trace:
            if args.workload == "serve-mixed":
                result = _traced_serve(args.seed, args.seconds)
            else:
                result = _traced_in_process(args.workload, args.seed, args.seconds)
        else:
            result = _untraced(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch_root(), ignore_errors=True)
    attempted, failed, errors, metrics = result
    for message in errors:
        emit(f"CHECK FAILED: {message}")
    correct = not errors
    emit_json(
        "record",
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_rev": git_rev(),
            "host": host_fingerprint(),
            "wall_s": time.perf_counter() - started,
        },
    )
    for name, metric in metrics.items():
        emit(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    emit(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
