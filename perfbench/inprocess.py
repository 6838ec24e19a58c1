"""The in-process workloads: timed rounds of ``repro.api.evaluate`` calls.

One round evaluates every scenario of the workload three times, in three
phases: cold without a cache (``cache=None``, the default vectorized
executor), cold into a fresh cache directory (chunk checkpoints, digests
and the full-entry publication the CLI performs by default), and hot from
that directory, repeated. Rounds repeat whole until the run's seconds are
used, split over several fresh processes, and each metric is a median
over all their rounds. In a traced run every second round runs with the
layer wrappers installed, so the traced and untraced rounds of one run
give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from common import ROOT, child_env, median, peak_rss_mb_self, scratch_dir, scratch_root
from spans import Tracer

from repro.api import evaluate
from repro.channels.gains import LinkGains
from repro.simulation.montecarlo import simulate_protocol_cells

PHASES = ("cold", "cached", "hot")
#: Hot evaluations take milliseconds; repeating them in every round gives
#: their median enough samples to be steady.
HOT_REPEATS = 25
#: How fast this host runs a process varies from one process to the next
#: (by a fifth or more on a shared 2-core VM), so each run splits its
#: seconds over several fresh processes and takes medians over all their
#: rounds. Workloads with long rounds get fewer, so that a run stays
#: short: ``link-traffic`` (a round takes ~5 s) three and
#: ``link-deepfade-is`` (~13 s, two evaluations of ~6.5 s) one.
PROCESSES = {"link-traffic": 3, "link-deepfade-is": 1}
DEFAULT_PROCESSES = 4
PROBE = str(Path(__file__).with_name("probe.py"))
#: Expected frame errors of the vanilla estimate ``link-deepfade-is`` checks
#: its importance-sampled cell against (a relative standard error of ~4%).
VANILLA_ERRORS = 600


class Outcome:
    """What a run measured and found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.rounds: list = []  # {"cold": [s], "cached": [s], "hot": [s, ...], "traced": bool}
        self.reference: list | None = None
        self.peak_rss_mb = 0.0


def _evaluate(scenario, cache, tracer):
    span = tracer.span("bench.evaluate") if tracer is not None else contextlib.nullcontext()
    with span:
        return evaluate(scenario, cache=cache).campaign


def _round(scenarios, outcome: Outcome, tracer) -> dict:
    cache_dir = scratch_dir("cache")
    timings = {}
    results = {}
    try:
        for phase in PHASES:
            cache = None if phase == "cold" else cache_dir
            timings[phase] = []
            for _ in range(HOT_REPEATS if phase == "hot" else 1):
                results[phase] = []
                started = time.perf_counter()
                for scenario in scenarios:
                    outcome.attempted += 1
                    try:
                        results[phase].append(_evaluate(scenario, cache, tracer))
                    except Exception as error:  # noqa: BLE001 - counted, run goes on
                        outcome.failed += 1
                        outcome.errors.append(f"{phase} {scenario.name}: {error!r}")
                        results[phase].append(None)
                timings[phase].append(time.perf_counter() - started)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    _check_round(scenarios, results, outcome)
    return timings


def _check_round(scenarios, results, outcome: Outcome) -> None:
    """Every phase and every round must give bitwise the same grids."""
    cold = [None if r is None else r.values for r in results["cold"]]
    if outcome.reference is None:
        outcome.reference = cold
    for i, scenario in enumerate(scenarios):
        expected = outcome.reference[i]
        for phase in PHASES:
            result = results[phase][i]
            if result is None or expected is None:
                continue
            if not np.array_equal(result.values, expected, equal_nan=True):
                outcome.errors.append(f"{scenario.name}: {phase} grid differs bitwise")
            if result.from_cache != (phase == "hot"):
                outcome.errors.append(
                    f"{scenario.name}: {phase} evaluation from_cache={result.from_cache}"
                )


def run_process(workload, seed, seconds, index, out: Path, dump=None) -> None:
    """One measuring process: whole rounds for ``seconds`` (at least one),
    written to ``out``.json and ``out``.npz (the first round's cold grids).
    With a ``dump`` path, rounds alternate with and without the layer
    wrappers and the spans are appended to it."""
    scenarios = inputs.IN_PROCESS[workload](seed)
    # Imports inside the program and lazily built tables (trellis, CRC,
    # interleaver) are paid once per process: pay them before timing by
    # evaluating the first cell of each scenario.
    for scenario in scenarios:
        evaluate(scenario, shard=(0, scenario.to_campaign_spec().n_units))
    tracer = Tracer() if dump is not None else None
    outcome = Outcome()
    started = time.perf_counter()
    try:
        while not outcome.rounds or time.perf_counter() - started < seconds:
            traced = tracer is not None and (index + len(outcome.rounds)) % 2 == 1
            if traced:
                tracer.install()
            try:
                timings = _round(scenarios, outcome, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            outcome.rounds.append(dict(timings, traced=traced))
    finally:
        shutil.rmtree(scratch_root(), ignore_errors=True)
    if tracer is not None:
        tracer.dump(dump, f"bench{index}")
    np.savez(
        out.with_suffix(".npz"),
        **{f"grid{i}": v for i, v in enumerate(outcome.reference) if v is not None},
    )
    out.with_suffix(".json").write_text(
        json.dumps(
            {
                "rounds": outcome.rounds,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "errors": outcome.errors,
                "peak_rss_mb": peak_rss_mb_self(),
                "missing": tracer.missing if tracer is not None else [],
            }
        )
    )


def run(workload: str, seed: int, seconds: float, dump=None) -> tuple:
    """Run the workload in fresh processes and check what they computed.

    Returns ``(outcome, cells per round, wrap points missing)``."""
    scenarios = inputs.IN_PROCESS[workload](seed)
    cells = sum(s.to_campaign_spec().n_units for s in scenarios)
    count = PROCESSES.get(workload, DEFAULT_PROCESSES)
    if dump is not None:
        # Processes alternate which of their rounds are traced, starting
        # from their index: two processes give one of each at the least.
        count = max(2, count)
    work = scratch_dir("rounds")
    outcome = Outcome()
    missing: set = set()
    for index in range(count):
        out = work / f"process{index}"
        argv = [sys.executable, PROBE, "rounds", workload, str(seed)]
        argv += [repr(seconds / count), str(index), str(out)]
        if dump is not None:
            argv.append(str(dump))
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, timeout=170)
        part = json.loads(out.with_suffix(".json").read_text())
        outcome.rounds += part["rounds"]
        outcome.attempted += part["attempted"]
        outcome.failed += part["failed"]
        outcome.errors += part["errors"]
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, part["peak_rss_mb"])
        missing.update(part["missing"])
        with np.load(out.with_suffix(".npz")) as saved:
            grids = [saved.get(f"grid{i}") for i in range(len(scenarios))]
        if outcome.reference is None:
            outcome.reference = grids
        elif not all(
            a is None or b is None or np.array_equal(a, b, equal_nan=True)
            for a, b in zip(outcome.reference, grids)
        ):
            outcome.errors.append(f"process {index} computed other grids than process 0")
    if all(v is not None for v in outcome.reference):
        outcome.errors += CHECKS[workload](scenarios, outcome.reference, seed)
    return outcome, cells, sorted(missing)


def _wall(round_timings) -> float:
    return sum(sum(round_timings[p]) for p in PHASES)


def end_to_end(outcome: Outcome, cells: int) -> dict:
    rounds = outcome.rounds
    busy = sum(_wall(r) for r in rounds)
    return {
        "cells_per_s": median(cells / r["cold"][0] for r in rounds),
        "cached_cells_per_s": median(cells / r["cached"][0] for r in rounds),
        "requests_per_s": outcome.attempted / busy,
        "cold_p50_ms": median(1e3 * r["cold"][0] for r in rounds),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def round_walls(outcome: Outcome, traced: bool) -> list:
    return [_wall(r) for r in outcome.rounds if r["traced"] == traced]


# -- workload checks ---------------------------------------------------------


def _check_analytic(scenarios, values, seed) -> list:
    spec = scenarios[0].to_campaign_spec()
    draws = spec.sample_gain_draws()[0]
    rng = np.random.default_rng([seed, 7])
    errors = checks.analytic_ensemble(values[0], spec.powers_db, draws, rng)
    mabc, tdbc, hbc = values[1]
    errors += checks.hbc_dominates(hbc, np.maximum(mabc, tdbc))
    if not np.all(np.isfinite(values[1])) or np.any(values[1] < 0):
        errors.append("placement sweep has negative or non-finite sum rates")
    return errors


def _check_link_clean(scenarios, values, seed) -> list:
    names = [p.name for p in scenarios[0].protocols]
    return checks.goodput_within_ceiling(
        values[0], names, scenarios[0].link.payload_bits
    )


def _check_traffic(scenarios, values, seed) -> list:
    errors = checks.latency_at_least_one_slot(values[0])
    traffic = scenarios[1].link.traffic
    offered = [load * 2.0 * sum(traffic.rates) for load in traffic.offered_loads]
    for knees in values[1:]:
        errors += checks.knees_are_offered_rates(knees, offered)
    round_robin = values[1 + inputs.SCHEDULERS.index("round-robin")]
    for name, knees in zip(inputs.SCHEDULERS, values[1:]):
        if name != "round-robin" and np.any(knees < round_robin):
            errors.append(f"{name} knee below round-robin's: {knees} < {round_robin}")
    return errors


def _check_deepfade(scenarios, values, seed) -> list:
    """FER bounds, and one moderate-FER cell against a vanilla estimate.

    The cell is re-run alone through ``simulate_protocol_cells`` with the
    generator the campaign seeds it with, ``(link seed, flat index)``, and
    the spec's importance-sampling proposal and adaptive budget. That
    re-run gives the standard error the weighted estimator achieved and
    whether the cell resolved; the vanilla estimate runs on its own
    generator from ``--seed``.
    """
    fer = values[0]
    errors = checks.fer_in_unit_interval(fer)
    spec = scenarios[0].to_campaign_spec()
    link = spec.link
    draws = spec.sample_gain_draws()
    moderate = sorted(
        (abs(math.log(fer[idx] / 0.1)), idx)
        for idx in np.ndindex(fer.shape)
        if 0.02 <= fer[idx] <= 0.3
    )
    for _, idx in moderate:
        cell = dict(
            protocol=spec.protocols[idx[0]],
            gains_cells=(LinkGains(*draws[idx[-2], idx[-1]]),),
            power=10.0 ** (spec.powers_db[idx[1]] / 10.0),
            codec=link.codec(),
        )
        flat = int(np.ravel_multi_index(idx, fer.shape))
        (weighted,) = simulate_protocol_cells(
            n_rounds=link.n_rounds,
            rngs=(np.random.default_rng([int(link.seed), flat]),),
            target_rel_error=link.target_rel_error,
            max_rounds=link.max_rounds,
            sampling=link.importance_sampling,
            **cell,
        )
        if weighted.resolved:
            break
    else:
        return errors + ["no resolved cell with a moderate FER to cross-check"]
    p_is = float(fer[idx])
    # The lone re-run sums its weights over a batch of one cell, the
    # campaign over a wider fused batch; they agree to rounding only.
    if not math.isclose(weighted.fer, p_is, rel_tol=1e-12):
        errors.append(f"cell {idx}: re-run FER {weighted.fer!r} vs campaign {p_is!r}")
    n_rounds = min(16384, math.ceil(VANILLA_ERRORS / (2.0 * p_is)))
    (vanilla,) = simulate_protocol_cells(
        n_rounds=n_rounds, rngs=(np.random.default_rng([seed, 11]),), **cell
    )
    frame_errors = vanilla.a_to_b.frame_errors + vanilla.b_to_a.frame_errors
    trials = vanilla.a_to_b.frames + vanilla.b_to_a.frames
    return errors + checks.estimates_agree(
        p_is, weighted.sampling.rel_std_error, frame_errors, trials
    )


CHECKS = {
    "analytic-bounds": _check_analytic,
    "link-clean": _check_link_clean,
    "link-traffic": _check_traffic,
    "link-deepfade-is": _check_deepfade,
}
