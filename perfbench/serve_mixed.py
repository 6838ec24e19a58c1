"""The ``serve-mixed`` workload: a closed loop against ``repro serve`` daemons.

Each daemon listens on a Unix socket with a pool of at most ``nproc``
workers; an untraced run starts several in turn on one cache that is
fresh at the start of the run (see :func:`run`). One client thread per
core (at most two) sends whole rounds of requests, each waiting for its
reply before the next:

* ``shared`` - one small link grid that every client sends at the same
  moment (a barrier releases them together), which the daemon
  deduplicates onto one job;
* ``hot`` - three requests for one large analytic grid, cached before
  the loop starts;
* ``cold`` - one small analytic grid per client that no other request of
  the run asks for, computed by the daemon's pool.

The shared request opens every round; where the cold request falls
among the hot ones is drawn from the seed per round, the same for every
client. The 1 : 3 : 1 make-up is an assumption, not usage data (see the
README): each kind has its own metric, so it weights ``requests_per_s``
only.

After the daemons have shut down, every grid they served is compared
bitwise with an in-process evaluation of the same scenario.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
from common import (
    ROOT,
    child_env,
    median,
    n_cores,
    peak_rss_mb_of,
    scratch_dir,
)

from repro.api import evaluate
from repro.serve.client import ServeClient, ServeError

#: What each client sends per round after its ``shared`` request.
ROUND_REST = ("hot", "hot", "hot", "cold")
#: Hot requests one client sends back to back after each daemon's share
#: of the loop, with nothing else in flight: the cache-hit round trip of
#: an idle daemon, apart from how the loop's requests happen to overlap.
IDLE_HOT_REQUESTS = 10
LOOP_KINDS = ("shared", *ROUND_REST)
SETUP_LAUNCHES = 5
CLIENT_TIMEOUT_S = 120.0


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


class Daemon:
    """One ``repro serve`` process in its own scratch directory."""

    def __init__(self, label: str, dump: Path | None = None, cache: Path | None = None) -> None:
        self.dir = scratch_dir(label)
        # Relative to the checkout root, where the daemon and the clients
        # both run: a Unix socket path must stay under ~100 bytes.
        self.socket = str(self.dir.relative_to(ROOT) / "serve.sock")
        serve_args = [
            "--socket", self.socket,
            "--cache-dir", str(cache or self.dir / "cache"),
            "--processes", str(n_cores()),
        ]
        if dump is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            probe = str(Path(__file__).with_name("probe.py"))
            argv = [sys.executable, probe, "serve-traced", str(dump), "--", *serve_args]
        self.started = time.perf_counter()
        self._log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT
        )
        self.client = ServeClient(self.socket, timeout=CLIENT_TIMEOUT_S)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early, see {self.dir / 'daemon.log'}")
            try:
                self.client.ping()
                return
            except ServeError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=60)
            except (ServeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class _Loop:
    """Round bookkeeping shared by the client threads."""

    def __init__(self, n_clients: int, seconds: float, first_round: int) -> None:
        self.seconds = seconds
        self.round = first_round - 1
        self.first_round = first_round
        self.stop = False
        self.started = None
        self.round_started = None
        self.round_walls: list = []
        self.barrier = threading.Barrier(n_clients, action=self._next_round)

    def _next_round(self) -> None:
        now = time.perf_counter()
        if self.started is None:
            self.started = now
        if self.round_started is not None:
            self.round_walls.append(now - self.round_started)
        self.round_started = now
        self.round += 1
        self.stop = self.round > self.first_round and now - self.started >= self.seconds


class Record:
    """Every request sent and what came back."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.samples: list = []  # (kind, seconds, served_from, cells)
        self.served: dict = {}  # scenario key -> [values, ...]
        self.hot_digests: set = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.round_walls: list = []
        self.scenarios: dict = {}  # key -> scenario


def _request(client, kind, key, scenario, record: Record, tracer) -> None:
    with record.lock:
        record.attempted += 1
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("serve.client"):
                served = client.evaluate(scenario)
        else:
            served = client.evaluate(scenario)
    except Exception as error:  # noqa: BLE001 - counted, the loop goes on
        with record.lock:
            record.failed += 1
            record.errors.append(f"{kind} {key}: {error!r}")
        return
    elapsed = time.perf_counter() - started
    with record.lock:
        record.samples.append((kind, elapsed, served.served_from, served.values.size))
        if kind in ("hot", "idle-hot"):
            record.hot_digests.add(_digest(served.values))
            if served.served_from != "cache":
                record.errors.append(f"hot request served from {served.served_from}")
        else:
            record.served.setdefault(key, []).append(served.values)
            record.scenarios[key] = scenario
            if kind == "cold" and served.served_from != "computed":
                record.errors.append(f"cold request served from {served.served_from}")


def _client(index, daemon, loop: _Loop, record: Record, seed, tracer) -> None:
    client = ServeClient(daemon.socket, timeout=CLIENT_TIMEOUT_S)
    hot = inputs.serve_hot(seed)
    while True:
        try:
            loop.barrier.wait(timeout=CLIENT_TIMEOUT_S)
        except threading.BrokenBarrierError:
            with record.lock:
                record.errors.append(f"client {index}: round barrier broken")
            return
        if loop.stop:
            return
        r = loop.round
        for kind in round_plan(seed, r):
            if kind == "shared":
                key, scenario = ("shared", r), inputs.serve_shared(seed, r)
            elif kind == "cold":
                key, scenario = ("cold", r, index), inputs.serve_cold(seed, r, index)
            else:
                key, scenario = ("hot",), hot
            _request(client, kind, key, scenario, record, tracer)


def round_plan(seed: int, round_index: int) -> tuple:
    """The kinds of request of one round, in order: ``shared`` first (the
    clients send it together), then the three hot requests and the cold
    one. Each block of four rounds puts the cold request once in each of
    the four places, in an order drawn from the seed, so every run meets
    each way the two clients' requests can overlap equally often."""
    block, offset = divmod(round_index, len(ROUND_REST))
    place = np.random.default_rng([seed, 8, block]).permutation(len(ROUND_REST))[offset]
    rest = ["hot"] * (len(ROUND_REST) - 1)
    rest.insert(int(place), "cold")
    return ("shared", *rest)


def _closed_loop(daemon, seed, seconds, record: Record, first_round: int, tracer) -> int:
    """Run whole rounds for ``seconds``; returns the next round index."""
    n_clients = min(2, n_cores())
    loop = _Loop(n_clients, seconds, first_round)
    threads = [
        threading.Thread(
            target=_client, args=(i, daemon, loop, record, seed, tracer), daemon=True
        )
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 10 * CLIENT_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    record.round_walls += loop.round_walls
    return loop.round


def _warm(daemon, seed, record: Record) -> None:
    """Cache the hot grid (and start the pool) before the loop."""
    hot = inputs.serve_hot(seed)
    served = daemon.client.evaluate(hot)
    record.scenarios[("hot",)] = hot
    record.served[("hot",)] = [served.values]


def check_against_in_process(record: Record) -> None:
    """Every served grid must be bitwise equal to an in-process evaluation."""
    for key, scenario in record.scenarios.items():
        expected = evaluate(scenario).campaign.values
        for values in record.served.get(key, []):
            if not np.array_equal(values, expected, equal_nan=True):
                record.errors.append(f"served grid {key} differs from in-process")
        if key[0] == "hot" and record.hot_digests - {_digest(expected)}:
            record.errors.append("a hot response differs from in-process")


def latencies(record: Record, kind: str) -> list:
    """Round-trip seconds of every completed request of one kind."""
    return [s[1] for s in record.samples if s[0] == kind]


def _cells_per_s(record: Record, kind: str) -> float:
    """Median over the requests of one kind of cells per round-trip second."""
    return median(cells / seconds for k, seconds, _f, cells in record.samples if k == kind)


def end_to_end(record: Record, setup_samples, loop_seconds, rss_mb) -> dict:
    """Each metric times its own kind of request, so none is a function
    of another; only ``requests_per_s`` depends on the round's make-up."""
    return {
        "setup_s": median(setup_samples),
        "cells_per_s": _cells_per_s(record, "shared"),
        "cached_cells_per_s": _cells_per_s(record, "idle-hot"),
        "requests_per_s": sum(s[0] in LOOP_KINDS for s in record.samples) / loop_seconds,
        "cold_p50_ms": 1e3 * median(latencies(record, "cold")),
        "peak_rss_mb": rss_mb,
    }


def run(seed: int, seconds: float) -> tuple:
    """Untraced run on ``SETUP_LAUNCHES`` daemons, one after another.

    Each is launched and timed until its first request (a fresh grid) is
    answered, which is one ``setup_s`` sample, then serves an equal share
    of the closed loop. How fast this host runs a process varies from one
    process to the next, so spreading the loop over several daemons keeps
    any one of them from setting the medians. The daemons share one cache
    directory, fresh at the start of the run: the first computes the hot
    grid, the others find it there."""
    record = Record()
    hot = inputs.serve_hot(seed)
    cache = scratch_dir("serve-cache")
    setup_samples, rss_mb, stats = [], [], {}
    loop_seconds = 0.0
    next_round = 0
    for launch in range(SETUP_LAUNCHES):
        daemon = Daemon(f"serve{launch}", cache=cache)
        try:
            daemon.wait_ready()
            daemon.client.evaluate(inputs.serve_first(seed, launch))
            setup_samples.append(time.perf_counter() - daemon.started)
            _warm(daemon, seed, record)
            started = time.perf_counter()
            next_round = _closed_loop(
                daemon, seed, seconds / SETUP_LAUNCHES, record, next_round, None
            )
            loop_seconds += time.perf_counter() - started
            for _ in range(IDLE_HOT_REQUESTS):
                _request(daemon.client, "idle-hot", ("hot",), hot, record, None)
            rss_mb.append(peak_rss_mb_of(daemon.proc.pid))
            for key, value in daemon.client.stats()["stats"].items():
                stats[key] = stats.get(key, 0) + value
        finally:
            daemon.stop()
    check_against_in_process(record)
    metrics = end_to_end(record, setup_samples, loop_seconds, max(rss_mb))
    return record, metrics, stats


def run_traced(seed: int, seconds: float, tracer, dump: Path) -> tuple:
    """Half the time against an untraced daemon, half against a traced one
    (client wrappers installed too). Returns the record, the daemon's
    counters over the traced loop, both sets of round walls and the
    traced loop's ``(start, end)`` on the shared monotonic clock."""
    record = Record()
    plain = Daemon("serve-plain")
    try:
        plain.wait_ready()
        _warm(plain, seed, record)
        next_round = _closed_loop(plain, seed, seconds / 2, record, 0, None)
    finally:
        plain.stop()
    untraced_walls = list(record.round_walls)
    record.round_walls = []
    traced = Daemon("serve-traced", dump=dump)
    try:
        traced.wait_ready()
        _warm(traced, seed, record)
        before = traced.client.stats()["stats"]
        tracer.install()
        window = [time.perf_counter()]
        try:
            _closed_loop(traced, seed, seconds / 2, record, next_round, tracer)
        finally:
            tracer.uninstall()
            window.append(time.perf_counter())
        after = traced.client.stats()["stats"]
    finally:
        traced.stop()
    check_against_in_process(record)
    stats = {key: after[key] - before.get(key, 0) for key in after}
    return record, stats, untraced_walls, record.round_walls, tuple(window)
