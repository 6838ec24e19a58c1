"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces each layer's public entry points with timing
wrappers. A wrapper goes on the name the *calling* module looks up (for
example ``batched_sum_rates`` as ``repro.campaign.executors`` sees it) or
on the class attribute for methods, records one span (name, start, end,
parent) per call and optionally bumps counters from the call's arguments
and result. The parent of a span is whatever span is current in the
caller's context (a ``ContextVar``), so spans nest correctly across
threads started by ``asyncio.to_thread`` and across asyncio tasks.

Spans stay in memory until :meth:`Tracer.dump` writes them out. A span's
self time is its duration minus the durations of its direct children.
The self time of a root span (the benchmark's own ``bench.evaluate``
around each in-process call, or the daemon's per-connection handler) is
the remainder no layer wrapper covers.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# -- counters bumped after a wrapped call returns ----------------------------


def _count_kernel(tracer, args, kwargs, result):
    tracer.bump("campaign.kernel.calls")
    tracer.bump("campaign.kernel.cells", len(result))


def _count_engine(tracer, args, kwargs, result):
    tracer.bump("campaign.engine.chunk_retries", int(result.chunk_retries))
    unresolved = getattr(result, "unresolved_cells", None)
    tracer.bump("simulation.montecarlo.unresolved_cells", int(unresolved or 0))


def _count_batches(tracer, args, kwargs, result):
    tracer.bump("campaign.executors.batches", len(_arg(args, kwargs, 1, "batches")))


def _count_chunk_job(tracer, args, kwargs, result):
    tracer.bump("campaign.executors.batches")


def _count_load(tracer, args, kwargs, result):
    if result is None:
        tracer.bump("campaign.cache.misses")
        return
    tracer.bump("campaign.cache.hits")
    cache, key = args[0], _arg(args, kwargs, 1, "key")
    tracer.bump("campaign.cache.bytes_read", _size(cache.path_for(key)))


def _count_load_chunk(tracer, args, kwargs, result):
    if result is None:
        tracer.bump("campaign.cache.misses")
        return
    tracer.bump("campaign.cache.hits")
    cache, key = args[0], _arg(args, kwargs, 1, "key")
    start = _arg(args, kwargs, 2, "start")
    stop = _arg(args, kwargs, 3, "stop")
    tracer.bump("campaign.cache.bytes_read", _size(cache.chunk_path_for(key, start, stop)))


def _count_store(tracer, args, kwargs, result):
    tracer.bump("campaign.cache.bytes_written", _size(result))


def _count_store_chunk(tracer, args, kwargs, result):
    tracer.bump("campaign.engine.chunks")
    tracer.bump("campaign.cache.bytes_written", _size(result))


def _count_rounds(tracer, args, kwargs, result):
    tracer.bump("simulation.engine.waves")
    tracer.bump("simulation.engine.rows", len(_arg(args, kwargs, 2, "payload_rows_a")))


def _count_decode(tracer, args, kwargs, result):
    tracer.bump("simulation.convolutional.decode_rows", len(result))


def _count_crc(tracer, args, kwargs, result):
    tracer.bump("simulation.crc.frames_checked", len(result))
    tracer.bump("simulation.crc.frames_failed", int(len(result) - result.sum()))


def _count_traffic(tracer, args, kwargs, result):
    tracer.bump("traffic.frames", int(result.offered))


def _count_refill(tracer, args, kwargs, result):
    tracer.bump("traffic.refills")


def _count_encoded(tracer, args, kwargs, result):
    tracer.bump("serve.protocol.bytes", len(result))


def _count_decoded(tracer, args, kwargs, result):
    tracer.bump("serve.protocol.bytes", len(_arg(args, kwargs, 0, "line")))


#: ``(module, attribute path, span name, counter)``: every wrap point.
#: Module-level functions are wrapped where their callers look them up.
WRAP_POINTS = (
    ("repro.scenarios.base", "Scenario.to_campaign_spec", "scenarios.lower", None),
    ("repro.campaign.spec", "CampaignSpec.sample_gain_draws", "campaign.spec.sample", None),
    ("repro.campaign.executors", "batched_sum_rates", "campaign.kernel", _count_kernel),
    ("repro.api", "run_campaign", "campaign.engine", _count_engine),
    ("repro.serve.daemon", "run_campaign", "campaign.engine", _count_engine),
    ("repro.campaign.executors", "VectorizedExecutor.run", "campaign.executors", _count_batches),
    ("repro.campaign.executors", "AsyncExecutor.run_chunks", "campaign.executors", _count_chunk_job),
    ("repro.campaign.cache", "CampaignCache.load", "campaign.cache.load", _count_load),
    ("repro.campaign.cache", "CampaignCache.load_chunk", "campaign.cache.load", _count_load_chunk),
    ("repro.campaign.cache", "CampaignCache.store", "campaign.cache.store", _count_store),
    ("repro.campaign.cache", "CampaignCache.store_chunk", "campaign.cache.store", _count_store_chunk),
    ("repro.simulation.montecarlo", "fused_link_values", "simulation.montecarlo", None),
    ("repro.simulation.engine", "BatchedProtocolEngine.run_rounds", "simulation.engine", _count_rounds),
    ("repro.simulation.convolutional", "ConvolutionalCode.decode_rows", "simulation.convolutional.decode", _count_decode),
    ("repro.simulation.convolutional", "ConvolutionalCode.encode_rows", "simulation.convolutional.encode", None),
    ("repro.simulation.linkcodec", "LinkCodec.demodulate_rows", "simulation.linkcodec.demodulate", None),
    ("repro.simulation.linkcodec", "LinkCodec.encode_rows", "simulation.linkcodec", None),
    ("repro.simulation.linkcodec", "LinkCodec.decode_llr_rows", "simulation.linkcodec", None),
    ("repro.simulation.crc", "CrcCode.check_rows", "simulation.crc", _count_crc),
    ("repro.simulation.crc", "CrcCode.append_rows", "simulation.crc", None),
    ("repro.channels.halfduplex", "HalfDuplexMedium.run_phase_rows", "channels.halfduplex", None),
    ("repro.channels.halfduplex", "FusedHalfDuplexMedium.run_phase_rows", "channels.halfduplex", None),
    ("repro.simulation.engine", "sic_decode_mac_rows", "simulation.relay.sic", None),
    ("repro.simulation.sampling", "NoiseTwist.apply", "simulation.sampling.twist", None),
    ("repro.simulation.montecarlo", "direction_log_weights", "simulation.sampling.weights", None),
    ("repro.simulation.metrics", "WeightedFerCounter.record_rows", "simulation.sampling.weights", None),
    ("repro.traffic.simulator", "traffic_link_values", "traffic", None),
    ("repro.traffic.simulator", "simulate_traffic", "traffic", _count_traffic),
    ("repro.traffic.outcomes", "FrameOutcomeStream._refill", "traffic", _count_refill),
    ("repro.serve.client", "encode_frame", "serve.protocol.encode", _count_encoded),
    ("repro.serve.client", "decode_frame", "serve.protocol.decode", _count_decoded),
    ("repro.serve.client", "values_from_payload", "serve.protocol.decode", None),
    ("repro.serve.daemon", "encode_frame", "serve.protocol.encode", _count_encoded),
    ("repro.serve.daemon", "decode_frame", "serve.protocol.decode", _count_decoded),
    ("repro.serve.daemon", "result_payload", "serve.protocol.encode", None),
    ("repro.serve.daemon", "CampaignServer._converse", "serve.daemon", None),
)


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []  # (id, parent, name, start, end)
        self.bumps: list = []  # (time, counter name, amount)
        self.missing: list = []
        self._ids = itertools.count(1)
        self._patches: list = []

    def bump(self, name: str, amount: int = 1) -> None:
        self.bumps.append((time.perf_counter(), name, amount))

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, parent, name, start, end))

    def _wrapper(self, fn, name: str, counter):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            async def traced(*args, **kwargs):
                with tracer.span(name):
                    result = await fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, kwargs, result)
                return result

        elif inspect.isgeneratorfunction(fn):
            # A generator is timed per resumption, so the consumer's work
            # between items is not charged to the producing layer.
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        with tracer.span(name):
                            try:
                                item = next(gen)
                            except StopIteration as stop:
                                return stop.value
                        if counter is not None:
                            counter(tracer, args, kwargs, item)
                        yield item
                finally:
                    gen.close()

        else:

            def traced(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self, points=WRAP_POINTS) -> None:
        """Wrap every point; a point the program no longer has is listed
        in :attr:`missing` instead of failing the run."""
        self.missing = []
        for module_name, path, name, counter in points:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrapper(raw, name, counter))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def dump(self, path: Path, process: str) -> None:
        """Append this process's spans and counters to a JSON-lines file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "process": process,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
            for when, name, amount in self.bumps:
                handle.write(
                    json.dumps(
                        {"process": process, "bump": name, "at": when, "amount": amount}
                    )
                    + "\n"
                )


def self_times(spans) -> dict:
    """Total self time and span count per span name.

    ``spans`` are ``(id, parent, name, start, end)`` tuples of one
    process. Children that ran concurrently with each other (threads
    under one parent) can cover more than their parent's duration; the
    parent's self time is then clipped at zero.
    """
    child_time = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict = defaultdict(lambda: [0.0, 0])
    for sid, _parent, name, start, end in spans:
        entry = totals[name]
        entry[0] += max(0.0, (end - start) - child_time[sid])
        entry[1] += 1
    return {name: (total, count) for name, (total, count) in totals.items()}


def root_time(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _sid, parent, _name, start, end in spans if parent is None)


def totals(bumps, window=None) -> Counter:
    """Counter totals, optionally of the bumps inside ``(start, end)``."""
    counts: Counter = Counter()
    for when, name, amount in bumps:
        if window is None or window[0] <= when <= window[1]:
            counts[name] += amount
    return counts


def load_dump(path: Path) -> tuple:
    """Spans and counter bumps of every process in a dump file."""
    spans = defaultdict(list)
    bumps = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "bump" in record:
                bumps[record["process"]].append(
                    (record["at"], record["bump"], record["amount"])
                )
            else:
                spans[record["process"]].append(
                    (
                        record["id"],
                        record["parent"],
                        record["name"],
                        record["start"],
                        record["end"],
                    )
                )
    return dict(spans), dict(bumps)
