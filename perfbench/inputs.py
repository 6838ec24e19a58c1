"""Workload inputs: the scenarios each workload evaluates, made from a seed.

The program receives only these generated scenarios. Geometry, SNR
points and sizes are fixed here; the seed picks the fading draws, the
relay placements and the link-noise seeds, so costs stay comparable
across seeds while values differ. ``link-deepfade-is`` is the exception:
it evaluates the registered ``operational-deepfade-fer`` scenario with the
seeds that scenario pins, because which of its cells escalate to the full
16384-round budget, and so its cost, depends on them; its seed drives the
independent vanilla estimate its check runs instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.campaign.spec import FadingSpec, LinkSimSpec
from repro.channels.gains import LinkGains
from repro.channels.pathloss import linear_relay_gains
from repro.core.protocols import Protocol
from repro.scenarios.base import PowerPolicy, Scenario, Topology
from repro.scenarios.builtin import (
    multi_pair_scheduling_scenario,
    queueing_latency_scenario,
    relay_share_splits,
)
from repro.scenarios.registry import get_scenario

#: The paper's Fig. 4 geometry: G_ab = -7 dB, G_ar = 0 dB, G_br = 5 dB.
FIG4_GAINS = LinkGains.from_db(-7.0, 0.0, 5.0)
PAPER_PROTOCOLS = (Protocol.DT, Protocol.MABC, Protocol.TDBC, Protocol.HBC)
CODED_PROTOCOLS = (Protocol.MABC, Protocol.TDBC, Protocol.HBC)

ENSEMBLE_POWERS_DB = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
ENSEMBLE_DRAWS = 500
PLACEMENTS = 200
PLACEMENT_TOTAL_DB = 16.0
PLACEMENT_SPLITS = 8

GOODPUT_POWERS_DB = (12.0, 15.0)
GOODPUT_DRAWS = 4
GOODPUT_ROUNDS = 32
PAYLOAD_BITS = 128

SCHEDULERS = ("round-robin", "opportunistic")

SERVE_POWERS_DB = (0.0, 10.0)
SERVE_HOT_DRAWS = 2000
SERVE_COLD_DRAWS = 200


def _seeds(*entropy, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(n)]


def _ensemble(name: str, powers_db, n_draws: int, seed: int) -> Scenario:
    return Scenario(
        name=name,
        description="Rayleigh ensemble on the Fig. 4 geometry",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007, Sec. IV",
        protocols=PAPER_PROTOCOLS,
        topology=Topology(gains=(FIG4_GAINS,)),
        power=PowerPolicy.uniform(powers_db=tuple(powers_db)),
        fading=FadingSpec(n_draws=n_draws, seed=seed),
    )


def analytic_bounds(seed: int) -> list:
    """An SNR sweep over a Rayleigh ensemble (shared-power LP path) and a
    relay-placement x sum-power-split sweep (per-node power path)."""
    ensemble_seed, placement_seed = _seeds(seed, 1, n=2)
    fractions = np.sort(
        np.random.default_rng(placement_seed).uniform(0.1, 0.9, PLACEMENTS)
    )
    placement = Scenario(
        name="bench-placement-power-split",
        description="sum-power splits across random relay placements",
        grounding="optimum power allocation of arXiv:0810.2746",
        protocols=CODED_PROTOCOLS,
        topology=Topology(gains=tuple(linear_relay_gains(float(f)) for f in fractions)),
        power=PowerPolicy.sum_constrained(
            PLACEMENT_TOTAL_DB, relay_share_splits(PLACEMENT_SPLITS)
        ),
        objective="allocation_optimum_sum_rate",
    )
    ensemble = _ensemble(
        "bench-rayleigh-snr-sweep", ENSEMBLE_POWERS_DB, ENSEMBLE_DRAWS, ensemble_seed
    )
    return [ensemble, placement]


def goodput_scenario(fading_seed: int, link_seed: int) -> Scenario:
    return Scenario(
        name="bench-goodput-fading",
        description="production-codec DF goodput over fading draws at high SNR",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007 (operational check)",
        protocols=CODED_PROTOCOLS,
        topology=Topology(gains=(FIG4_GAINS,)),
        power=PowerPolicy.uniform(powers_db=GOODPUT_POWERS_DB),
        fading=FadingSpec(n_draws=GOODPUT_DRAWS, seed=fading_seed),
        objective="operational_goodput",
        link=LinkSimSpec(n_rounds=GOODPUT_ROUNDS, payload_bits=PAYLOAD_BITS, seed=link_seed),
    )


def link_clean(seed: int) -> list:
    return [goodput_scenario(*_seeds(seed, 2, n=2))]


def link_traffic(seed: int) -> list:
    """ARQ queueing latency, then the same two-pair load under each
    scheduler (one link seed, so the schedulers see the same traffic)."""
    queue_seed, pair_seed = _seeds(seed, 3, n=2)
    return [
        _with_link_seed(queueing_latency_scenario(), queue_seed),
        *(
            _with_link_seed(multi_pair_scheduling_scenario(name), pair_seed)
            for name in SCHEDULERS
        ),
    ]


def _with_link_seed(scenario: Scenario, link_seed: int) -> Scenario:
    return dataclasses.replace(
        scenario, link=dataclasses.replace(scenario.link, seed=link_seed)
    )


def link_deepfade_is(seed: int) -> list:
    return [get_scenario("operational-deepfade-fer")]


def serve_hot(seed: int) -> Scenario:
    """The large analytic grid every hot request asks for."""
    return _ensemble(
        "bench-serve-hot", SERVE_POWERS_DB, SERVE_HOT_DRAWS, _seeds(seed, 4, n=1)[0]
    )


def serve_cold(seed: int, round_index: int, client: int) -> Scenario:
    """A small analytic grid no other request of the run asks for."""
    return _ensemble(
        "bench-serve-cold",
        SERVE_POWERS_DB,
        SERVE_COLD_DRAWS,
        _seeds(seed, 5, round_index, client, n=1)[0],
    )


def serve_first(seed: int, launch: int) -> Scenario:
    """The first request each set-up launch of the daemon answers."""
    return _ensemble(
        "bench-serve-first", SERVE_POWERS_DB, SERVE_COLD_DRAWS, _seeds(seed, 7, launch, n=1)[0]
    )


def serve_shared(seed: int, round_index: int) -> Scenario:
    """A small link grid every client sends at the same moment."""
    fading_seed, link_seed = _seeds(seed, 6, round_index, n=2)
    return Scenario(
        name="bench-serve-shared",
        description="small DF goodput grid requested concurrently",
        grounding="Kim, Mitran & Tarokh, ICDCS Workshops 2007 (operational check)",
        protocols=(Protocol.MABC,),
        topology=Topology(gains=(FIG4_GAINS,)),
        power=PowerPolicy.uniform(powers_db=(12.0,)),
        fading=FadingSpec(n_draws=4, seed=fading_seed),
        objective="operational_goodput",
        link=LinkSimSpec(n_rounds=16, payload_bits=PAYLOAD_BITS, seed=link_seed),
    )


#: Scenario sets of the workloads evaluated in-process.
IN_PROCESS = {
    "analytic-bounds": analytic_bounds,
    "link-clean": link_clean,
    "link-traffic": link_traffic,
    "link-deepfade-is": link_deepfade_is,
}
