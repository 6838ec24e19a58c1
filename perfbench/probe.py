"""Child-process entry points of the benchmark.

``probe.py setup WORKLOAD SEED`` is the set-up the ``setup_s`` metric
times from outside: a fresh interpreter imports ``repro``, resolves the
workload's scenarios and lowers them to campaign specs, then exits.

``probe.py rounds WORKLOAD SEED SECONDS INDEX OUT [DUMP]`` is one of the
fresh processes an in-process workload measures its rounds in (see
``inprocess.run_process``).

``probe.py serve-traced DUMP -- SERVE-ARGS`` runs ``repro serve`` with
the layer wrappers installed and writes the daemon's spans to ``DUMP``
when it has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import require_source


def setup(workload: str, seed: int) -> None:
    import inputs

    for scenario in inputs.IN_PROCESS[workload](seed):
        scenario.to_campaign_spec()


def serve_traced(dump: str, serve_args: list) -> int:
    from spans import Tracer

    from repro.cli import main

    tracer = Tracer()
    tracer.install()
    try:
        return main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(Path(dump), "daemon")


if __name__ == "__main__":
    require_source()
    command, rest = sys.argv[1], sys.argv[2:]
    if command == "setup":
        setup(rest[0], int(rest[1]))
    elif command == "rounds":
        import inprocess

        workload, seed, seconds, index, out = rest[:5]
        dump = Path(rest[5]) if len(rest) > 5 else None
        inprocess.run_process(workload, int(seed), float(seconds), int(index), Path(out), dump)
    elif command == "serve-traced":
        sys.exit(serve_traced(rest[0], rest[2:] if rest[1:2] == ["--"] else rest[1:]))
    else:
        raise SystemExit(f"unknown probe command {command!r}")
