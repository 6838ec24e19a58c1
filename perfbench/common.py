"""Shared plumbing of the benchmark: checkout paths, statistics, run record.

Everything the benchmark writes goes under ``.perfbench/`` at the root of
the checkout it runs in; nothing is read or written outside the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def require_source() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit.

    The benchmark measures the program of the checkout it sits in and
    nothing else, so a checkout without ``src/repro`` is an error, never
    a silent fallback to some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def n_cores() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def scratch_root() -> Path:
    """This process's scratch directory under ``.perfbench/``."""
    return WORK / "tmp" / str(os.getpid())


def scratch_dir(label: str) -> Path:
    """A fresh, empty directory in :func:`scratch_root`."""
    path = scratch_root() / label
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples):
    """``(p, value, n)`` for the highest of p90/p95/p99/p99.9 that has at
    least ten samples beyond it, or ``None`` when none has."""
    n = len(samples)
    eligible = [p for p in (90.0, 95.0, 99.0, 99.9) if n * (1.0 - p / 100.0) >= 10.0]
    if not eligible:
        return None
    ordered = sorted(samples)
    index = min(n - 1, int(round(eligible[-1] / 100.0 * (n - 1))))
    return eligible[-1], ordered[index], n


def timed_launches(argv, count: int) -> list:
    """Wall seconds of ``count`` fresh-interpreter runs of ``argv``."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(
            argv,
            cwd=ROOT,
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        samples.append(time.perf_counter() - started)
    return samples


def peak_rss_mb_self() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": n_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def emit(line: str = "") -> None:
    print(line, flush=True)


def emit_json(label: str, data) -> None:
    emit(f"{label} {json.dumps(data, sort_keys=True)}")
