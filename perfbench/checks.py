"""Output checks made apart from the program.

Each check is an independent computation (a closed form, a linear
program written here from the paper's Theorem 2, an error-free ceiling
derived from the frame layout) or a property the method must have. None
compares against a stored copy of earlier output, so a later change that
truly corrects a value is not failed by a stale reference. Every check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

#: Lengths of the production link codec the link workloads run: a CRC-16
#: appended to the payload, a rate-1/2 convolutional code with constraint
#: length 7 (6 zero tail bits), one BPSK symbol per coded bit.
CRC_BITS = 16
CODE_RATE_INVERSE = 2
TAIL_BITS = 6


def _c(snr):
    return np.log2(1.0 + snr)


def frame_symbols(payload_bits: int) -> int:
    """Channel symbols one frame of ``payload_bits`` occupies."""
    return CODE_RATE_INVERSE * (payload_bits + CRC_BITS + TAIL_BITS)


def goodput_ceiling(protocol_name: str, payload_bits: int) -> float:
    """Error-free goodput: both payloads delivered over one round's symbols.

    DT and MABC spend two full-frame phases per round and TDBC three.
    HBC splits each payload in halves and sends five half-frame slots:
    the two dedicated halves, one MAC slot carrying both other halves,
    and the relay's two network-coded halves back to back.
    """
    full = frame_symbols(payload_bits)
    half = frame_symbols(payload_bits // 2)
    symbols = {"DT": 2 * full, "MABC": 2 * full, "TDBC": 3 * full, "HBC": 5 * half}
    return 2.0 * payload_bits / symbols[protocol_name]


def mabc_theorem2_lp(gab: float, gar: float, gbr: float, power: float) -> float:
    """Max ``Ra + Rb`` over the MABC region of Theorem 2, by ``linprog``.

    Variables ``(Ra, Rb, d1, d2)``: phase 1 is the multiple-access phase
    into the relay, phase 2 the relay's broadcast; ``d1 + d2 = 1``.
    ``gab`` does not enter: MABC has no direct-link term.
    """
    c_ar, c_br = _c(power * gar), _c(power * gbr)
    c_mac = _c(power * (gar + gbr))
    a_ub = [
        [1, 0, -c_ar, 0],
        [1, 0, 0, -c_br],
        [0, 1, -c_br, 0],
        [0, 1, 0, -c_ar],
        [1, 1, -c_mac, 0],
    ]
    result = linprog(
        c=[-1, -1, 0, 0],
        A_ub=a_ub,
        b_ub=[0] * 5,
        A_eq=[[0, 0, 1, 1]],
        b_eq=[1],
        bounds=[(0, None)] * 4,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"Theorem 2 LP failed: {result.message}")
    return -result.fun


def analytic_ensemble(values, powers_db, draws, rng, n_lp: int = 48) -> list:
    """Checks of a ``(DT, MABC, TDBC, HBC) x power x gains x draw`` grid.

    ``draws`` are the realized ``(gab, gar, gbr)`` of the grid's single
    geometry, shape ``(D, 3)``.
    """
    errors = []
    dt, mabc, tdbc, hbc = (values[i, :, 0, :] for i in range(4))
    power = 10.0 ** (np.asarray(powers_db) / 10.0)
    closed = _c(power[:, None] * draws[None, :, 0])
    if not np.allclose(dt, closed, rtol=1e-12, atol=1e-12):
        worst = float(np.max(np.abs(dt - closed)))
        errors.append(f"DT differs from log2(1 + P*G_ab) by up to {worst:.3g}")
    errors += hbc_dominates(hbc, np.maximum(mabc, tdbc))
    steps = np.diff(values[:, :, 0, :], axis=1)
    if np.any(steps < -1e-12):
        errors.append(
            f"sum rate decreases in power on {int(np.sum(steps < -1e-12))} draws"
        )
    cells = rng.choice(mabc.size, size=min(n_lp, mabc.size), replace=False)
    for flat in cells:
        pi, di = np.unravel_index(flat, mabc.shape)
        expected = mabc_theorem2_lp(*draws[di], power[pi])
        if not math.isclose(mabc[pi, di], expected, rel_tol=1e-10, abs_tol=1e-12):
            errors.append(
                f"MABC at power {powers_db[pi]} dB draw {di}: kernel "
                f"{mabc[pi, di]!r} vs Theorem 2 LP {expected!r}"
            )
    return errors


def hbc_dominates(hbc, others) -> list:
    """HBC contains MABC and TDBC as special cases of its durations."""
    short = np.asarray(hbc) < np.asarray(others) - 1e-12
    if np.any(short):
        return [f"HBC below max(MABC, TDBC) on {int(short.sum())} cells"]
    return []


def goodput_within_ceiling(values, protocol_names, payload_bits: int) -> list:
    errors = []
    for i, name in enumerate(protocol_names):
        ceiling = goodput_ceiling(name, payload_bits)
        worst = float(np.max(values[i]))
        if worst > ceiling + 1e-12:
            errors.append(f"{name} goodput {worst!r} exceeds ceiling {ceiling!r}")
        if np.min(values[i]) < 0:
            errors.append(f"{name} goodput is negative")
    return errors


def latency_at_least_one_slot(values) -> list:
    values = np.asarray(values)
    if not np.all(np.isfinite(values)) or np.any(values < 1.0):
        return [f"p95 latency outside [1, inf) slots: {values.ravel().tolist()}"]
    return []


def knees_are_offered_rates(values, offered_rates) -> list:
    """A knee is the largest sustained offered rate, or 0 when the
    scheduler sustains none of them."""
    allowed = np.append(np.asarray(offered_rates, dtype=float), 0.0)
    off = [
        float(v)
        for v in np.asarray(values).ravel()
        if not np.any(np.isclose(v, allowed, rtol=0, atol=1e-12))
    ]
    if off:
        return [f"knees {off} are not offered rates {allowed.tolist()}"]
    return []


def fer_in_unit_interval(values) -> list:
    values = np.asarray(values)
    if not np.all(np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
        return [f"FER outside [0, 1]: {values.ravel().tolist()}"]
    return []


def estimates_agree(p_is: float, rel_std_error: float, errors: int, trials: int, z=3.0):
    """An importance-sampled FER within ``z`` combined standard errors of a
    vanilla estimate: the IS side at the relative standard error its
    weighted estimator achieved, the vanilla side as a binomial
    proportion. The test is two-sided: an IS estimate too high fails as
    surely as one too low."""
    p_v = errors / trials
    se_v = math.sqrt(max(p_v * (1.0 - p_v), 1.0 / trials) / trials)
    se_is = rel_std_error * p_is
    if abs(p_is - p_v) > z * math.hypot(se_is, se_v):
        return [
            f"IS FER {p_is:.4g} (achieved rel. std. error {rel_std_error:.3g}) "
            f"disagrees with vanilla {p_v:.4g} ({errors}/{trials} frames)"
        ]
    return []
