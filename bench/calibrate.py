"""Machine-speed calibration for the timed figures.

On a shared host the speed of one core drifts by half or more within
minutes, while abslog's share of the work stays the same.  So every timed
verdict and every set-up is bracketed by `probe()`, a fixed pure-Python
loop of the same kind of work (calls, tuples, dicts, strings) that uses no
abslog code, and its time is reported at reference speed:

    reference seconds = wall seconds * REFERENCE_S / (probe time nearby)

A change to abslog moves the wall seconds and not the probe, so it shows
in full; a slower or faster machine moves both, and cancels.
"""
from __future__ import annotations

import time

# the probe's median time on a 2-vCPU Intel Xeon VM (Python 3.11); a figure
# at reference speed is what that machine gives at its median speed
REFERENCE_S = 0.004

_ROUNDS = 1500


def _nest(t: tuple, k: int) -> tuple:
    return t if k == 0 else _nest((k, t), k - 1)


def _work() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(_ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += len(_nest((), 8))
        words = f"x{i} -> y{i % 7} /\\ z".split()
        acc += len(" ".join(w for w in words if w[0] != "/"))
        acc ^= hash(key) & 7
    return acc + sum(table.values())


def probe() -> float:
    """Seconds one fixed unit of work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at reference speed."""
    return seconds * REFERENCE_S / probe_s
