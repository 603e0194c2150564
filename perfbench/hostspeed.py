"""How fast the host runs rislink-like code at this moment.

The benchmark's host is shared: other tenants change the CPU's speed in
phases lasting seconds to minutes, by up to a factor of two.  A fixed
kernel, timed between the workload's calls in the workload's own
process, measures that speed.  It mixes what rislink's hot paths do:
interpreter-bound Python, small complex matrix products with a phase
vector (the shape of composite assembly), a small log-determinant (a
rate) and elementwise powers.  Its arrays are a few kilobytes, so it
does not move the process's peak resident memory.  It never calls
rislink, so no change to the package changes its time.

``NOMINAL_S`` is one sample's time on a quiet host; a wall time
multiplied by ``NOMINAL_S / sample`` is that time on such a host.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.015

_rng = np.random.default_rng(20240601)
_RX = _rng.standard_normal((4, 128)) + 1j * _rng.standard_normal((4, 128))
_TX = _rng.standard_normal((128, 64)) + 1j * _rng.standard_normal((128, 64))
_PHASE = np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, 128))
_EYE = np.eye(4)


def _kernel() -> float:
    table: dict[int, int] = {}
    for i in range(30000):
        key = i & 63
        table[key] = table.get(key, 0) + i * 3 % 7
    total = float(sum(table.values()))
    for _ in range(250):
        h = (_RX * _PHASE) @ _TX
        total += np.linalg.slogdet(_EYE + h @ h.conj().T)[1]
        total += float(np.sum(np.abs(h) ** 2))
    return total


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
