"""A fixed unit of work timed between operations as the yardstick for
the machine's current speed.

On a shared 2-vCPU Xeon virtual machine the speed drifted by up to 40%
over minutes (other tenants share the cores), which moved every
operation's time together.  Dividing operation times by the median of
the samples taken in the same pass cancels most of that drift; over ten
seeds it cut the spread of the summed times from 0.23-0.31 to 0.07-0.17
of the median.  The work mixes what the program does:
4x4 gate products built in a Python loop, and a dense 104x104 complex
product of the size the ion-trap integrator uses.  It imports nothing
from ``cpgates``, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_I4 = np.eye(4, dtype=complex)
_rng = np.random.default_rng(0)
_BIG = (_rng.standard_normal((104, 104)) + 1j * _rng.standard_normal((104, 104))) / 104


def _work():
    acc = _I4
    for k in range(250):
        x = 0.01 * k
        s = np.array([[0, np.exp(-1j * x)], [np.exp(1j * x), 0]])
        acc = (np.cos(x) * _I4 + 1j * np.sin(x) * np.kron(_SX, s)) @ acc
    m = _BIG
    for _ in range(12):
        m = _BIG @ m
    return acc, m


def sample() -> float:
    """Seconds taken by one unit of reference work."""
    start = perf_counter()
    _work()
    return perf_counter() - start
