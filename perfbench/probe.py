"""Machine-speed probe: a fixed computation timed throughout a run.

Where a machine's cores are shared with other work, a fixed loop can run
up to twice as slow for seconds to minutes at a time, which moves every
wall-clock figure of a run together. The benchmark therefore times this
probe every PERIOD_S seconds, at the next phase boundary, and scales its
wall-clock metrics to the speed at which the probe takes REFERENCE_S. The
probe mixes what dtst spends its time on: small float64 matrix products
and ufuncs, reductions, a sort, random draws and interpreter work on dicts.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import erf

REFERENCE_S = 0.0065
PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(32, 18, 16))
_W1 = _rng.normal(size=(16, 64)) / 4
_W2 = _rng.normal(size=(64, 16)) / 8
_G = _rng.normal(size=(1024, 16))


def probe_seconds():
    """Time one pass of the fixed computation."""
    t0 = perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(6):
        h = _X @ _W1
        a = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        y = a @ _W2
        z = (y - y.mean(-1, keepdims=True)) / np.sqrt(y.var(-1, keepdims=True) + 1e-6)
        e = np.exp(z - z.max(-1, keepdims=True))
        s = e / e.sum(-1, keepdims=True)
        np.swapaxes(a, -1, -2) @ s
        np.argsort(-(_G @ _G[0]), kind="stable")
        rng.normal(size=(16, 8))
        table = {i: (i, float(i)) for i in range(100)}
        sum(v[1] for v in table.values())
    return perf_counter() - t0
