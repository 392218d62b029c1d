"""Machine-speed calibration: scale walls to a fixed reference speed.

The benchmark runs on a shared virtual machine whose speed drifts by up to
a factor of two, from one second to the next and over minutes (other
tenants; no time is reported as stolen, so process CPU time drifts just as
much).  The drift is common to all compute: the wall of a pistonflow
operation divided by the wall of a fixed kernel that never touches
pistonflow keeps its median while both raw walls move together.

So the benchmark times the kernel right before and right after every
operation, and for in-process runs also every half second inside the run
(from the ``progress`` callback, with the kernel's own time left out of the
wall).  Each stretch between two samples is scaled by ``REFERENCE_S`` over
their mean: the wall the operation would have had with the machine at the
reference speed.  Medians over operations absorb the noise of single
kernel samples (about 10 % between consecutive ones).

Not all code slows down as much as the kernel does: interpreter-bound
in-process runs follow it one for one, while CLI children (process start,
imports) and the n=4096 runs (larger arrays) move about half as much.  So
the ratio is raised to the workload's ``ELASTICITY`` before it multiplies
the wall.  A change to pistonflow moves the scaled wall exactly as it moves
the raw one; only the machine's drift is taken out.  The raw walls and the
kernel's median are printed too.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: kernel wall on the machine the benchmark was defined on, at its fast
#: (uncontended) speed: Intel Xeon 2.1 GHz vCPU, Python 3.11.7, numpy 2.4.6
REFERENCE_S = 0.030

_ROUNDS = 4000

#: log(raw wall) / log(kernel wall) under the machine's drift, per workload.
#: From the defining machine: over 20-second windows of one depletion_sweep
#: scenario, exponent 1 left a 3 % spread of scaled walls against 13 % for
#: 0.5; over 10-20 runs of each of the others, regressing the log of the
#: median raw pass wall on the log of the median kernel gave slopes 0.48
#: (cli_sweep), 0.42 (fine_grid) and 0.90 (verify).
ELASTICITY = {
    "cli_sweep": 0.5,
    "depletion_sweep": 1.0,
    "fine_grid": 0.5,
    "verify": 1.0,
}

#: the set-up probes are fresh interpreters importing the CLI, like cli_sweep
SETUP_ELASTICITY = ELASTICITY["cli_sweep"]


def kernel_s() -> float:
    """Wall of a fixed mix of interpreter work and small numpy calls.

    The mix resembles one solver step: Python-level arithmetic and function
    calls around numpy operations on a 49-element array.
    """
    x = np.linspace(0.0, 1.0, 49)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        y = np.diff(x) * 2.0 + x[:-1]
        acc += float(np.sum(y * y)) + sum(j * 0.5 for j in range(10))
    wall = time.perf_counter() - t0
    if not acc > 0.0:  # keeps the loop's result live
        raise RuntimeError("calibration kernel produced no result")
    return wall


def scale(walls_ns: Sequence[float], kernels_s: Sequence[float],
          elasticity: float) -> float:
    """Factor from a raw wall to the wall at the reference speed.

    The wall is made of consecutive segments ``walls_ns``; ``kernels_s``
    holds one more kernel sample than there are segments, taken at every
    segment boundary.  Each segment is scaled by ``REFERENCE_S`` over the
    mean of the samples on either side of it, to the power ``elasticity``.
    """
    if len(kernels_s) != len(walls_ns) + 1:
        raise ValueError("need one kernel sample at each segment boundary")
    scaled = sum(w * (REFERENCE_S / (0.5 * (a + b))) ** elasticity
                 for w, a, b in zip(walls_ns, kernels_s, kernels_s[1:]))
    return scaled / sum(walls_ns)
