"""The host's current speed, from the CPU time of a fixed reference job.

On a shared host, the CPU time of the same work moves by up to half
within minutes: other tenants on the same physical core slow every
instruction.  The benchmark runs ``ReferenceJob`` between timed
operations and scales each operation's CPU time by REFERENCE_S over the
job's CPU time, which gives the operation's CPU time on a core that runs
the job in REFERENCE_S.  The job shares no code with permspec, so a
change to the program cannot change it.  It mixes the two kinds of work
the program does (many calls on 30-element arrays, and FFTs of a
permutation-gathered block) and keeps a working set of about 200 KiB.
Right after a program operation the job runs slower (by 5% after an
n=240 test, 20% after an n=5000 one), so it makes untimed passes first,
after which its time no longer depends on what ran before it.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the timed pass's CPU time on the 2-core Xeon host
# the benchmark was tuned on (1.9-2.8 ms); scaled times are then close
# to that host's CPU times.
REFERENCE_S = 0.002

WARM_PASSES = 3
SMALL_CALLS = 60
BLOCK_PASSES = 4


class ReferenceJob:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rng = rng
        self._small = rng.standard_normal(30)
        self._block = rng.standard_normal((100, 240))

    def cpu_s(self) -> float:
        """Run the job; the process CPU time of its timed pass in seconds."""
        for _ in range(WARM_PASSES):
            self._pass()
        start = time.process_time()
        self._pass()
        return time.process_time() - start

    def _pass(self) -> None:
        rng, small, block = self._rng, self._small, self._block
        for _ in range(SMALL_CALLS):
            values = small[rng.permutation(small.size)]
            float(np.abs(np.fft.rfft(values - values.mean())).max())
        for _ in range(BLOCK_PASSES):
            rows = block[rng.permutation(len(block))]
            float(np.abs(np.fft.rfft(rows, axis=1)).max(axis=1).sum())


def at_reference(cpu_s: float, reference_cpu_s: float) -> float:
    """CPU time scaled to a core that runs the reference job in REFERENCE_S."""
    return cpu_s * REFERENCE_S / reference_cpu_s
