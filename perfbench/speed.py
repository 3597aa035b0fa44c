"""Machine-speed reference for the benchmark's CPU times.

On a shared host the CPU time of the same op moves with the machine's
speed: another tenant on the same physical core or a change of clock made
identical cycles take from 2.6 to 4.5 s of CPU within minutes.  The
benchmark runs a fixed reference pass after every op, times it on the
benchmark's own thread, and scales each op's CPU time by how fast the
machine ran the reference around that op.  A scaled time is the time the op
would take at the speed where one reference pass takes NOMINAL_S.

The reference is the benchmark's own code, the same on every commit, so a
change to the program moves the scaled times as it moves the raw ones.  It
is timed with the CPU clock of its own thread, so CPU that the program
spends in other threads counts against the program and never speeds the
reference up.
"""

import time

NOMINAL_S = 0.0035  # CPU seconds of one reference pass at the nominal speed
WINDOW = 9  # reference passes around an op that set its speed factor


def reference_pass() -> float:
    """Run the fixed reference work once; returns its thread CPU seconds.

    Python float arithmetic, dict and list traffic and small numpy calls,
    the kinds of work a mospaces op is made of.
    """
    # numpy is imported here, not at the top: run.py imports this module
    # first, and numpy loaded before the configs are built raised the
    # benchmark's peak RSS by 13 MiB through heap layout alone
    import numpy as np

    t0 = time.thread_time()
    acc, table, row = 0.0, {}, []
    for i in range(9000):
        acc += (i * 0.5) ** 1.5 / (1.0 + i)
        table[i & 63] = acc
        if i & 7 == 0:
            row.append(acc)
    x = np.linspace(0.1, 2.0, 256)
    for _ in range(90):
        x = np.sqrt(x * x + 1.0) - 0.5
    row.sort()
    return time.thread_time() - t0


def factor(ref: list) -> float:
    """Speed factor of a stretch of reference passes: NOMINAL_S over their
    mean time, so that a CPU time times the factor is at the nominal speed."""
    return NOMINAL_S * len(ref) / sum(ref)


def factors(ref: list, window: int = WINDOW) -> list:
    """Speed factor at each position, from the ``window`` passes centred on
    it (cut at the ends of the list)."""
    half = window // 2
    return [factor(ref[max(0, i - half) : i + half + 1]) for i in range(len(ref))]
