"""The machine's current speed, for times that compare across runs.

On a shared host the same request can take twice as long from one
second to the next, because the CPU is shared with other machines.
The benchmark therefore times a fixed reference kernel right before and
right after every timed request, and reports each request's time in
reference seconds: its wall time scaled by ``REFERENCE_S`` over the
kernel's time around it.  A request that is slowed only because the
machine is slowed keeps its figure; a request that does more or less
work moves.

The kernel uses builtins only (no imports), so a fresh interpreter can
run it before importing ``autgeom`` without importing anything the
program would otherwise import itself.
"""

from time import perf_counter

# The kernel's time, in seconds, at the reference speed: about its time
# on an unloaded 2-CPU x86_64 Linux machine with Python 3.11, so that a
# reference second is about one wall second there.
REFERENCE_S = 0.001


def kernel(n=2000):
    """Fixed interpreter work: integer arithmetic, dict, tuple and list
    operations, sorting."""
    acc = {}
    xs = []
    total = 0
    for i in range(n):
        k = (i * 7919) % 1009
        acc[k] = acc.get(k, 0) + i
        xs.append((k, i))
        total += (k * 360360) % (i + 1)
        if len(xs) > 64:
            xs.sort()
            xs.clear()
    return total + len(acc)


def sample(runs=1):
    """Wall time of one run of the kernel: the median of ``runs`` runs."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[runs // 2]


def scale(seconds, before, after):
    """``seconds`` of wall time, between kernel samples ``before`` and
    ``after``, in reference seconds."""
    return seconds * REFERENCE_S * 2 / (before + after)
