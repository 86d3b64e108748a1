"""Wall time rescaled to a reference host speed.

On a VM whose cores other tenants share, speed drifts by tens of
percent, within seconds and from one minute to the next, with nothing
of the benchmark's own changing.  A run therefore brackets every timed
interval with *probes*: a fixed computation that touches no oaplib code
and does the same kind of work as the interval (interpreted Python,
dense LAPACK, or NumPy array streaming).  The interval's wall time is
multiplied by ``ref_ms / mean(probe before, probe after)``, which gives
the seconds it would have taken on a host where the probe reads
``ref_ms``.  Only the host moves a probe, so a change to oaplib moves
the rescaled time as much as the wall time.
"""

import time

import numpy as np
import scipy.sparse


class Probe:
    """A fixed oaplib-free computation, timed in milliseconds.

    ``ref_ms`` is what it reads on the reference host, about its
    tenth percentile on a 2-vCPU Xeon VM: a constant, so that rescaled
    times are comparable across runs and commits.
    """

    def __init__(self, name, ref_ms, work):
        self.name, self.ref_ms, self._work = name, ref_ms, work

    def __call__(self):
        t0 = time.perf_counter()
        self._work()
        return (time.perf_counter() - t0) * 1e3


def python_probe():
    """An interpreter loop, for work that is Python bookkeeping."""
    def work():
        total = 0
        for i in range(100_000):
            total += i * i
        return total
    return Probe("python-loop", 5.5, work)


def qr_probe():
    """Householder QR of a 361 x 182 matrix, the shape ``ap`` factors
    for convdiff 19x19 in two blocks, on OpenBLAS's default threads."""
    W = np.random.default_rng(0).standard_normal((361, 182))
    return Probe("numpy-qr", 6.5, lambda: np.linalg.qr(W))


def csr_probe():
    """Six CSR products done with NumPy gathers and a scatter-add
    (``np.bincount``) over the 5-point Laplacian on a 200 x 200 grid:
    array-at-a-time work on 200 000 entries, larger than L2."""
    m = 200
    T = scipy.sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    M = (scipy.sparse.kron(scipy.sparse.identity(m), T)
         + scipy.sparse.diags([-1.0, -1.0], [-m, m], shape=(m * m, m * m))).tocsr()
    rows = np.repeat(np.arange(m * m), np.diff(M.indptr))
    v = np.ones(m * m)

    def work():
        for _ in range(6):
            np.bincount(rows, weights=M.data * v[M.indices], minlength=m * m)
    return Probe("numpy-csr", 6.0, work)


class HostClock:
    """Rescales the wall time of intervals bracketed by probes."""

    def __init__(self, probe):
        self.probe = probe
        self.readings = []
        self._last = None

    def start(self):
        """Probe before an interval."""
        self._last = self.probe()
        self.readings.append(self._last)

    def rescale(self, seconds):
        """Probe after the interval(s) just timed; returns ``seconds``
        (a list of wall times taken since :meth:`start`) rescaled."""
        now = self.probe()
        self.readings.append(now)
        scale = self.probe.ref_ms / ((self._last + now) / 2)
        self._last = now
        return [s * scale for s in seconds]
