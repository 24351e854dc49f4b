"""Host-speed reference: a fixed piece of work timed next to the measured work.

On a shared machine the same pass can run up to twice as slow for tens of
seconds to minutes at a time while other tenants are busy, with no steal
time to show for it, and no hardware counter is available to count work
instead of time.  So the benchmark times a fixed reference workload, which
imports nothing from lgcf, before, during and after every measured segment,
and scales the segment by how much slower than NOMINAL_S the reference ran
meanwhile (see Meter).  A scaled time reads as the seconds the segment
would take on a host that runs the reference in NOMINAL_S; a change to
lgcf moves it as it moves wall time, a busy neighbour mostly does not.

The reference mixes what lgcf spends its time on: an interpreted restart
walk and breadth-first labeling over Python lists, sets and dicts, small
dense matrix products like the GCN forward pass, and a sparse propagation
over a few thousand nodes like LightGCN's.
"""

import signal
from collections import deque
from time import perf_counter

import numpy as np
import scipy.sparse as sp

# Median reference time on the measuring machine when it is quiet (see
# perfbench/README.md); a constant, so scaled times compare across runs.
NOMINAL_S = 0.030
# Seconds of measured work between two reference samples taken during it.
SAMPLE_EVERY_S = 0.5

_NODES = 400
_DEGREE = 8
_WALKS = 300
_WALK_LEN = 40
_GCN_ROUNDS = 240
_PROP_NODES = 4000
_PROP_ROUNDS = 3


class Reference:
    """The reference workload and every time it took in this run."""

    def __init__(self):
        rng = np.random.default_rng(20211)
        nbrs = rng.integers(0, _NODES, size=(_NODES, _DEGREE))
        self.adj = [sorted(set(int(v) for v in row) - {u}) for u, row in enumerate(nbrs)]
        self.adj_arrays = [np.asarray(row, dtype=np.int64) for row in self.adj]
        self.draws = rng.random((_WALKS, 2, _WALK_LEN))
        self.features = rng.standard_normal((40, 32))
        self.weights = [rng.standard_normal((32, 32)) * 0.2 for _ in range(3)]
        self.small_adj = (rng.random((40, 40)) < 0.1).astype(np.float64)
        rows = rng.integers(0, _PROP_NODES, 16 * _PROP_NODES)
        cols = rng.integers(0, _PROP_NODES, 16 * _PROP_NODES)
        self.prop = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                  shape=(_PROP_NODES, _PROP_NODES))
        self.table = rng.standard_normal((_PROP_NODES, 64))
        self.times: list[float] = []
        self.expected = self._work()

    def _walks(self) -> int:
        total = 0
        for w in range(_WALKS):
            restarts, moves = self.draws[w]
            start = cur = w % _NODES
            seen = {start}
            visited = [start]
            for t in range(_WALK_LEN):
                if restarts[t] < 0.15:
                    cur = start
                    continue
                nbrs = self.adj_arrays[cur]
                cur = int(nbrs[int(moves[t] * nbrs.size)])
                if cur not in seen:
                    seen.add(cur)
                    visited.append(cur)
            dist = {visited[0]: 0}
            queue = deque([visited[0]])
            while queue:
                u = queue.popleft()
                for v in self.adj[u]:
                    if v in seen and v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            total += len(visited) + sum(dist.values())
        return total

    def _gcn(self) -> float:
        a = self.small_adj + np.eye(40)
        d = 1.0 / np.sqrt(a.sum(axis=1))
        a = a * d[:, None] * d[None, :]
        out = 0.0
        for _ in range(_GCN_ROUNDS):
            h = self.features
            for w in self.weights:
                h = np.tanh(a @ h @ w)
            out += float(h.sum())
        return out

    def _propagate(self) -> float:
        h = self.table
        for _ in range(_PROP_ROUNDS):
            h = self.prop @ h * 0.05
        return float(np.abs(h).sum())

    def _work(self):
        return self._walks(), self._gcn(), self._propagate()

    def sample(self) -> float:
        """Run the reference once; return and keep its time."""
        t0 = perf_counter()
        out = self._work()
        elapsed = perf_counter() - t0
        if out != self.expected:
            raise RuntimeError("the host-speed reference gave a different result")
        self.times.append(elapsed)
        return elapsed


class Meter:
    """Times segments of measured work, scaled by the reference around each.

    run(fn) calls fn and adds its wall time to `wall` and its scaled time
    to `scaled`; take() returns both sums and resets them.  The host slows
    in phases of about a second, so a sample before and after a segment of
    ten seconds says little about the host during it.  While fn runs, an
    interval timer therefore interrupts it every SAMPLE_EVERY_S seconds to
    sample the reference, and the interruptions are not counted in its
    time.  A segment is scaled by the mean of the sample before it, the
    samples during it and the sample after it, which also serves as the
    "before" sample of the next segment.

    Workloads do not all slow as much as the reference when the host is
    busy, so the scale factor NOMINAL_S / mean is raised to the workload's
    `elasticity`: the slope of log wall time over log reference time
    measured for that workload, 1 for one that slows just as much.  Without
    a reference, `scaled` stays equal to `wall`.
    """

    def __init__(self, reference: Reference | None, elasticity: float = 1.0):
        self.reference = reference
        self.elasticity = elasticity
        self.wall = 0.0
        self.scaled = 0.0
        self._samples: list[float] = []
        self._pauses: list[tuple[float, float]] = []
        if reference is not None:
            signal.signal(signal.SIGALRM, self._interrupt)
            self._samples.append(reference.sample())

    def _interrupt(self, signum, frame) -> None:
        t0 = perf_counter()
        self._samples.append(self.reference.sample())
        self._pauses.append((t0, perf_counter() - t0))

    def run(self, fn, *args, **kwargs):
        if self.reference is None:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
            self.wall += elapsed
            self.scaled += elapsed
            return out
        self._pauses = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        # A sample taken after t1 but before the timer stopped is kept as a
        # sample but was never inside the measured interval.
        elapsed = t1 - t0 - sum(d for start, d in self._pauses if start < t1)
        self._samples.append(self.reference.sample())
        self.wall += elapsed
        host = sum(self._samples) / len(self._samples)
        self.scaled += elapsed * (NOMINAL_S / host) ** self.elasticity
        self._samples = self._samples[-1:]
        return out

    def take(self) -> tuple[float, float]:
        out = (self.wall, self.scaled)
        self.wall = self.scaled = 0.0
        return out
