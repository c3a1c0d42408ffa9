"""The machine's speed at the moment, from a fixed reference computation.

The shared machines this benchmark was sized on change speed by up to half
from one quarter second to the next and drift by tens of percent over
minutes, so raw times of the same work differ more between runs than the
bounds allow. A fixed computation timed next to the program's work slows
by the same factor: over two-second windows of the same requests, their
time moved by 40-49% (interquartile range over median) and their time
relative to this reference by 5-6%. Every time metric is therefore scaled
to REFERENCE_NS: a request that took t is reported as t * REFERENCE_NS / r,
the time it would take on a machine where the reference takes
REFERENCE_NS. Here r is the mean of the reference timings from d before
the request starts to d after it ends (see REACH), always counting the
last timing before it and the first after it. A short request is so
scaled by the speed right around it. A long one needs the mean over a
longer stretch: the two timings right before and after a three-second
census request left the spread of the slowest request's scaled time near
that of its raw time, and a mean over ten seconds halved it.

The reference is integer elimination in plain Python, from the benchmark's
own code, so no change to assoc2 moves it. It imports nothing, so that a
fresh interpreter can time it before importing assoc2 without loading any
module assoc2's import would otherwise pay for.
"""

import bisect
import time

# About the reference's time on the two-vCPU machine with Python 3.11.7 the
# bounds were set on; it only sets the scale on which times are reported.
REFERENCE_NS = 1_000_000
# Served time after which the next reference timing is due.
EVERY_NS = 100_000_000
# A request is scaled by the reference timings from d before it to d after
# it, d being the longer of EVERY_NS and REACH times its own time.
REACH = 4


def _lcg_matrix(size: int, seed: int = 1) -> list:
    rows, x = [], seed
    for _ in range(size):
        row = []
        for _ in range(size):
            x = (x * 1103515245 + 12345) % (1 << 31)
            row.append(x % 199 - 99)
        rows.append(row)
    return rows


_MATRIX = _lcg_matrix(10)  # nonsingular, so elimination runs to the end


def _bareiss(rows) -> int:
    """Determinant by fraction-free elimination; the work, not the value,
    matters here."""
    m = [list(r) for r in rows]
    n, prev, sign = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def reference_ns() -> int:
    """Nanoseconds the reference takes now: the fastest of three tries."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        for _ in range(10):
            _bareiss(_MATRIX)
        ns = time.perf_counter_ns() - start
        best = ns if best is None or ns < best else best
    return best


class SpeedLog:
    """Reference timings taken between timed requests, and the scaling of
    each request by the timings around it.

    Call ``begin`` right before a series of requests, ``after`` after each
    one (outside its timed region) and ``scaled`` right after the last one.
    ``measure`` and ``clock`` are the reference and the clock; a test can
    put fakes in their place.
    """

    def __init__(self, measure=reference_ns, clock=time.perf_counter_ns):
        self.measure, self.clock = measure, clock
        self.times, self.refs = [], []  # reference timings, in time order
        self.spans = []  # (start, end) of each request not yet scaled
        self.since = 0

    def sample(self) -> None:
        """Take a reference timing."""
        self.times.append(self.clock())
        self.refs.append(self.measure())
        self.since = 0

    begin = sample

    def after(self, ns) -> None:
        end = self.clock()
        self.spans.append((end - ns, end))
        self.since += ns
        if self.since >= EVERY_NS:
            self.sample()

    def scaled(self, ns_list) -> list:
        """The requests logged since the last call, in order, scaled to
        REFERENCE_NS."""
        if len(ns_list) != len(self.spans):
            raise ValueError("one time per request logged")
        if self.spans and self.times[-1] < self.spans[-1][1]:
            self.sample()
        spans, self.spans = self.spans, []
        out = []
        for ns, (start, end) in zip(ns_list, spans):
            reach = max(EVERY_NS, REACH * (end - start))
            lo = min(bisect.bisect_left(self.times, start - reach),
                     bisect.bisect_right(self.times, start) - 1)
            hi = max(bisect.bisect_right(self.times, end + reach),
                     bisect.bisect_left(self.times, end) + 1)
            near = self.refs[lo:hi]
            out.append(ns * REFERENCE_NS * len(near) / sum(near))
        return out
