"""Discrete-event engine: simulated clock, priority queue, seeded RNG streams."""

import heapq
import random


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past."""


class EventKernel:
    """Single-threaded event loop owning the simulated clock.

    One kernel per simulation run; independent runs share nothing. Events
    wait in a binary heap of entries [fire_time, seq, fn, node, kind,
    detail], where seq is the count of events scheduled before. seq is
    unique, so list comparison orders entries by fire time, FIFO among equal
    fire times, in C, and never reaches fn. The entry is also the handle
    `schedule` returns: its fn slot is None once the event is dispatched or
    cancelled, and a cancelled entry stays in the heap and is skipped when it
    comes to the top.
    """

    def __init__(self, trace=None):
        self.now = 0.0
        self._queue = []
        self.scheduled = 0
        self.dispatched = 0
        self.cancelled = 0
        self.trace = trace  # optional callable(line) for the event-trace dump

    @property
    def pending(self):
        return self.scheduled - self.dispatched - self.cancelled

    def schedule(self, fire_time, fn, kind="timer", node=-1, detail=""):
        """Enqueue fn to run at fire_time; returns the entry as a handle for
        `cancel`."""
        if fire_time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={fire_time} before now={self.now}")
        entry = [fire_time, self.scheduled, fn, node, kind, detail]
        heapq.heappush(self._queue, entry)
        self.scheduled += 1
        return entry

    def schedule_in(self, delay, fn, kind="timer", node=-1, detail=""):
        return self.schedule(self.now + delay, fn, kind, node, detail)

    def cancel(self, entry):
        """Cancel an unfired event. Returns True iff the event will now never fire."""
        if entry is None or entry[2] is None:
            return False
        entry[2] = None
        self.cancelled += 1
        return True

    def run_until(self, t_end):
        """Dispatch every event with fire_time <= t_end; leaves now == t_end.

        Each dispatched event writes one line, without its newline, to the
        trace callable when one is set. The timestamp is formatted once for
        each run of equal fire times.
        """
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end}) before now={self.now}")
        before = self.dispatched
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace
        stamp_time = stamp = None
        while queue and queue[0][0] <= t_end:
            entry = pop(queue)
            fire_time, _, fn, node, kind, detail = entry
            if fn is None:
                continue
            entry[2] = None
            self.now = fire_time
            self.dispatched += 1
            if trace is not None:
                if fire_time != stamp_time:
                    stamp_time = fire_time
                    stamp = f"{fire_time:.9f}"
                trace(f"{stamp}\t{node}\t{kind}\t{detail}")
            fn()
        self.now = t_end
        return self.dispatched - before


class RandomStream:
    """Seeded pseudo-random stream with deterministic, named substreams.

    Substreams are seeded from the string "<path>/<label>", which CPython's
    random.seed hashes with sha512, so draw sequences are identical across
    runs and platforms. Forking per (node, purpose) keeps each stream's
    sequence of values independent of the draws made on every other stream.
    Which event receives which value still follows the order of the draws:
    relay jitters are drawn in frame arrival order, so anything that moves
    arrivals at a node, such as another security mode, re-assigns them.
    """

    def __init__(self, seed, _path=None):
        self.seed = seed
        self._path = str(seed) if _path is None else _path
        self._rng = random.Random(self._path)

    def fork(self, label):
        return RandomStream(self.seed, f"{self._path}/{label}")

    def random(self):
        return self._rng.random()

    def uniform(self, a, b):
        return self._rng.uniform(a, b)

    def randrange(self, n):
        return self._rng.randrange(n)

    def randint(self, a, b):
        return self._rng.randint(a, b)

    def choice(self, seq):
        return self._rng.choice(seq)

    def sample(self, seq, k):
        return self._rng.sample(seq, k)

    def shuffle(self, seq):
        self._rng.shuffle(seq)
