"""Discrete-event engine: simulated clock, priority queue, seeded RNG streams."""

import heapq
import random


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past."""


class Event:
    """A scheduled simulation action, and the handle `schedule` returns.

    The kernel's heap holds (fire_time, sequence, event) tuples rather than
    events. The sequence number is unique per kernel, so tuple comparison
    orders entries by fire time, FIFO among equal fire times, in C, and never
    compares two events. fn is None once the event is dispatched or cancelled.
    """

    __slots__ = ("fire_time", "kind", "node", "detail", "fn")

    def __init__(self, fire_time, kind, node, detail, fn):
        self.fire_time = fire_time
        self.kind = kind
        self.node = node
        self.detail = detail
        self.fn = fn


class EventKernel:
    """Single-threaded event loop owning the simulated clock.

    One kernel per simulation run; independent runs share nothing. Events
    wait in a binary heap of (fire_time, sequence, event) tuples, the
    sequence being the count of events scheduled before; a cancelled event
    stays in the heap and is skipped when it comes to the top.
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
        """Enqueue fn to run at fire_time; returns a cancellable Event handle."""
        if fire_time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={fire_time} before now={self.now}")
        ev = Event(fire_time, kind, node, detail, fn)
        heapq.heappush(self._queue, (fire_time, self.scheduled, ev))
        self.scheduled += 1
        return ev

    def schedule_in(self, delay, fn, kind="timer", node=-1, detail=""):
        return self.schedule(self.now + delay, fn, kind, node, detail)

    def cancel(self, ev):
        """Cancel an unfired event. Returns True iff the event will now never fire."""
        if ev is None or ev.fn is None:
            return False
        ev.fn = None
        self.cancelled += 1
        return True

    def run_until(self, t_end):
        """Dispatch every event with fire_time <= t_end; leaves now == t_end.

        Each dispatched event writes one line, without its newline, to the
        trace callable when one is set.
        """
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end}) before now={self.now}")
        before = self.dispatched
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace
        while queue and queue[0][0] <= t_end:
            fire_time, _, ev = pop(queue)
            fn = ev.fn
            if fn is None:
                continue
            ev.fn = None
            self.now = fire_time
            self.dispatched += 1
            if trace is not None:
                trace(f"{fire_time:.9f}\t{ev.node}\t{ev.kind}\t{ev.detail}")
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
