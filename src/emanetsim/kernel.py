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

        Each dispatched event passes one line, ending in its newline, to the
        trace callable when one is set, so a file's `write` serves as the
        callable.
        """
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end}) before now={self.now}")
        before = self.dispatched
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace
        while queue and queue[0][0] <= t_end:
            entry = pop(queue)
            fire_time, _, fn, node, kind, detail = entry
            if fn is None:
                continue
            entry[2] = None
            self.now = fire_time
            self.dispatched += 1
            if trace is not None:
                trace("%.9f\t%s\t%s\t%s\n" % (fire_time, node, kind, detail))
            fn()
        self.now = t_end
        return self.dispatched - before


class RandomStream(random.Random):
    """Seeded pseudo-random stream with deterministic, named substreams.

    A stream is seeded from the string of its seed, and a substream from the
    string "<path>/<label>"; CPython's random.seed hashes strings with
    sha512, so draw sequences are identical across runs and platforms.
    Forking per (node, purpose) keeps each stream's sequence of values
    independent of the draws made on every other stream. Which event
    receives which value still follows the order of the draws: relay
    jitters are drawn in frame arrival order, so anything that moves
    arrivals at a node, such as another security mode, re-assigns them.

    `below(n)` is the draw `randrange(n)` makes, without its argument checks:
    n must be a positive int.

    Streams do not unpickle, since Random rebuilds its class without a
    seed; worker processes receive configs, never streams.
    """

    def __init__(self, seed):
        self._path = str(seed)
        super().__init__(self._path)

    below = random.Random._randbelow_with_getrandbits

    def fork(self, label):
        return RandomStream(f"{self._path}/{label}")
