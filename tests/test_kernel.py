import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emanetsim.kernel import EventKernel, RandomStream, SchedulingError


def test_events_fire_in_time_order():
    k = EventKernel()
    fired = []
    k.schedule(5.0, lambda: fired.append("b"))
    k.schedule(1.0, lambda: fired.append("a"))
    k.schedule(9.0, lambda: fired.append("c"))
    k.run_until(10.0)
    assert fired == ["a", "b", "c"]
    assert k.now == 10.0


def test_equal_times_dispatch_fifo():
    k = EventKernel()
    fired = []
    for tag in ("A", "B", "C"):
        k.schedule(3.0, lambda t=tag: fired.append(t))
    k.run_until(3.0)
    assert fired == ["A", "B", "C"]


def test_schedule_in_past_rejected():
    k = EventKernel()
    k.schedule(2.0, lambda: None)
    k.run_until(2.0)
    with pytest.raises(SchedulingError):
        k.schedule(1.0, lambda: None)


def test_run_until_partial():
    k = EventKernel()
    for t in (1.0, 2.0, 3.0):
        k.schedule(t, lambda: None)
    assert k.run_until(2.5) == 2
    assert k.now == 2.5
    assert k.run_until(10.0) == 1


def test_empty_queue_run_advances_clock():
    k = EventKernel()
    assert k.run_until(10.0) == 0
    assert k.now == 10.0


def test_cancel_semantics():
    k = EventKernel()
    fired = []
    ev = k.schedule(5.0, lambda: fired.append(1))
    assert k.cancel(ev) is True
    assert k.cancel(ev) is False  # second cancel is a no-op
    k.run_until(10.0)
    assert fired == []

    ev2 = k.schedule(11.0, lambda: fired.append(2))
    k.run_until(12.0)
    assert k.cancel(ev2) is False  # already dispatched


def test_cancel_of_spent_handle_leaves_counters_alone():
    k = EventKernel()
    dispatched = k.schedule(1.0, lambda: None)
    cancelled = k.schedule(2.0, lambda: None)
    assert k.cancel(cancelled) is True
    k.run_until(3.0)
    counters = (k.scheduled, k.dispatched, k.cancelled, k.pending)
    assert counters == (2, 1, 1, 0)
    assert k.cancel(dispatched) is False
    assert k.cancel(cancelled) is False
    assert (k.scheduled, k.dispatched, k.cancelled, k.pending) == counters


def test_handler_may_schedule_more_events():
    k = EventKernel()
    fired = []

    def chain(i):
        fired.append(i)
        if i < 3:
            k.schedule_in(1.0, lambda: chain(i + 1))

    k.schedule(0.0, lambda: chain(0))
    k.run_until(10.0)
    assert fired == [0, 1, 2, 3]


def test_no_event_loss_accounting():
    k = EventKernel()
    handles = [k.schedule(float(i), lambda: None) for i in range(10)]
    k.cancel(handles[7])
    k.cancel(handles[9])
    k.run_until(4.0)
    assert k.dispatched + k.cancelled + k.pending == k.scheduled
    k.run_until(20.0)
    assert k.dispatched == 8
    assert k.cancelled == 2
    assert k.pending == 0


def test_trace_lines_sorted_by_time():
    lines = []
    k = EventKernel(trace=lines.append)
    for t in (3.0, 1.0, 2.0, 2.0):
        k.schedule(t, lambda: None, kind="timer", node=4, detail="x")
    k.run_until(5.0)
    times = [float(line.split("\t")[0]) for line in lines]
    assert times == sorted(times)
    assert lines[0].split("\t")[1:] == ["4", "timer", "x"]


# One event scheduled before the first step: its fire time in quarter units
# (so that times collide), the delays in quarter units of the events its
# handler schedules (0 is "now"), and the event indices it cancels.
EVENT_PLAN = st.tuples(st.integers(0, 6),
                       st.lists(st.integers(0, 2), max_size=2),
                       st.lists(st.integers(0, 30), max_size=2))
# One run_until step: how far it advances in half units, and the event
# indices cancelled just before it, whether they fired already or not.
STEP_PLAN = st.tuples(st.integers(0, 3), st.lists(st.integers(0, 30), max_size=3))


@settings(max_examples=300, deadline=None)
@given(plans=st.lists(EVENT_PLAN, min_size=1, max_size=20),
       steps=st.lists(STEP_PLAN, min_size=1, max_size=4))
def test_dispatch_order_is_sorted_schedule_without_cancelled(plans, steps):
    lines = []
    k = EventKernel(trace=lines.append)
    handles, keys, details, fired, cancelled = [], [], [], [], set()

    def cancel(i):
        if i < len(handles) and k.cancel(handles[i]):
            assert i not in fired
            cancelled.add(i)

    def add(t, children=(), cancels=()):
        i = len(handles)

        def fire():
            fired.append(i)
            for d in children:
                add(k.now + d / 4)
            for j in cancels:
                cancel(j)

        keys.append((t, i))
        details.append(str(len(children)))
        handles.append(k.schedule(t, fire, kind="ev", node=i, detail=details[i]))

    for t, children, cancels in plans:
        add(t / 4, children, cancels)
    t_end = 0.0
    for advance, cancels in steps:
        for j in cancels:
            cancel(j)
        t_end += advance / 2
        k.run_until(t_end)
        assert fired == [i for _, i in sorted(keys)
                         if i not in cancelled and keys[i][0] <= t_end]
        assert k.dispatched + k.cancelled + k.pending == k.scheduled
        assert (k.scheduled, k.dispatched, k.cancelled) == \
            (len(keys), len(fired), len(cancelled))
        assert lines == [f"{keys[i][0]:.9f}\t{i}\tev\t{details[i]}"
                         for i in fired]


def test_random_stream_reproducible():
    a = RandomStream(42)
    b = RandomStream(42)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_random_stream_forks_are_independent():
    root = RandomStream(7)
    m1 = root.fork("node1/mob")
    # draws on an unrelated stream must not perturb node1's sequence
    root.fork("node2/mob").random()
    m1_again = RandomStream(7).fork("node1/mob")
    assert [m1.random() for _ in range(4)] == [m1_again.random() for _ in range(4)]


def test_random_stream_distinct_labels_differ():
    root = RandomStream(3)
    assert root.fork("a").random() != root.fork("b").random()
