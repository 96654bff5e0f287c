"""The contended channel's reception rule, checked against a reference, and
the reception event: one rx event per transmission hands the frame to each
of its receivers in order, on both channels."""

from collections import Counter, namedtuple
from functools import partial
from itertools import count

import pytest
from conftest import chain_positions, force_r_phase, make_world
from hypothesis import given, settings
from hypothesis import strategies as st

from emanetsim import packets as pk
from emanetsim.cml import P_PHASE, R_PHASE
from emanetsim.config import PROTOCOLS, ScenarioConfig
from emanetsim.kernel import EventKernel
from emanetsim.network import World

# node 0 in the middle, nodes 1-4 around it, all in range of node 0
STAR = [(250.0, 250.0), (150.0, 250.0), (350.0, 250.0), (250.0, 150.0), (250.0, 350.0)]


class Recorder:
    """A driver that logs every frame handed to it."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def on_frame(self, frame, sender):
        self.log.append((self.node_id, frame, sender))

    def on_link_failure(self, frame):
        pass


def star_world(ideal_channel, security_mode="none"):
    """Returns the world, its trace lines and the (receiver, frame, sender)
    log of its recording drivers."""
    world = make_world(STAR, ideal_channel=ideal_channel, security_mode=security_mode)
    lines, received = [], []
    world.kernel.trace = lines.append
    for node in world.nodes:
        node.driver = Recorder(node.id, received)
    return world, lines, received


def hello():
    return pk.HelloMsg(origin=0, neighbor_list=(), mpr_flags=frozenset())


def run_until_rx_pending(kernel):
    """Dispatch events until the rx event is waiting in the queue."""
    while not any(e[4] == "rx" and e[2] is not None for e in kernel._queue):
        kernel.run_until(kernel._queue[0][0])


@pytest.mark.parametrize("ideal", [True, False])
def test_broadcast_has_one_rx_event_for_all_receivers(ideal):
    world, lines, received = star_world(ideal)
    assert list(world.neighbors(0)) == [1, 2, 3, 4]
    world.broadcast(world.nodes[0], pk.HELLO, hello())
    world.kernel.run_until(1.0)
    fields = [line.rstrip("\n").split("\t") for line in lines]
    assert [f[2] for f in fields] == (["rx"] if ideal else ["tx-end", "rx"])
    assert fields[-1][1:] == ["0", "rx", "hello>1,2,3,4"]
    assert [v for v, _, _ in received] == list(world.neighbors(0))
    assert all(sender == 0 for _, _, sender in received)
    assert len({id(frame) for _, frame, _ in received}) == 1


@pytest.mark.parametrize("ideal", [True, False])
def test_receiver_inactive_at_rx_gets_nothing(ideal):
    world, lines, received = star_world(ideal)
    world.broadcast(world.nodes[0], pk.HELLO, hello())
    run_until_rx_pending(world.kernel)
    world.nodes[2].active = False
    world.kernel.run_until(1.0)
    assert [v for v, _, _ in received] == [1, 3, 4]


@pytest.mark.parametrize("ideal", [True, False])
def test_data_to_a_receiver_inactive_at_rx_is_dropped(ideal):
    world, lines, received = star_world(ideal)
    msg = pk.DataMsg(flow_id=(0, 2), seq=0, src=0, dst=2, payload=32,
                     send_time=world.kernel.now)
    world.unicast(world.nodes[0], 2, pk.DATA, msg)
    run_until_rx_pending(world.kernel)
    assert world.metrics.data_dropped == 0
    world.nodes[2].active = False
    world.kernel.run_until(1.0)
    assert received == []
    assert world.metrics.drops_by_reason == {"receiver-inactive": 1}
    assert world.metrics.data_dropped == 1


@pytest.mark.parametrize("ideal", [True, False])
def test_rejected_frame_counts_each_active_receiver(ideal):
    world, lines, received = star_world(ideal, security_mode="ah-only")
    world.broadcast(world.nodes[0], pk.HELLO, hello(), sec_valid=False)
    run_until_rx_pending(world.kernel)
    world.nodes[3].active = False
    world.kernel.run_until(1.0)
    assert received == []
    assert world.metrics.rejected_packets == 3


@pytest.mark.parametrize("protocol,phase", [
    (p, phase) for p in PROTOCOLS
    for phase in ((P_PHASE, R_PHASE) if p == "cml" else (None,))])
def test_data_is_delivered_once_along_a_chain(protocol, phase):
    """On a static 4-node chain, one DATA from node 0 to node 3 sent once
    routes have settled is delivered once, after three hops, and nothing is
    dropped: the world delivers it at node 3, and the drivers of nodes 1 and
    2 forward it. CML runs in each stable phase."""
    world = make_world(chain_positions(4), protocol=protocol, ideal_channel=True)
    world.setup()
    if phase == R_PHASE:
        force_r_phase(world)
    world.kernel.run_until(20.0)
    msg = pk.DataMsg(flow_id=(0, 0), seq=0, src=0, dst=3, payload=64,
                     send_time=world.kernel.now)
    world.nodes[0].driver.send_data(msg)
    world.kernel.run_until(21.0)
    assert [(r.flow_id, r.hops) for r in world.metrics.records] == [((0, 0), 3)]
    assert world.metrics.duplicate_deliveries == 0
    assert world.metrics.data_dropped == 0
    if phase is not None:
        assert {n.driver.stable_phase for n in world.nodes} == {phase}


def test_ideal_channel_run_has_no_tx_end():
    cfg = ScenarioConfig(protocol="cml", n=12, duration=40.0, warmup=5.0, seed=2,
                         security_mode="hybrid", v_min=0.0, v_max=0.0,
                         ideal_channel=True, traffic_rate=0.5).validate()
    lines = []
    world = World(cfg, trace=lines.append)
    world.run()
    kinds = Counter(line.split("\t")[2] for line in lines)
    assert kinds["rx"] > 0
    assert "tx-end" not in kinds
    assert sum(kinds.values()) == world.kernel.dispatched


@pytest.mark.parametrize("protocol,behavior", [
    ("olsr", "none"), ("aodv", "none"), ("dsr", "none"), ("cml", "none"),
    ("cml", "forge-cp"), ("cml", "tamper-hcreq")])
def test_handlers_leave_received_frames_unchanged(protocol, behavior, monkeypatch):
    """The rx event checks the authentication gate, and reads the frame's
    kind and sender, once for all of a frame's receivers. That equals a check
    per receiver only because no handler changes the kind, sender, sec_valid
    or adversary_origin of a frame it received, which this test checks on
    runs of every protocol and of the attacks that send forged or tampered
    frames. Security is off, so those frames reach the handlers."""
    receive = World._receive
    seen = Counter()

    def checked_receive(world, v_ids, frame, rcv_delay):
        before = (frame.kind, frame.sender, frame.sec_valid, frame.adversary_origin)
        receive(world, v_ids, frame, rcv_delay)
        assert (frame.kind, frame.sender, frame.sec_valid,
                frame.adversary_origin) == before
        seen[(frame.sec_valid, frame.adversary_origin)] += 1

    monkeypatch.setattr(World, "_receive", checked_receive)
    cfg = ScenarioConfig(
        protocol=protocol, n=20, duration=120.0, warmup=10.0, seed=1,
        traffic_rate=0.5,
        adversary_behavior=behavior,
        adversary_nodes=() if behavior == "none" else (4,),
        adversary_period=20.0).validate()
    World(cfg).run()
    assert seen[(True, False)] > 0
    if behavior == "forge-cp":
        assert seen[(True, True)] > 0
    if behavior == "tamper-hcreq":
        assert seen[(False, False)] > 0


@pytest.mark.parametrize("behavior", ["none", "oscillate"])
@pytest.mark.parametrize("ideal", [True, False])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_event_goes_through_schedule(protocol, ideal, behavior, monkeypatch):
    """Every event enters the queue through EventKernel.schedule, the one
    method perfbench's per-layer trace wraps to time each handler: a counter
    on the class method equals the kernel's own count."""
    schedule, calls = EventKernel.schedule, Counter()

    def counted(kernel, *args):
        calls[kernel] += 1
        return schedule(kernel, *args)

    monkeypatch.setattr(EventKernel, "schedule", counted)
    cfg = ScenarioConfig(protocol=protocol, n=15, duration=40.0, warmup=5.0,
                         seed=1, ideal_channel=ideal, adversary_behavior=behavior,
                         adversary_nodes=() if behavior == "none" else (2, 7),
                         adversary_period=5.0).validate()
    world = World(cfg)
    world.run()
    assert world.kernel.dispatched > 0
    assert calls == {world.kernel: world.kernel.scheduled}


@pytest.mark.parametrize("ideal", [True, False])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocols_run_without_the_neighbour_map(protocol, ideal, monkeypatch):
    """No protocol reads World.neighbors, the simulator's true topology: each
    learns of a broken link only from a unicast that reached no one, after
    its last retry on the contended channel and at once on the ideal one. A
    mobile run, once set up, runs to its end with World.neighbors raising."""
    cfg = ScenarioConfig(protocol=protocol, n=20, duration=60.0, warmup=10.0,
                         seed=1, ideal_channel=ideal).validate()
    world = World(cfg)
    world.setup()
    link_failed, failures = World._link_failed, Counter()

    def counted(world, node, frame, reason):
        failures[reason] += 1
        link_failed(world, node, frame, reason)

    def oracle(world, node_id):
        raise AssertionError("a protocol read the neighbour map")

    monkeypatch.setattr(World, "neighbors", oracle)
    monkeypatch.setattr(World, "_link_failed", counted)
    world.run()
    assert set(failures) == {"no-link" if ideal else "mac-retry-limit"}


# ---- the reception rule against a reference ----------------------------------

# One transmission as World._transmit put it on the air: the frame, its
# sender, its airtime [start, end), the nodes in range at its start, the
# nodes it was meant for, and its place in the order of transmissions,
# switches and settled ends.
Tx = namedtuple("Tx", "frame sender start end audible targets order")

# A node switched off stays off for longer than any frame in these runs is
# on the air (under 4 ms), so no frame overlaps both of its switches.
MIN_OFF = 0.01

SEND = st.tuples(st.floats(0.0, 1.0),                      # time, share of span
                 st.integers(0, 6),                        # sender
                 st.one_of(st.none(), st.integers(0, 6)),  # unicast receiver
                 st.integers(0, 12))                       # size: ids listed
SWITCH = st.tuples(st.floats(0.0, 1.0), st.floats(MIN_OFF, 0.2))


def reference_receivers(f, txs, switches, settled):
    """Receivers of f by the rule: v was in range at f's start, stayed active
    for all of f, and heard or sent no other transmission overlapping
    [f.start, f.end).

    One tie is part of the rule: the kernel runs events of equal time in the
    order they were scheduled, so a transmission can start at the instant f
    ends, before f's end is settled. It still counts against f when v sends
    it, or when v hears two such starts, which collide at v."""
    fin = settled[(id(f.frame), f.end)]
    at_end = [g for g in txs if g.start == f.end and g.order < fin]
    out = []
    for v in f.targets:
        switched = any(node == v and f.order < order < fin
                       for node, order in switches)
        overlapped = any(
            g is not f and g.start < f.end and f.start < g.end
            and (g.sender == v or v in g.audible) for g in txs)
        tied = (any(g.sender == v for g in at_end)
                or sum(v in g.audible for g in at_end) > 1)
        if not (switched or overlapped or tied):
            out.append(v)
    return out


@settings(max_examples=200, deadline=None)
@given(positions=st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)),
                          min_size=7, max_size=7),
       sends=st.lists(SEND, min_size=40, max_size=80),
       span=st.sampled_from([0.03, 0.1, 0.5]),
       off=st.dictionaries(st.integers(0, 6), SWITCH, max_size=3))
def test_contended_reception_matches_reference(positions, sends, span, off):
    """On random static 7-node topologies, 40-80 broadcasts and unicasts at
    random times (unicasts retried), with up to three nodes switched off and
    back on by the oscillate path, each transmission's rx event names exactly
    the receivers that reference_receivers gives."""
    # a switched node's next toggle falls after the run
    world = make_world(positions, adversary_period=1e6)
    kernel = world.kernel
    for node in world.nodes:
        node.driver = Recorder(node.id, [])
    order, txs, switches, settled, rx = count(), [], [], {}, {}
    transmit, tx_done, schedule_rx = (world._transmit, world._tx_done,
                                      world._schedule_rx)

    def recording_transmit(node, frame, item=None):
        audible = tuple(world.neighbors(node.id))
        targets = audible if frame.receiver is None else \
            tuple(v for v in audible if v == frame.receiver)
        transmit(node, frame, item)
        txs.append(Tx(frame, node.id, kernel.now, node.tx_busy_until, audible,
                      targets, next(order)))

    def recording_tx_done(node, item, *rest):
        settled[(id(item.frame), kernel.now)] = next(order)
        tx_done(node, item, *rest)

    def recording_schedule_rx(air_end, v_ids, frame, rcv_delay):
        rx[(id(frame), air_end)] = list(v_ids)
        schedule_rx(air_end, v_ids, frame, rcv_delay)

    world._transmit = recording_transmit
    world._tx_done = recording_tx_done
    world._schedule_rx = recording_schedule_rx

    def switch(v, back_on):
        switches.append((v, next(order)))
        world._toggle_group((v,))
        if back_on:
            # its view of the air is stale: it may send over a frame on the air
            world.broadcast(world.nodes[v], pk.HELLO,
                            pk.HelloMsg(v, tuple(range(4)), frozenset()))

    for at, sender, receiver, listed in sends:
        node = world.nodes[sender]
        msg = pk.HelloMsg(sender, tuple(range(listed)), frozenset())
        if receiver is None:
            send = partial(world.broadcast, node, pk.HELLO, msg)
        else:
            send = partial(world.unicast, node, receiver, pk.HELLO, msg)
        kernel.schedule(at * span, send)
    for v, (at, length) in sorted(off.items()):
        kernel.schedule(at * span, partial(switch, v, False))
        kernel.schedule(at * span + length, partial(switch, v, True))
    kernel.run_until(span + 1.0)

    assert len(settled) == len(txs)
    for f in txs:
        assert rx.pop((id(f.frame), f.end), []) == \
            reference_receivers(f, txs, switches, settled), f
    assert rx == {}
