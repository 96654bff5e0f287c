"""The reception event: one rx event per transmission hands the frame to each
of its receivers in order, on both channels."""

from collections import Counter

import pytest
from conftest import make_world

from emanetsim import packets as pk
from emanetsim.config import ScenarioConfig
from emanetsim.network import World
from emanetsim.security import AdversaryRole

# node 0 in the middle, nodes 1-4 around it, all in range of node 0
STAR = [(250.0, 250.0), (150.0, 250.0), (350.0, 250.0), (250.0, 150.0), (250.0, 350.0)]


class Recorder:
    """A driver that logs every frame handed to it."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def on_frame(self, frame, sender):
        self.log.append((self.node_id, frame, sender))


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
def test_rejected_frame_counts_each_active_receiver(ideal):
    world, lines, received = star_world(ideal, security_mode="ah-only")
    world.broadcast(world.nodes[0], pk.HELLO, hello(), sec_valid=False)
    run_until_rx_pending(world.kernel)
    world.nodes[3].active = False
    world.kernel.run_until(1.0)
    assert received == []
    assert world.metrics.rejected_packets == 3


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
        adversary=AdversaryRole(behavior=behavior, nodes=() if behavior == "none" else (4,),
                                period=20.0)).validate()
    World(cfg).run()
    assert seen[(True, False)] > 0
    if behavior == "forge-cp":
        assert seen[(True, True)] > 0
    if behavior == "tamper-hcreq":
        assert seen[(False, False)] > 0
