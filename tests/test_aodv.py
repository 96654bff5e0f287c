import pytest

from conftest import bfs_distances, chain_positions, make_world, world_adjacency
from emanetsim import packets as pk
from emanetsim.aodv import PURGE_SLACK, estimate_size_from_hops
from emanetsim.config import ScenarioConfig
from emanetsim.runner import static_connected_world


def aodv_world(positions=None, **kw):
    kw.setdefault("protocol", "aodv")
    world = make_world(positions, **kw)
    world.setup()
    return world


def send(world, src, dst, seq=0, t=None):
    msg = pk.DataMsg(flow_id=(99, 0), seq=seq, src=src, dst=dst, payload=64,
                     send_time=world.kernel.now if t is None else t)
    world.nodes[src].driver.send_data(msg)
    return msg


# -- pure functions --------------------------------------------------------

def test_net_traversal_time_convention():
    world = aodv_world(chain_positions(2))
    drv = world.nodes[0].driver
    # 2 * node_traversal_time * net_diameter with the standard constants
    assert drv.net_traversal_time() == pytest.approx(2 * 0.04 * 35)


def test_net_traversal_time_scales():
    w1 = aodv_world(chain_positions(2), net_diameter=1)
    assert w1.nodes[0].driver.net_traversal_time() == pytest.approx(0.08)
    w2 = aodv_world(chain_positions(2), node_traversal_time=0.08)
    assert w2.nodes[0].driver.net_traversal_time() == pytest.approx(2 * 2 * 0.04 * 35)


def test_estimate_size_from_hops():
    assert estimate_size_from_hops(0, 1.0) == 0
    assert estimate_size_from_hops(4, 1.0) == 16
    assert estimate_size_from_hops(3, 0.65) == round(0.65 * 9)
    with pytest.raises(ValueError):
        estimate_size_from_hops(-1, 1.0)
    with pytest.raises(ValueError):
        estimate_size_from_hops(2, 0.0)


# -- discovery ----------------------------------------------------------------

def test_discovery_installs_bfs_length_route():
    world = aodv_world(chain_positions(4))
    send(world, 0, 3)
    world.kernel.run_until(3.0)
    route = world.nodes[0].driver.valid_route(3)
    assert route is not None
    assert route.hops == 3
    assert route.next_hop == 1
    # the buffered packet got through
    assert len(world.metrics.records) == 1
    assert world.metrics.records[0].hops == 3


def test_existing_route_skips_discovery():
    world = aodv_world(chain_positions(3))
    send(world, 0, 2)
    world.kernel.run_until(3.0)
    rreqs = world.metrics.control[pk.RREQ].count
    send(world, 0, 2, seq=1)
    world.kernel.run_until(6.0)
    assert world.metrics.control[pk.RREQ].count == rreqs
    assert len(world.metrics.records) == 2


def rreq_frame(protocol, origin, rreq_id, sender):
    """A copy of request (origin, rreq_id) for 2, as sent by sender."""
    if protocol == "aodv":
        msg = pk.RreqMsg(origin=origin, destination=2, rreq_id=rreq_id,
                         origin_sequence=1, hop_count=0)
        return pk.Frame(kind=pk.RREQ, msg=msg, sender=sender)
    record = (origin,) if origin == sender else (origin, sender)
    msg = pk.DsrRreqMsg(origin=origin, destination=2, rreq_id=rreq_id,
                        route_record=record)
    return pk.Frame(kind=pk.DSR_RREQ, msg=msg, sender=sender)


@pytest.mark.parametrize("protocol", ["aodv", "dsr"])
def test_duplicate_rreq_not_rebroadcast(protocol):
    world = aodv_world(chain_positions(3), protocol=protocol)
    drv = world.nodes[1].driver
    kernel = world.kernel
    lifetime = world.cfg.seen_lifetime
    relayed = []
    world.relay = lambda node, frame: relayed.append((node.id, frame.msg.origin,
                                                      frame.msg.rreq_id))

    def offer(origin, rreq_id):
        drv.process_rreq(rreq_frame(protocol, origin, rreq_id, 0), 0)
        kernel.run_until(kernel.now + 1.0)
        return relayed.count((1, origin, rreq_id))

    assert offer(0, 5) == 1
    assert offer(0, 5) == 1
    # a copy that arrives once seen_lifetime has lapsed is relayed again
    kernel.run_until(lifetime)
    assert offer(0, 5) == 2
    # a node never relays its own request, within seen_lifetime or after it
    send(world, 1, 2)
    own_id = drv.discovery.rreq_counter
    assert (1, own_id) in drv.discovery.seen
    assert offer(1, own_id) == 0
    kernel.run_until(kernel.now + lifetime)
    assert offer(1, own_id) == 0
    # reset forgets the table
    assert offer(0, 6) == 1
    drv.reset()
    assert drv.discovery.seen == {}
    assert offer(0, 6) == 2


def test_duplicate_table_purges_expired_requests():
    # one new request a second for 200 lifetimes: at most the last five are
    # live, so the table never grows past the purge bound
    world = aodv_world(chain_positions(2), seen_lifetime=5.0)
    disc = world.nodes[0].driver.discovery
    for i in range(1000):
        world.kernel.run_until(float(i))
        assert disc.first_copy(7, i)
        assert not disc.first_copy(7, i)
        assert len(disc.seen) <= 2 * 5 + PURGE_SLACK
    assert (7, 0) not in disc.seen
    assert disc.first_copy(7, 0)


def test_rreq_hop_count_increments_per_relay():
    world = aodv_world(chain_positions(4))
    seen_hops = []
    orig_relay = world.relay

    def spy(node, frame):
        if frame.kind == pk.RREQ:
            seen_hops.append((node.id, frame.msg.hop_count))
        orig_relay(node, frame)

    world.relay = spy
    send(world, 0, 3)
    world.kernel.run_until(3.0)
    by_node = dict(seen_hops)
    assert by_node[1] == 1 and by_node[2] == 2


def test_destination_reply_creates_reverse_route():
    world = aodv_world(chain_positions(3))
    send(world, 0, 2)
    world.kernel.run_until(3.0)
    dest = world.nodes[2].driver
    back = dest.valid_route(0)
    assert back is not None and back.hops == 2 and back.next_hop == 1
    mid = world.nodes[1].driver
    assert mid.valid_route(0) is not None
    assert mid.valid_route(2) is not None


@pytest.mark.parametrize("protocol,rreq_kind", [("aodv", pk.RREQ), ("dsr", pk.DSR_RREQ)],
                         ids=["aodv", "dsr"])
def test_unreachable_destination_drops_after_retries(protocol, rreq_kind):
    positions = chain_positions(2) + [(5000.0, 5000.0)]
    world = aodv_world(positions, protocol=protocol, width=6000.0, height=6000.0,
                       buffer_cap=2)
    cfg = world.cfg
    drops = world.metrics.drops_by_reason
    floods = []
    broadcast = world.broadcast

    def spy(node, kind, msg, **kw):
        if node.id == 0 and kind == rreq_kind:
            floods.append(world.kernel.now)
        broadcast(node, kind, msg, **kw)

    world.broadcast = spy
    for seq in range(cfg.buffer_cap + 1):
        send(world, 0, 2, seq=seq)
    assert drops == {"buffer-full": 1}
    # 1 + rreq_retries floods, net_traversal_time apart, then the drop
    world.kernel.run_until(15.0)
    timeout = 2 * cfg.node_traversal_time * cfg.net_diameter
    assert floods == pytest.approx([i * timeout for i in range(1 + cfg.rreq_retries)])
    assert len(world.metrics.records) == 0
    assert drops == {"buffer-full": 1, "discovery-failed": cfg.buffer_cap}
    assert world.metrics.control[rreq_kind].count == 2 * len(floods)  # node 1 relays each

    # a reset cancels the running discovery's timer and drops its buffer
    floods.clear()
    send(world, 0, 2, seq=10)
    send(world, 0, 2, seq=11)
    cancelled = world.kernel.cancelled
    world.nodes[0].driver.reset()
    assert world.kernel.cancelled == cancelled + 1
    assert drops["engine-reset"] == 2
    world.kernel.run_until(30.0)
    assert floods == [15.0]
    assert world.metrics.data_dropped == 1 + cfg.buffer_cap + 2


def test_route_expiry_forces_rediscovery():
    world = aodv_world(chain_positions(3), route_lifetime=2.0)
    send(world, 0, 2)
    world.kernel.run_until(1.0)
    rreqs = world.metrics.control[pk.RREQ].count
    world.kernel.run_until(10.0)  # idle, route expires
    send(world, 0, 2, seq=1)
    world.kernel.run_until(12.0)
    assert world.metrics.control[pk.RREQ].count > rreqs


def test_link_failure_feedback_invalidates_routes():
    world = aodv_world(chain_positions(3))
    send(world, 0, 2)
    world.kernel.run_until(3.0)
    drv = world.nodes[0].driver
    assert drv.valid_route(2) is not None
    drv.on_link_failure(pk.Frame(kind=pk.DATA, msg=None, sender=0, receiver=1))
    assert drv.valid_route(2) is None


def test_discovery_hop_counts_match_bfs_oracle():
    base = ScenarioConfig(protocol="aodv", n=16, duration=40.0, warmup=0.0,
                          traffic_rate=0.0, ideal_channel=True,
                          broadcast_jitter=0.0)  # uniform per-hop delay
    for seed in (1, 2, 3, 4, 5):
        world = static_connected_world(base.replace(seed=seed))
        world.setup()
        adj = world_adjacency(world)
        dist = bfs_distances(adj, 0)
        targets = sorted(dist)[1:]
        for i, dst in enumerate(targets):
            msg = pk.DataMsg(flow_id=(i, 0), seq=0, src=0, dst=dst, payload=32,
                             send_time=world.kernel.now)
            world.nodes[0].driver.send_data(msg)
            world.kernel.run_until(world.kernel.now + 3.0)
            route = world.nodes[0].driver.valid_route(dst)
            assert route is not None, (seed, dst)
            assert route.hops == dist[dst], (seed, dst)


def test_loop_freedom_of_installed_routes():
    base = ScenarioConfig(protocol="aodv", n=16, duration=40.0, warmup=0.0,
                          traffic_rate=0.0, ideal_channel=True)
    world = static_connected_world(base)
    world.setup()
    for dst in (5, 9, 15):
        send(world, 0, dst)
        world.kernel.run_until(world.kernel.now + 3.0)
    # walking next-hops from any node never revisits a node
    for start in range(16):
        drv = world.nodes[start].driver
        for dest in list(drv.routes):
            hops = [start]
            at = start
            while True:
                route = world.nodes[at].driver.valid_route(dest)
                if route is None or at == dest:
                    break
                at = route.next_hop
                assert at not in hops, (start, dest, hops)
                hops.append(at)
