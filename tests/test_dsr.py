import pytest

from conftest import bfs_distances, chain_positions, make_world, world_adjacency
from emanetsim import packets as pk
from emanetsim.config import ScenarioConfig
from emanetsim.runner import static_connected_world


def dsr_world(positions=None, **kw):
    kw.setdefault("protocol", "dsr")
    world = make_world(positions, **kw)
    world.setup()
    return world


def send(world, src, dst, seq=0, flow=99):
    msg = pk.DataMsg(flow_id=(flow, 0), seq=seq, src=src, dst=dst, payload=64,
                     send_time=world.kernel.now)
    world.nodes[src].driver.send_data(msg)
    return msg


def test_discovery_accumulates_route():
    world = dsr_world(chain_positions(3))
    send(world, 0, 2)
    world.kernel.run_until(3.0)
    path = world.nodes[0].driver.cached_path(2)
    assert path == (0, 1, 2)
    assert len(world.metrics.records) == 1


def test_cached_route_skips_flood():
    world = dsr_world(chain_positions(3))
    send(world, 0, 2)
    world.kernel.run_until(3.0)
    floods = world.metrics.control[pk.DSR_RREQ].count
    send(world, 0, 2, seq=1)
    world.kernel.run_until(6.0)
    assert world.metrics.control[pk.DSR_RREQ].count == floods


def test_route_record_loop_guard():
    world = dsr_world(chain_positions(3))
    drv = world.nodes[1].driver
    relayed = []
    world.relay = lambda node, frame: relayed.append(frame)
    msg = pk.DsrRreqMsg(origin=0, destination=2, rreq_id=1, route_record=(0, 1))
    drv.process_rreq(pk.Frame(kind=pk.DSR_RREQ, msg=msg, sender=0), 0)
    world.kernel.run_until(1.0)
    assert relayed == []  # node 1 already in the record: dropped


def test_reply_travels_reversed_route():
    world = dsr_world(chain_positions(4))
    send(world, 0, 3)
    world.kernel.run_until(3.0)
    assert world.nodes[0].driver.cached_path(3) == (0, 1, 2, 3)
    # intermediate nodes do not cache (no promiscuous learning)
    assert world.nodes[1].driver.cached_path(3) is None


def test_cache_prefers_shortest_and_caps_entries():
    world = dsr_world(chain_positions(2))
    drv = world.nodes[0].driver
    drv.add_path((0, 5, 9))
    drv.add_path((0, 9))
    drv.add_path((0, 3, 5, 9))
    drv.add_path((0, 7, 9))
    assert drv.cached_path(9) == (0, 9)
    assert len(drv.cache[9]) == drv.cfg.cache_paths == 3


def test_cache_expiry():
    world = dsr_world(chain_positions(2), cache_lifetime=5.0)
    drv = world.nodes[0].driver
    drv.add_path((0, 9))
    world.kernel.run_until(6.0)
    assert drv.cached_path(9) is None


def test_source_routed_forwarding_hop_by_hop():
    world = dsr_world(chain_positions(4))
    send(world, 0, 3)
    world.kernel.run_until(3.0)
    rec = world.metrics.records[0]
    assert rec.hops == 3


def test_source_route_header_bytes_charged():
    world = dsr_world(chain_positions(3))
    send(world, 0, 2)
    world.kernel.run_until(3.0)
    hdr = world.metrics.control[pk.DSR_SR_HEADER]
    assert hdr.count == 0           # bytes-only pseudo kind
    assert hdr.bytes == 2 * (4 * 3)  # two data transmissions, 3-entry route


def test_single_hop_route_single_transmission():
    world = dsr_world(chain_positions(2))
    send(world, 0, 1)
    world.kernel.run_until(2.0)
    assert world.metrics.records[0].hops == 1


def test_broken_link_purges_and_notifies_source():
    world = dsr_world(chain_positions(4))
    send(world, 0, 3)
    world.kernel.run_until(3.0)
    src = world.nodes[0].driver
    mid = world.nodes[2].driver
    mid.add_path((2, 3))
    assert src.cached_path(3) is not None
    # break link 2-3 by moving node 3 away
    world.nodes[3].kin.x = 90000.0
    world.refresh_links()
    send(world, 0, 3, seq=1)
    world.kernel.run_until(6.0)
    assert src.cached_path(3) is None       # source purged via route error
    assert mid.cached_path(3) is None       # detecting node purged locally
    assert world.metrics.control[pk.DSR_RERR].count >= 1
    assert world.metrics.data_dropped >= 1


def test_mac_failure_sends_route_error_to_source(monkeypatch):
    # Node 0 holds the path 0-1-2-3 when node 3 moves out of range. Node 2
    # learns of the break only when the MAC gives up, drops the packet and
    # sends a route error back along the route to node 0.
    world = dsr_world(chain_positions(4))
    src = world.nodes[0].driver
    src.add_path((0, 1, 2, 3))
    world.nodes[3].kin.x = 90000.0
    world.refresh_links()
    failures, errors = [], []
    link_failed, process_rerr = world._link_failed, src.process_rerr
    monkeypatch.setattr(world, "_link_failed", lambda node, frame, reason: (
        failures.append((node.id, frame.kind, reason)),
        link_failed(node, frame, reason)))
    monkeypatch.setattr(src, "process_rerr",
                        lambda msg: (errors.append(msg), process_rerr(msg)))
    send(world, 0, 3)
    world.kernel.run_until(3.0)
    assert failures == [(2, pk.DATA, "mac-retry-limit")]
    assert world.metrics.drops_by_reason == {"mac-retry-limit": 1}
    assert [(e.origin, e.broken_from, e.broken_to) for e in errors] == [(2, 2, 3)]
    links = {link for paths in src.cache.values() for path, _ in paths
             for link in zip(path, path[1:])}
    assert (2, 3) not in links and (3, 2) not in links
    assert src.cached_path(3) is None


def test_purge_link_removes_both_directions():
    world = dsr_world(chain_positions(2))
    drv = world.nodes[0].driver
    drv.add_path((0, 4, 7))
    drv.add_path((0, 7, 4))
    drv.purge_link(7, 4)
    assert drv.cached_path(7) is None
    assert drv.cached_path(4) is None


def test_first_reply_route_length_matches_bfs():
    base = ScenarioConfig(protocol="dsr", n=14, duration=40.0, warmup=0.0,
                          traffic_rate=0.0, ideal_channel=True,
                          broadcast_jitter=0.0)  # uniform per-hop delay
    for seed in (1, 2, 3):
        world = static_connected_world(base.replace(seed=seed))
        world.setup()
        adj = world_adjacency(world)
        dist = bfs_distances(adj, 0)
        for i, dst in enumerate(sorted(dist)[1:]):
            send(world, 0, dst, flow=i)
            world.kernel.run_until(world.kernel.now + 3.0)
            path = world.nodes[0].driver.cached_path(dst)
            assert path is not None, (seed, dst)
            assert len(path) - 1 == dist[dst], (seed, dst)
            # accumulated routes are simple paths
            assert len(set(path)) == len(path)
