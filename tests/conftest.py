import pytest

from emanetsim.cml import R_PHASE
from emanetsim.config import ScenarioConfig
from emanetsim.network import World


def make_world(positions=None, n=None, protocol="olsr", **overrides):
    """Static world for protocol tests; optional explicit node positions."""
    if positions is not None:
        n = len(positions)
        side = max(max(x for x, _ in positions), max(y for _, y in positions)) + 1.0
        overrides.setdefault("width", side)
        overrides.setdefault("height", side)
    params = dict(protocol=protocol, n=n, duration=60.0, warmup=0.0, seed=1,
                  v_min=0.0, v_max=0.0, traffic_rate=0.0)
    params.update(overrides)
    cfg = ScenarioConfig(**params).validate()
    world = World(cfg)
    if positions is not None:
        for node, (x, y) in zip(world.nodes, positions):
            node.kin.x, node.kin.y = float(x), float(y)
            node.kin.wx, node.kin.wy = float(x), float(y)
        world.refresh_links()
    return world


def force_r_phase(world):
    """Put every CML node of a set-up world in r-phase, timers clear."""
    for node in world.nodes:
        d = node.driver
        d.phase = R_PHASE
        d.olsr.enabled = False
        d.osc_until = -1.0
        d._foreign_probe_until = -1.0


def chain_positions(k, spacing=200.0):
    """k nodes in a line, `spacing` meters apart (linked at radius 250)."""
    return [(i * spacing, 0.0) for i in range(k)]


@pytest.fixture
def chain3():
    world = make_world(chain_positions(3))
    world.setup()
    return world


def bfs_distances(adj, src):
    """Hop counts from src over an adjacency mapping node -> iterable."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def world_adjacency(world):
    return {n.id: list(world.neighbors(n.id)) for n in world.nodes}


def random_graph(stream, n, p):
    """Seeded Erdos-Renyi adjacency as node -> sorted neighbor list."""
    adj = {i: set() for i in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if stream.random() < p:
                adj[a].add(b)
                adj[b].add(a)
    return {i: sorted(adj[i]) for i in adj}
