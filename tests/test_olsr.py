import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_distances, chain_positions, make_world, random_graph, world_adjacency
from emanetsim import olsr
from emanetsim import packets as pk
from emanetsim.config import ScenarioConfig
from emanetsim.kernel import RandomStream
from emanetsim.network import World
from emanetsim.olsr import mask, route_to, select_mprs, shortest_routes


def masks(sets):
    """node -> mask, from node -> collection of ids."""
    return {n: mask(ids) for n, ids in sets.items()}


def adjacency(edges):
    """Symmetric neighbour masks of the graph with edges node -> ids."""
    adj = {}
    for a, nbrs in edges.items():
        adj[a] = adj.get(a, 0) | mask(nbrs)
        for b in nbrs:
            adj[b] = adj.get(b, 0) | 1 << a
    return adj


def members(m):
    """The ids set in mask m, ascending."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


# -- MPR selection (pure) ----------------------------------------------------

def test_mpr_star_topology_single_relay():
    # all two-hop nodes sit behind neighbor 1
    mprs = select_mprs([1, 2], masks({1: {10, 11, 12}, 2: set()}))
    assert mprs == {1}


def test_mpr_empty_without_two_hop():
    assert select_mprs([1, 2, 3], masks({1: set(), 2: set(), 3: set()})) == set()


def test_mpr_sole_provider_always_chosen():
    mprs = select_mprs([1, 2], masks({1: {10}, 2: {10, 11}}))
    assert 2 in mprs  # only provider of 11


def test_mpr_tie_breaks_lowest_id():
    mprs = select_mprs([4, 2], masks({4: {10, 11}, 2: {10, 11}}))
    assert mprs == {2}


def test_mpr_coverage_on_seeded_graphs():
    s = RandomStream(5).fork("mpr")
    for trial in range(100):
        adj = random_graph(s, 15, 0.25)
        me = 0
        one = set(adj[0])
        two_map = {n: set(adj[n]) - {me} for n in one}
        strict_two = set()
        for n in one:
            strict_two |= two_map[n] - one
        mprs = select_mprs(one, masks(two_map))
        covered = set()
        for m in mprs:
            covered |= two_map[m]
        assert strict_two <= covered
        assert mprs <= one


def reference_select_mprs(one_hop, two_hop_map):
    """The greedy cover on sets: sole providers first, then the neighbour
    covering the most uncovered two-hop nodes, lowest id on ties."""
    one = sorted(one_hop)
    one_set = set(one)
    reach = {n: set(two_hop_map.get(n, ())) - one_set for n in one}
    targets = set()
    for n in one:
        targets |= reach[n]
    mprs = set()
    covered = set()
    for t in sorted(targets):
        providers = [n for n in one if t in reach[n]]
        if len(providers) == 1:
            mprs.add(providers[0])
    for m in mprs:
        covered |= reach[m]
    while covered < targets:
        best = None
        best_gain = -1
        for n in one:
            if n in mprs:
                continue
            gain = len(reach[n] - covered)
            if gain > best_gain:
                best = n
                best_gain = gain
        if best is None or best_gain <= 0:
            break
        mprs.add(best)
        covered |= reach[best]
    return mprs


def test_select_mprs_equal_reference():
    s = RandomStream(8).fork("mpr-ref")
    seen = dict(self_named=0, missing=0, empty=0, tie=0)
    for trial in range(300):
        ids = s.sample(list(range(60)), s.randint(2, 25))
        me = ids[0]
        one_hop = [v for v in ids[1:] if s.random() < 0.4]
        p = s.uniform(0.05, 0.4)
        two_map = {n: {v for v in ids if v != n and s.random() < p}
                   for n in one_hop if s.random() < 0.85}
        assert select_mprs(one_hop, masks(two_map)) == \
            reference_select_mprs(one_hop, two_map), trial
        reach = [frozenset(two_map.get(n, set()) - set(one_hop)) for n in one_hop]
        seen["self_named"] += any(me in r for r in reach)
        seen["missing"] += len(two_map) < len(one_hop)
        seen["empty"] += any(not two_map[n] for n in two_map)
        seen["tie"] += len({r for r in reach if r}) < sum(1 for r in reach if r)
    assert min(seen.values()) >= 20, seen


# -- route computation (pure) --------------------------------------------------

def test_shortest_routes_chain():
    routes = shortest_routes(0, [1], adjacency({1: {2}}))
    assert routes[2] == (1, 2)
    assert routes[1] == (1, 1)


def test_shortest_routes_skips_unreachable():
    routes = shortest_routes(0, [1], adjacency({3: {4}}))
    assert 3 not in routes and 4 not in routes


def test_shortest_routes_prefers_lowest_next_hop():
    # two equal-length paths to 9 via 1 and via 5
    routes = shortest_routes(0, [1, 5], adjacency({1: {9}, 5: {9}}))
    assert routes[9] == (1, 2)


def test_shortest_routes_match_bfs_on_seeded_graphs():
    s = RandomStream(6).fork("routes")
    for trial in range(50):
        adj = random_graph(s, 20, 0.18)
        dist = bfs_distances(adj, 0)
        routes = shortest_routes(0, adj[0], masks(adj))
        for dest, d in dist.items():
            if dest == 0:
                continue
            assert routes[dest][1] == d
        assert set(routes) == set(dist) - {0}


def reference_shortest_routes(self_id, one_hop, edges):
    """Heap search over the symmetrized graph: settles nodes in
    (hops, next_hop, node) order, so the lowest next hop wins each tie."""
    adj = {}

    def add(a, b):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for n in one_hop:
        add(self_id, n)
    for a, nbrs in edges.items():
        for b in nbrs:
            add(a, b)

    routes = {}
    settled = {self_id}
    frontier = []
    for n in sorted(one_hop):
        heapq.heappush(frontier, (1, n, n))
    while frontier:
        hops, next_hop, node = heapq.heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        routes[node] = (next_hop, hops)
        for nb in sorted(adj.get(node, ())):
            if nb not in settled:
                heapq.heappush(frontier, (hops + 1, next_hop, nb))
    return routes


def random_known_graph(stream):
    """(self_id, one_hop, edges) as a node's tables could hold them: sparse
    ids, one-way advertised sets that may name self_id, neighbours that
    advertise nothing, and parts that no path reaches."""
    n = stream.randint(2, 30)
    ids = stream.sample(list(range(100)), n)
    me = ids[0]
    one_hop = {v: 0.0 for v in ids[1:] if stream.random() < 0.3}
    p = stream.uniform(0.02, 0.3)
    edges = {}
    for a in ids:
        if stream.random() < 0.6:
            adv = [b for b in ids if b != a and stream.random() < p]
            edges[a] = set(adv) if stream.random() < 0.5 else tuple(adv)
    return me, one_hop, edges


def test_shortest_routes_equal_reference_with_order():
    s = RandomStream(7).fork("routes-ref")
    seen = dict(asymmetric=0, self_advertised=0, bare_neighbour=0, unreachable=0)
    for trial in range(300):
        me, one_hop, edges = random_known_graph(s)
        routes = shortest_routes(me, one_hop, adjacency(edges))
        assert list(routes.items()) == \
            list(reference_shortest_routes(me, one_hop, edges).items()), trial
        nodes = set(one_hop) | set(edges)
        for a, nbrs in edges.items():
            nodes |= set(nbrs)
        seen["asymmetric"] += any(a not in edges.get(b, ())
                                  for a, nbrs in edges.items() for b in nbrs)
        seen["self_advertised"] += any(me in nbrs for nbrs in edges.values())
        seen["bare_neighbour"] += any(not edges.get(v) for v in one_hop)
        seen["unreachable"] += len(routes) < len(nodes - {me})
    assert min(seen.values()) >= 20, seen


def test_route_to_equals_shortest_routes_entry():
    # every destination: self, bare neighbours, unreachable and unknown ids
    s = RandomStream(9).fork("route-to")
    for trial in range(300):
        me, one_hop, edges = random_known_graph(s)
        adj = adjacency(edges)
        routes = shortest_routes(me, one_hop, adj)
        for dest in range(101):
            assert route_to(me, mask(one_hop), adj, dest) == routes.get(dest), \
                (trial, dest)


# -- protocol behavior on worlds -------------------------------------------------

def converge(world, t):
    world.setup()
    world.kernel.run_until(t)


def olsr_of(world, i):
    d = world.nodes[i].driver
    return d.olsr if hasattr(d, "olsr") else d


def test_hello_discovers_links_and_two_hop():
    world = make_world(chain_positions(3))
    converge(world, 10.0)
    a, b, c = (olsr_of(world, i) for i in range(3))
    assert set(b.links) == {0, 2}
    assert set(a.links) == {1}
    assert 2 in members(a.links[1][0])  # C visible via B


def test_isolated_node_emits_empty_hello():
    world = make_world([(0.0, 0.0), (5000.0, 5000.0)], width=6000.0, height=6000.0)
    world.setup()
    node = world.nodes[0]
    drv = olsr_of(world, 0)
    sent = []
    world.broadcast = lambda n, kind, msg, **kw: sent.append((kind, msg))
    drv.emit_hello()
    assert sent[0][0] == pk.HELLO
    assert sent[0][1].neighbor_list == ()


def test_hello_never_relayed():
    world = make_world(chain_positions(3))
    converge(world, 30.0)
    hello_count = world.metrics.control[pk.HELLO].count
    # 3 nodes, one emission per ~2 s each, no relaying: bounded by emissions
    assert hello_count <= 3 * (30.0 / 1.7) + 3


def test_neighbor_expiry_removes_routes():
    world = make_world(chain_positions(3))
    converge(world, 20.0)
    a = olsr_of(world, 0)
    assert a.next_hop(2) == 1
    world.nodes[1].active = False  # B stops emitting
    world.refresh_links()
    world.kernel.run_until(20.0 + 3 * world.cfg.hello_interval + 1.0)
    assert 1 not in a.links
    assert a.next_hop(2) is None
    assert a.next_hop(1) is None


def test_tc_flood_completeness_static():
    # 10-node connected line of pairs: every node learns routes to all others
    world = make_world(chain_positions(10, spacing=150.0))
    converge(world, 25.0)
    for node in world.nodes:
        drv = olsr_of(world, node.id)
        assert drv.reachable_count() == 10


def test_tc_duplicate_not_rerelayed():
    world = make_world(chain_positions(3))
    converge(world, 15.0)
    b = olsr_of(world, 1)
    relayed = []
    world.relay = lambda node, frame: relayed.append(frame)
    msg = pk.TcMsg(origin=0, advertised=(1,), sequence=999)
    frame = pk.Frame(kind=pk.TC, msg=msg, sender=0)
    b.process_tc(frame, 0)
    world.kernel.run_until(world.kernel.now + 1.0)
    assert len(relayed) == 1  # B was selected by 0, so it relays once
    b.process_tc(frame, 0)  # duplicate (same origin and sequence)
    world.kernel.run_until(world.kernel.now + 1.0)
    assert len(relayed) == 1


def test_leaf_without_selectors_emits_no_tc():
    world = make_world([(0.0, 0.0), (5000.0, 5000.0)], width=6000.0, height=6000.0)
    converge(world, 30.0)
    assert pk.TC not in world.metrics.control


def test_reachable_count_partitioned():
    # two clusters of 4 and 6, far apart
    pts = [(i * 100.0, 0.0) for i in range(4)] + \
          [(i * 100.0, 5000.0) for i in range(6)]
    world = make_world(pts, width=6000.0, height=6000.0)
    converge(world, 30.0)
    assert olsr_of(world, 0).reachable_count() == 4
    assert olsr_of(world, 5).reachable_count() == 6


def test_route_hops_match_bfs_after_convergence():
    for seed in (1, 2, 3):
        world = make_world(n=20, seed=seed, width=820.0, height=820.0)
        converge(world, 3 * world.cfg.tc_interval + 10.0)
        adj = world_adjacency(world)
        for node in world.nodes:
            dist = bfs_distances(adj, node.id)
            routes = olsr_of(world, node.id).compute_routes()
            for dest, d in dist.items():
                if dest != node.id:
                    assert routes[dest][1] == d, (seed, node.id, dest)


def test_hello_omits_expired_neighbour_without_route_lookups():
    # no data traffic, so nothing asks for a route between the HELLOs
    world = make_world([(0.0, 0.0), (5000.0, 5000.0)], width=6000.0, height=6000.0)
    world.setup()
    a = olsr_of(world, 0)
    a.process_hello(pk.HelloMsg(origin=7, neighbor_list=(), mpr_flags=frozenset()), 7)
    sent = []
    world.broadcast = lambda n, kind, msg, **kw: sent.append(msg)
    world.kernel.run_until(3 * world.cfg.hello_interval - 0.5)
    a.emit_hello()
    assert sent[-1].neighbor_list == (7,)
    world.kernel.run_until(3 * world.cfg.hello_interval + 0.5)
    a.emit_hello()
    assert sent[-1].neighbor_list == ()


def test_tc_learnt_without_neighbours_expires_on_time():
    # the TC entry expires before the HELLO that arrives after it
    world = make_world([(0.0, 0.0), (5000.0, 5000.0)], width=6000.0, height=6000.0)
    world.setup()
    a = olsr_of(world, 0)
    tc = pk.TcMsg(origin=5, advertised=(1,), sequence=1)
    a.process_tc(pk.Frame(kind=pk.TC, msg=tc, sender=1), 1)
    world.kernel.run_until(10.0)
    a.process_hello(pk.HelloMsg(origin=1, neighbor_list=(), mpr_flags=frozenset()), 1)
    assert a.compute_routes() == {1: (1, 1), 5: (1, 2)}
    world.kernel.run_until(3 * world.cfg.tc_interval + 0.5)
    assert a.compute_routes() == {1: (1, 1)}


def test_tc_relay_economy_bounded_by_mpr_nodes():
    world = make_world(n=15, seed=4, width=700.0, height=700.0)
    converge(world, 30.0)
    mpr_nodes = set()
    for node in world.nodes:
        mpr_nodes |= olsr_of(world, node.id).mpr_set
    tx0 = world.metrics.control[pk.TC].count
    origins = sum(1 for node in world.nodes
                  if any(sel for _, _, sel in olsr_of(world, node.id).links.values()))
    world.kernel.run_until(world.kernel.now + world.cfg.tc_interval)
    emitted = world.metrics.control[pk.TC].count - tx0
    # per period: each origin transmits once, relays only from MPR nodes
    assert emitted <= origins * (1 + len(mpr_nodes))


# -- cached tables --------------------------------------------------------------

def table_edges(node):
    """node -> set of the ids it names, rebuilt from the node's links and
    topology tables."""
    edges = {}
    for nbr, (named, _, _) in node.links.items():
        edges.setdefault(nbr, set()).update(members(named))
    for origin, (advertised, _) in node.topology.items():
        edges.setdefault(origin, set()).update(members(advertised))
    return edges


def reference_next_hop(node, dest):
    """dest's next hop by the reference search on edges rebuilt from the
    node's tables, or None."""
    route = reference_shortest_routes(node.node.id, list(node.links),
                                      table_edges(node)).get(dest)
    return route[0] if route else None


def reference_mprs(node):
    """The reference cover on the node's neighbor table."""
    two_map = {n: set(members(named)) for n, (named, _, _) in node.links.items()}
    return reference_select_mprs(set(node.links), two_map)


def check_caches(monkeypatch, cfg):
    """Run cfg and check each read point against the references: every
    next_hop answer against the reference search on edges rebuilt from the
    tables; at every process_hello, reachable_count against the size of that
    search's table plus self; and the MPR set each HELLO carries against the
    reference cover on the neighbor table as the last receipt left it.
    Returns the call counts."""
    counts = dict(hello=0, lookups=0, built=0, reset=0)
    expected_mprs = {}
    process_hello = olsr.OlsrNode.process_hello
    next_hop = olsr.OlsrNode.next_hop
    hello_mprs = olsr.OlsrNode.hello_mprs
    reset = olsr.OlsrNode.reset

    def checked_hello(node, msg, sender):
        process_hello(node, msg, sender)
        counts["hello"] += 1
        expected_mprs[node.node.id] = reference_mprs(node)
        routes = reference_shortest_routes(node.node.id, list(node.links),
                                           table_edges(node))
        assert node.reachable_count() == len(routes) + 1

    def checked_next_hop(node, dest):
        nh = next_hop(node, dest)
        counts["lookups"] += 1
        assert nh == reference_next_hop(node, dest)
        return nh

    def checked_mprs(node):
        mprs = hello_mprs(node)
        counts["built"] += 1
        assert mprs == expected_mprs.get(node.node.id, set())
        return mprs

    def counted_reset(node):
        counts["reset"] += 1
        reset(node)
        expected_mprs[node.node.id] = set()

    monkeypatch.setattr(olsr.OlsrNode, "process_hello", checked_hello)
    monkeypatch.setattr(olsr.OlsrNode, "next_hop", checked_next_hop)
    monkeypatch.setattr(olsr.OlsrNode, "hello_mprs", checked_mprs)
    monkeypatch.setattr(olsr.OlsrNode, "reset", counted_reset)
    World(cfg.validate()).run()
    return counts


def test_caches_match_fresh_computation_mobile(monkeypatch):
    cfg = ScenarioConfig(protocol="olsr", n=20, seed=2, duration=120.0, warmup=20.0,
                         v_min=2.0, v_max=8.0)
    counts = check_caches(monkeypatch, cfg)
    assert counts["hello"] > 1000 and counts["lookups"] > 1000 and counts["built"] > 1000


def test_caches_match_fresh_computation_across_phase_resets(monkeypatch):
    cfg = ScenarioConfig(protocol="cml", n=20, seed=1, duration=120.0, warmup=20.0)
    counts = check_caches(monkeypatch, cfg)
    assert counts["reset"] > 0 and counts["hello"] > 1000 and counts["lookups"] > 100


# -- incremental masks (property) -------------------------------------------------

PEER = st.integers(1, 6)
NAMES = st.frozensets(st.integers(0, 6), max_size=3)
# route lookups come twice as often as the other steps: an expiry is only
# purged, and a stale route only seen, at a lookup or a receipt
LOOKUP = st.tuples(st.just("lookup"), st.integers(0, 7))
STEP = st.one_of(
    st.tuples(st.just("hello"), PEER, NAMES, st.booleans()),
    st.tuples(st.just("tc"), PEER, NAMES, PEER),
    st.tuples(st.just("advance"), st.floats(0.0, 16.0)),
    LOOKUP,
    LOOKUP,
    st.just(("mprs",)),
    st.just(("reset",)),
)


def rebuilt_masks(node):
    """(_out, _adj) rebuilt from the node's tables, zero rows left out."""
    me = node.node.id
    out = {a: mask(ids - {me}) for a, ids in table_edges(node).items() if ids - {me}}
    adj = adjacency({a: members(m) for a, m in out.items()})
    return out, {a: m for a, m in adj.items() if m}


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEP, min_size=20, max_size=60))
def test_incremental_masks_match_rebuild(steps):
    """After every HELLO, TC, clock advance, route lookup, HELLO build or
    reset, _out and _adj equal masks rebuilt from links and topology, and
    every cached next hop is the reference's on the current tables. A lookup
    answers as the reference search does, reachable_count counts its table
    plus self, and a HELLO carries the reference cover of the neighbor
    table as the last receipt left it."""
    world = make_world([(0.0, 0.0), (5000.0, 5000.0)], width=6000.0, height=6000.0)
    world.relay_after_jitter = lambda *args: None
    node = olsr.OlsrNode(world, world.nodes[0])
    seq = 0
    expected_mprs = set()
    for step in steps:
        if step[0] == "hello":
            _, sender, names, selected = step
            node.process_hello(pk.HelloMsg(
                origin=sender, neighbor_list=tuple(sorted(names - {sender})),
                mpr_flags=frozenset({0} if selected else ())), sender)
            expected_mprs = reference_mprs(node)
        elif step[0] == "tc":
            _, origin, names, prev_hop = step
            seq += 1
            msg = pk.TcMsg(origin=origin, advertised=tuple(sorted(names - {origin})),
                           sequence=seq)
            node.process_tc(pk.Frame(kind=pk.TC, msg=msg, sender=prev_hop), prev_hop)
        elif step[0] == "advance":
            world.kernel.run_until(world.kernel.now + step[1])
        elif step[0] == "lookup":
            assert node.next_hop(step[1]) == reference_next_hop(node, step[1])
            assert node.reachable_count() == len(reference_shortest_routes(
                0, list(node.links), table_edges(node))) + 1
        elif step[0] == "mprs":
            assert node.hello_mprs() == expected_mprs
        else:
            node.reset()
            expected_mprs = set()
        out, adj = rebuilt_masks(node)
        assert {a: m for a, m in node._out.items() if m} == out
        assert {a: m for a, m in node._adj.items() if m} == adj
        for dest, nh in node._next_hops.items():
            assert nh == reference_next_hop(node, dest)
