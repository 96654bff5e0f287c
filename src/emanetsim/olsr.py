"""Proactive link-state engine: periodic HELLO and TC emission, MPR selection,
topology database, and hop-count shortest routes.

Simplified relative to the full RFC: single interface, no link hysteresis, no
willingness. Entries expire after three emission intervals without refresh.
"""

from . import packets as pk


def select_mprs(one_hop, two_hop_map):
    """Greedy multipoint-relay cover.

    one_hop: iterable of neighbor ids. two_hop_map: neighbor -> set of its
    neighbors. First picks neighbors that are the sole path to some strict
    two-hop node, then repeatedly the neighbor covering the most uncovered
    two-hop nodes; ties go to the lowest node id.
    """
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


def shortest_routes(self_id, one_hop, edges):
    """Hop-count shortest paths over the known graph, by a layered BFS.

    edges: dict node -> iterable of adjacent nodes (need not be symmetric;
    symmetrized here). Returns dest -> (next_hop, hops), inserted in
    (hops, next_hop, dest) order. Ties follow RFC 3626 section 10: among
    equal-length paths the lowest next-hop id wins, so a node's next hop is
    the least next hop of its neighbours in the layer before. Each layer is
    walked in (next_hop, node) order, so the first visit already carries it.
    """
    adj = {}
    for a, nbrs in edges.items():
        row = adj.get(a)
        if row is None:
            row = adj[a] = set()
        row.update(nbrs)
        for b in nbrs:
            back = adj.get(b)
            if back is None:
                adj[b] = {a}
            else:
                back.add(a)

    first = set(one_hop)
    first.discard(self_id)
    seen = first | {self_id}
    layer = [(n, n) for n in sorted(first)]
    routes = {}
    hops = 1
    while layer:
        nxt = []
        for next_hop, node in layer:
            routes[node] = (next_hop, hops)
            for nb in adj.get(node, ()):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append((next_hop, nb))
        nxt.sort()
        layer = nxt
        hops += 1
    return routes


class OlsrNode:
    """One node's OLSR engine; drives emissions through the world's channel."""

    def __init__(self, world, node):
        self.world = world
        self.node = node
        self.cfg = world.cfg
        self.enabled = True
        # neighbor -> (set of its neighbors, expiry, whether it selected this
        # node as an MPR)
        self.links = {}
        self.mpr_set = set()
        # origin -> (advertised tuple, seq, expiry)
        self.topology = {}
        self.msg_seq = 0
        self._tc_seen = {}
        self._routes = {}
        # _dirty: an input of the route table changed since it was computed;
        # _mprs_stale: a neighbor or its neighbor set changed since the last
        # MPR selection
        self._dirty = True
        self._mprs_stale = True
        # no table entry expires before this time
        self._next_expiry = float("inf")
        self.on_tc_processed = None  # hook for the adaptive layer

    # -- lifecycle ---------------------------------------------------------

    def boot(self):
        stream = self.node.streams["proto"]
        hello_at = stream.uniform(0.0, self.cfg.hello_interval)
        tc_at = stream.uniform(0.0, self.cfg.tc_interval)
        self.world.kernel.schedule(hello_at, self._hello_timer,
                                   kind="timer", node=self.node.id, detail="hello")
        self.world.kernel.schedule(tc_at, self._tc_timer,
                                   kind="timer", node=self.node.id, detail="tc")

    def reset(self):
        """Cold start: forget everything learned."""
        self.links.clear()
        self.mpr_set.clear()
        self.topology.clear()
        self._tc_seen.clear()
        self._routes = {}
        self._dirty = True

    # -- emissions ----------------------------------------------------------

    def _hello_timer(self):
        if self.enabled and self.node.active:
            self.emit_hello()
        stream = self.node.streams["proto"]
        nxt = self.cfg.hello_interval - stream.uniform(0.0, 0.1 * self.cfg.hello_interval)
        self.world.kernel.schedule_in(nxt, self._hello_timer,
                                      kind="timer", node=self.node.id, detail="hello")

    def _tc_timer(self):
        if self.enabled and self.node.active:
            self.emit_tc()
        stream = self.node.streams["proto"]
        nxt = self.cfg.tc_interval - stream.uniform(0.0, 0.1 * self.cfg.tc_interval)
        self.world.kernel.schedule_in(nxt, self._tc_timer,
                                      kind="timer", node=self.node.id, detail="tc")

    def emit_hello(self):
        self._purge()
        msg = pk.HelloMsg(origin=self.node.id,
                          neighbor_list=tuple(sorted(self.links)),
                          mpr_flags=frozenset(self.mpr_set))
        self.world.broadcast(self.node, pk.HELLO, msg)

    def emit_tc(self):
        self._purge()
        selectors = tuple(sorted(n for n, (_, _, sel) in self.links.items() if sel))
        if not selectors:
            return
        self.msg_seq += 1
        msg = pk.TcMsg(origin=self.node.id, advertised=selectors,
                       sequence=self.msg_seq)
        self._tc_seen[self.node.id] = self.msg_seq
        self.world.broadcast(self.node, pk.TC, msg)

    # -- reception ----------------------------------------------------------

    def on_frame(self, frame, prev_hop):
        if frame.kind == pk.HELLO:
            self.process_hello(frame.msg, prev_hop)
        elif frame.kind == pk.TC:
            self.process_tc(frame, prev_hop)
        elif frame.kind == pk.DATA:
            self.handle_data(frame.msg)

    def process_hello(self, msg, sender):
        now = self.world.kernel.now
        expiry = now + 3.0 * self.cfg.hello_interval
        others = set(msg.neighbor_list)
        others.discard(self.node.id)
        known = self.links.get(sender)
        if known is None or known[0] != others:
            self._dirty = True
            self._mprs_stale = True
        self.links[sender] = (others, expiry, self.node.id in msg.mpr_flags)
        if expiry < self._next_expiry:
            self._next_expiry = expiry
        self._purge()
        if self._mprs_stale:
            self.mpr_set = select_mprs(self.links,
                                       {n: s for n, (s, _, _) in self.links.items()})
            self._mprs_stale = False

    def process_tc(self, frame, sender):
        msg = frame.msg
        now = self.world.kernel.now
        if msg.origin == self.node.id:
            return
        last = self._tc_seen.get(msg.origin, -1)
        if msg.sequence <= last:
            return
        self._tc_seen[msg.origin] = msg.sequence
        known = self.topology.get(msg.origin)
        if known is None or known[0] != msg.advertised:
            self._dirty = True
        expiry = now + 3.0 * self.cfg.tc_interval
        self.topology[msg.origin] = (msg.advertised, msg.sequence, expiry)
        if expiry < self._next_expiry:
            self._next_expiry = expiry
        # MPR flooding: relay only if the previous hop selected us
        link = self.links.get(sender)
        if link is not None and link[2]:
            self.world.relay_after_jitter(self.node, frame.clone_for_relay(self.node.id),
                                          "tc")
        if self.on_tc_processed is not None:
            self.on_tc_processed()

    # -- tables ---------------------------------------------------------------

    def _purge(self):
        now = self.world.kernel.now
        if now < self._next_expiry:
            return
        nxt = float("inf")
        dead = [n for n, (_, exp, _) in self.links.items() if exp <= now]
        for n in dead:
            del self.links[n]
        if dead:
            self._dirty = True
            self._mprs_stale = True
        for _, exp, _ in self.links.values():
            nxt = min(nxt, exp)
        dead = [o for o, (_, _, exp) in self.topology.items() if exp <= now]
        for o in dead:
            del self.topology[o]
        if dead:
            self._dirty = True
        for _, _, exp in self.topology.values():
            nxt = min(nxt, exp)
        self._next_expiry = nxt

    def compute_routes(self):
        self._purge()
        if not self._dirty:
            return self._routes
        edges = {nbr: their for nbr, (their, _, _) in self.links.items()}
        for origin, (advertised, _, _) in self.topology.items():
            their = edges.get(origin)
            edges[origin] = advertised if their is None else their.union(advertised)
        self._routes = shortest_routes(self.node.id, self.links, edges)
        self._dirty = False
        return self._routes

    def reachable_count(self):
        """Total accessible nodes per the routing table, including self."""
        return len(self.compute_routes()) + 1

    def next_hop(self, dest):
        route = self.compute_routes().get(dest)
        return route[0] if route else None

    # -- data plane -------------------------------------------------------------

    def send_data(self, msg):
        self._forward(msg)

    def handle_data(self, msg):
        msg.hops += 1
        if msg.dst == self.node.id:
            self.world.data_delivered(msg)
        else:
            self._forward(msg)

    def _forward(self, msg):
        nh = self.next_hop(msg.dst)
        if nh is None:
            self.world.data_dropped(msg, "no-route")
            return
        self.world.unicast(self.node, nh, pk.DATA, msg)
