"""Proactive link-state engine: periodic HELLO and TC emission, MPR selection,
topology database, and hop-count shortest routes.

Simplified relative to the full RFC: single interface, no link hysteresis, no
willingness. Entries expire after three emission intervals without refresh.
Derived state is computed where it is read: a route per destination when a
packet asks for it, and the MPR set when a HELLO is built.
"""

from . import packets as pk
from .packets import mask


def select_mprs(one_hop, named):
    """Greedy multipoint-relay cover (RFC 3626 section 8.3.1).

    one_hop: iterable of neighbor ids. named: neighbor -> mask of the nodes
    its HELLO names. First picks neighbors that are the sole path to some
    strict two-hop node, then repeatedly the neighbor covering the most
    uncovered two-hop nodes; ties go to the lowest node id.
    """
    one = sorted(one_hop)
    one_mask = mask(one)
    reach = [(n, named.get(n, 0) & ~one_mask) for n in one]
    once = twice = 0
    for _, r in reach:
        twice |= once & r
        once |= r
    sole = once & ~twice
    mprs = set()
    covered = 0
    for n, r in reach:
        if r & sole:
            mprs.add(n)
            covered |= r
    while covered != once:
        best, best_reach, best_gain = None, 0, 0
        for n, r in reach:
            gain = (r & ~covered).bit_count()
            if gain > best_gain:
                best, best_reach, best_gain = n, r, gain
        mprs.add(best)
        covered |= best_reach
    return mprs


def shortest_routes(self_id, one_hop, adj):
    """Hop-count shortest paths over the known graph, by a layered BFS.

    adj: node -> mask of its neighbours, symmetric. Returns dest ->
    (next_hop, hops), inserted in (hops, next_hop, dest) order. Ties follow
    RFC 3626 section 10: among equal-length paths the lowest next-hop id
    wins. Each layer is a list of (next_hop, mask of the nodes that the
    last layer's members of that group reach), taken in next-hop order, so
    a node's first visit already carries its least next hop.
    """
    first = sorted(set(one_hop) - {self_id})
    seen = mask(first) | 1 << self_id
    routes = {n: (n, 1) for n in first}
    get = adj.get
    layer = [(n, get(n, 0)) for n in first]
    hops = 2
    while layer:
        nxt = []
        for next_hop, reach in layer:
            new = reach & ~seen
            if not new:
                continue
            seen |= new
            reach = 0
            while new:
                low = new & -new
                new ^= low
                node = low.bit_length() - 1
                routes[node] = (next_hop, hops)
                reach |= get(node, 0)
            nxt.append((next_hop, reach))
        layer = nxt
        hops += 1
    return routes


def _spread(layer, get):
    """The union of the adjacency masks get(i) of the nodes i in mask layer."""
    reach = 0
    while layer:
        low = layer & -layer
        layer ^= low
        reach |= get(low.bit_length() - 1, 0)
    return reach


def route_to(self_id, one_mask, adj, dest):
    """The entry shortest_routes(self_id, one_hop, adj) gives dest, with
    one_mask the mask of one_hop: (next_hop, hops), or None when no path
    reaches dest.

    A layered search back from dest over adj that never passes self_id. It
    stops at the first layer that meets one_mask, and the lowest one-hop id
    in that layer is the next hop: the neighbours in that layer are exactly
    those with a shortest path to dest, so this is RFC 3626 section 10's
    tie rule.
    """
    if dest == self_id:
        return None
    one_mask &= ~(1 << self_id)
    bit = 1 << dest
    if one_mask & bit:
        return dest, 1
    get = adj.get
    seen = bit | 1 << self_id
    layer = bit
    hops = 1
    while layer:
        hops += 1
        reach = _spread(layer, get)
        hit = reach & one_mask
        if hit:
            return (hit & -hit).bit_length() - 1, hops
        layer = reach & ~seen
        seen |= layer
    return None


class OlsrNode:
    """One node's OLSR engine; drives emissions through the world's channel."""

    def __init__(self, world, node):
        self.world = world
        self.node = node
        self.cfg = world.cfg
        self.enabled = True
        # neighbor -> (mask of the nodes its HELLO names, this node removed;
        # expiry; whether it selected this node as an MPR)
        self.links = {}
        self.mpr_set = set()
        # origin -> (mask of its advertised selectors, expiry)
        self.topology = {}
        # derived from links and topology, kept up to date as they change:
        # _out[a] = the links mask | the topology mask of a, this node
        # removed; _adj[a] = the mask of a's neighbours in the symmetric graph
        self._out = {}
        self._adj = {}
        self.msg_seq = 0
        self._tc_seen = {}
        # dest -> next hop or None, as route_to gave it; emptied whenever the
        # one-hop keys or _adj change
        self._next_hops = {}
        # _mprs_stale: a neighbor or its neighbor set changed since the last
        # copy was taken; _mpr_input: neighbor -> named mask, copied from links
        # at the receipt that found them stale, for the next HELLO's selection
        self._mprs_stale = True
        self._mpr_input = None
        # no table entry expires before this time
        self._next_expiry = float("inf")
        self.on_tc_processed = None  # hook for the adaptive layer

    # -- lifecycle ---------------------------------------------------------

    def boot(self):
        stream = self.node.streams["proto"]
        hello_at = stream.uniform(0.0, self.cfg.hello_interval)
        tc_at = stream.uniform(0.0, self.cfg.tc_interval)
        self.world.kernel.schedule(hello_at, self._hello_timer,
                                   "timer", self.node.id, "hello")
        self.world.kernel.schedule(tc_at, self._tc_timer,
                                   "timer", self.node.id, "tc")

    def reset(self):
        """Cold start: forget everything learned."""
        self.links.clear()
        self.mpr_set.clear()
        self.topology.clear()
        self._out.clear()
        self._adj.clear()
        self._tc_seen.clear()
        self._next_hops.clear()
        self._mpr_input = None

    # -- emissions ----------------------------------------------------------

    def _hello_timer(self):
        if self.enabled and self.node.active:
            self.emit_hello()
        stream = self.node.streams["proto"]
        nxt = self.cfg.hello_interval - stream.uniform(0.0, 0.1 * self.cfg.hello_interval)
        self.world.kernel.schedule_in(nxt, self._hello_timer,
                                      "timer", self.node.id, "hello")

    def _tc_timer(self):
        if self.enabled and self.node.active:
            self.emit_tc()
        stream = self.node.streams["proto"]
        nxt = self.cfg.tc_interval - stream.uniform(0.0, 0.1 * self.cfg.tc_interval)
        self.world.kernel.schedule_in(nxt, self._tc_timer,
                                      "timer", self.node.id, "tc")

    def emit_hello(self):
        self._purge()
        msg = pk.HelloMsg(origin=self.node.id,
                          neighbor_list=tuple(sorted(self.links)),
                          mpr_flags=frozenset(self.hello_mprs()))
        self.world.broadcast(self.node, pk.HELLO, msg)

    def hello_mprs(self):
        """The MPR set the next HELLO carries, selected on the neighbor table
        as the last receipt that changed it left it."""
        if self._mpr_input is not None:
            self.mpr_set = select_mprs(self._mpr_input, self._mpr_input)
            self._mpr_input = None
        return self.mpr_set

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

    def process_hello(self, msg, sender):
        now = self.world.kernel.now
        expiry = now + 3.0 * self.cfg.hello_interval
        named = msg.neighbor_mask & ~(1 << self.node.id)
        known = self.links.get(sender)
        self.links[sender] = (named, expiry, self.node.id in msg.mpr_flags)
        if known is None:
            self._next_hops.clear()
        if known is None or known[0] != named:
            self._mprs_stale = True
            self._update_out(sender)
        if expiry < self._next_expiry:
            self._next_expiry = expiry
        self._purge()
        if self._mprs_stale:
            self._mpr_input = {n: m for n, (m, _, _) in self.links.items()}
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
        advertised = msg.advertised_mask
        known = self.topology.get(msg.origin)
        expiry = now + 3.0 * self.cfg.tc_interval
        self.topology[msg.origin] = (advertised, expiry)
        if known is None or known[0] != advertised:
            self._update_out(msg.origin)
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
        dead = [n for n, (_, exp, _) in self.links.items() if exp <= now]
        for n in dead:
            del self.links[n]
        if dead:
            self._next_hops.clear()
            self._mprs_stale = True
        gone = [o for o, (_, exp) in self.topology.items() if exp <= now]
        for o in gone:
            del self.topology[o]
        for a in dead + gone:
            self._update_out(a)
        self._next_expiry = min(
            min((exp for _, exp, _ in self.links.values()), default=float("inf")),
            min((exp for _, exp in self.topology.values()), default=float("inf")))

    def _update_out(self, a):
        """Recompute _out[a] from the tables and toggle in _adj each edge
        a-b that the change adds or removes, that is, whose bit moved in
        _out[a] while _out[b] does not name a. Drops the cached next hops if
        _adj moved."""
        link = self.links.get(a)
        topo = self.topology.get(a)
        new = ((link[0] if link else 0) | (topo[0] if topo else 0)) & ~(1 << self.node.id)
        out, adj = self._out, self._adj
        diff = out.get(a, 0) ^ new
        out[a] = new
        bit = 1 << a
        while diff:
            low = diff & -diff
            diff ^= low
            b = low.bit_length() - 1
            if not out.get(b, 0) & bit:
                adj[a] = adj.get(a, 0) ^ low
                adj[b] = adj.get(b, 0) ^ bit
                self._next_hops.clear()

    def compute_routes(self):
        """The whole route table, dest -> (next_hop, hops), built afresh."""
        self._purge()
        return shortest_routes(self.node.id, self.links, self._adj)

    def reachable_count(self):
        """Total accessible nodes per the routing table, including self: the
        one-hop neighbors and all that _adj joins to them without self."""
        self._purge()
        get = self._adj.get
        layer = mask(self.links)
        seen = layer | 1 << self.node.id
        while layer:
            layer = _spread(layer, get) & ~seen
            seen |= layer
        return seen.bit_count()

    def next_hop(self, dest):
        self._purge()
        cache = self._next_hops
        if dest not in cache:
            route = route_to(self.node.id, mask(self.links), self._adj, dest)
            cache[dest] = route[0] if route else None
        return cache[dest]

    # -- data plane -------------------------------------------------------------

    def send_data(self, msg):
        """Unicast msg to its next hop, be it sent from here or forwarded."""
        nh = self.next_hop(msg.dst)
        if nh is None:
            self.world.data_dropped(msg, "no-route")
            return
        self.world.unicast(self.node, nh, pk.DATA, msg)

    forward = send_data

    def on_link_failure(self, frame):
        """Link-layer feedback is ignored: links come and go with HELLOs."""
