"""Reactive engine: on-demand route discovery by RREQ flooding with unicast
RREP from the destination only, expiring routes, and the hop-count-based
network-size estimate the adaptive layer consumes.

No RERR or local repair: a route whose next hop the MAC gave up on expires
at once, other broken next hops age out, and losses surface in the metrics.
"""

from . import packets as pk


def estimate_size_from_hops(max_hop_count, k):
    """Node-count estimate for a uniformly distributed network: round(k * h^2)."""
    if max_hop_count < 0:
        raise ValueError("hop count must be nonnegative")
    if k <= 0:
        raise ValueError("proportionality constant must be positive")
    return round(k * max_hop_count * max_hop_count)


class Route:
    __slots__ = ("next_hop", "hops", "dest_seq", "expiry")

    def __init__(self, next_hop, hops, dest_seq, expiry):
        self.next_hop = next_hop
        self.hops = hops
        self.dest_seq = dest_seq
        self.expiry = expiry


def net_traversal_time(cfg):
    """Per the AODV convention: 2 * node_traversal_time * net_diameter."""
    return 2.0 * cfg.node_traversal_time * cfg.net_diameter


# An ExpiringTable is rebuilt from its live entries once it holds more than
# twice the live count of its last rebuild plus this many: its size stays
# proportional to its live entries at O(1) amortised cost per insertion.
# Expired entries already read as absent, so a rebuild changes no output.
PURGE_SLACK = 64


class ExpiringTable(dict):
    """key -> (value, expiry time). An entry whose expiry has passed reads
    as absent, and put() rebuilds the table once it outgrows cap."""

    cap = PURGE_SLACK

    def live(self, key, now):
        """key's value, or None when it has none or its entry expired."""
        entry = self.get(key)
        return entry[0] if entry is not None and entry[1] > now else None

    def put(self, key, value, expiry, now):
        self[key] = (value, expiry)
        if len(self) > self.cap:
            self.rebuild(now)

    def rebuild(self, now):
        live = [(k, e) for k, e in self.items() if e[1] > now]
        self.clear()
        self.update(live)
        self.cap = 2 * len(live) + PURGE_SLACK


class _Request:
    __slots__ = ("retries_left", "packets", "timer")

    def __init__(self, retries_left):
        self.retries_left = retries_left
        self.packets = []
        self.timer = None


class Discovery:
    """One node's on-demand route discovery, shared by the AODV and DSR
    engines (RFC 3561 6.3-6.4, RFC 4728 3.1). Data for a destination with no
    route waits in a bounded buffer while a request floods; with no reply
    within the net traversal time the request floods again under a fresh id,
    up to rreq_retries times, and then the buffered data is dropped.

    It also keeps the duplicate table (RFC 3561 6.5): (origin, rreq_id) ->
    (True, the time until which further copies of that request are ignored).

    flood(dest, rreq_id) is the engine's own part: it broadcasts its request
    message.
    """

    def __init__(self, world, node, flood, detail):
        self.world = world
        self.node = node
        self.flood = flood
        self.detail = detail  # the timer events' trace detail
        self.rreq_counter = 0
        self.pending = {}  # dest -> _Request
        self.seen = ExpiringTable()

    def buffer(self, msg):
        """Hold msg until a route to msg.dst is found, starting a discovery
        if none is running."""
        cfg = self.world.cfg
        req = self.pending.get(msg.dst)
        if req is None:
            req = self.pending[msg.dst] = _Request(cfg.rreq_retries)
            self._flood(msg.dst, req)
        if len(req.packets) < cfg.buffer_cap:
            req.packets.append(msg)
        else:
            self.world.data_dropped(msg, "buffer-full")

    def first_copy(self, origin, rreq_id):
        """True unless request (origin, rreq_id) was first seen less than
        seen_lifetime ago. Only a first copy marks it seen, so a duplicate
        never extends that window."""
        now = self.world.kernel.now
        key = (origin, rreq_id)
        seen = self.seen
        entry = seen.get(key)
        if entry is not None and entry[1] > now:
            return False
        # ExpiringTable.put inlined: this runs once per request copy heard
        seen[key] = (True, now + self.world.cfg.seen_lifetime)
        if len(seen) > seen.cap:
            seen.rebuild(now)
        return True

    def _flood(self, dest, req):
        self.rreq_counter += 1
        self.first_copy(self.node.id, self.rreq_counter)
        self.flood(dest, self.rreq_counter)
        req.timer = self.world.kernel.schedule_in(
            net_traversal_time(self.world.cfg), lambda: self._timeout(dest),
            "timer", self.node.id, self.detail)

    def _timeout(self, dest):
        req = self.pending[dest]
        if req.retries_left > 0:
            req.retries_left -= 1
            self._flood(dest, req)
            return
        del self.pending[dest]
        for msg in req.packets:
            self.world.data_dropped(msg, "discovery-failed")

    def resolve(self, dest):
        """A reply arrived: end the discovery for dest and return the data it
        buffered (empty when none was running)."""
        req = self.pending.pop(dest, None)
        if req is None:
            return ()
        self.world.kernel.cancel(req.timer)
        return req.packets

    def reset(self):
        for req in self.pending.values():
            self.world.kernel.cancel(req.timer)
            for msg in req.packets:
                self.world.data_dropped(msg, "engine-reset")
        self.pending.clear()
        self.seen.clear()


class AodvNode:
    """One node's AODV engine."""

    def __init__(self, world, node):
        self.world = world
        self.node = node
        self.cfg = world.cfg
        self.routes = {}
        self.own_seq = 0
        self.discovery = Discovery(world, node, self._flood_rreq, "rreq-timeout")
        self.on_rrep_at_source = None  # hook(total_hops) for the adaptive layer

    def boot(self):
        pass

    def reset(self):
        self.discovery.reset()
        self.routes.clear()

    # -- routing table ------------------------------------------------------

    def valid_route(self, dest):
        route = self.routes.get(dest)
        if route is not None and route.expiry > self.world.kernel.now:
            return route
        return None

    def _install(self, dest, next_hop, hops, dest_seq):
        now = self.world.kernel.now
        cur = self.routes.get(dest)
        if cur is not None and cur.expiry > now and \
                (cur.dest_seq, -cur.hops) > (dest_seq, -hops):
            return cur
        route = Route(next_hop, hops, dest_seq, now + self.cfg.route_lifetime)
        self.routes[dest] = route
        return route

    # -- discovery ------------------------------------------------------------

    def send_data(self, msg):
        route = self.valid_route(msg.dst)
        if route is not None:
            self._send_via(msg, route)
            return
        if msg.dst not in self.discovery.pending:
            self.own_seq += 1  # once per discovery, not per retry
        self.discovery.buffer(msg)

    def _flood_rreq(self, dest, rreq_id):
        self.world.broadcast(self.node, pk.RREQ, pk.RreqMsg(
            origin=self.node.id, destination=dest, rreq_id=rreq_id,
            origin_sequence=self.own_seq, hop_count=0))

    # -- reception --------------------------------------------------------------

    def on_frame(self, frame, prev_hop):
        if frame.kind == pk.RREQ:
            self.process_rreq(frame, prev_hop)
        elif frame.kind == pk.RREP:
            self.process_rrep(frame, prev_hop)

    def process_rreq(self, frame, prev_hop):
        msg = frame.msg
        if not self.discovery.first_copy(msg.origin, msg.rreq_id) \
                or msg.origin == self.node.id:
            return
        self._install(msg.origin, prev_hop, msg.hop_count + 1, msg.origin_sequence)
        if msg.destination == self.node.id:
            self.own_seq += 1
            reply = pk.RrepMsg(origin=msg.origin, destination=self.node.id,
                               dest_sequence=self.own_seq, hop_count=0)
            self.world.unicast(self.node, prev_hop, pk.RREP, reply)
            return
        relay = frame.clone_for_relay(
            self.node.id,
            msg=pk.RreqMsg(msg.origin, msg.destination, msg.rreq_id,
                           msg.origin_sequence, msg.hop_count + 1))
        self.world.relay_after_jitter(self.node, relay, "rreq")

    def process_rrep(self, frame, prev_hop):
        msg = frame.msg
        total_hops = msg.hop_count + 1
        self._install(msg.destination, prev_hop, total_hops, msg.dest_sequence)
        if msg.origin == self.node.id:
            route = self.valid_route(msg.destination)
            horizon = self.world.kernel.now - self.cfg.buffer_hold
            for buffered in self.discovery.resolve(msg.destination):
                if route is None or buffered.send_time < horizon:
                    self.world.data_dropped(buffered, "no-route")
                else:
                    self._send_via(buffered, route)
            if self.on_rrep_at_source is not None:
                self.on_rrep_at_source(total_hops)
            return
        back = self.valid_route(msg.origin)
        if back is None:
            return  # reverse route expired; reply dies here
        msg.hop_count = total_hops
        # forwarding the reply refreshes the reverse route it rides on
        back.expiry = self.world.kernel.now + self.cfg.route_lifetime
        self.world.unicast(self.node, back.next_hop, pk.RREP, msg)

    # -- data plane ----------------------------------------------------------------

    def on_link_failure(self, frame):
        """Link-layer feedback: frame reached no one, so drop the routes
        through its receiver and let the next packet trigger a fresh
        discovery."""
        next_hop = frame.receiver
        now = self.world.kernel.now
        for dest, route in self.routes.items():
            if route.next_hop == next_hop and route.expiry > now:
                route.expiry = now

    def forward(self, msg):
        route = self.valid_route(msg.dst)
        if route is None:
            self.world.data_dropped(msg, "no-route")
            return
        self._send_via(msg, route)

    def _send_via(self, msg, route):
        route.expiry = self.world.kernel.now + self.cfg.route_lifetime
        self.world.unicast(self.node, route.next_hop, pk.DATA, msg)
