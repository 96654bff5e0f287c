"""Minimal source-routing engine: flooding discovery that accumulates the
path, a small per-destination route cache, source-routed data forwarding,
and route-error notifications that purge broken links from caches. A node
learns of a broken link when the MAC gives up on a unicast to the next hop
(RFC 4728 8.3), and then sends the route error back to the data's source.

No promiscuous listening or packet salvaging; every source-route header byte
on a data packet is charged to routing load.
"""

from . import packets as pk
from .aodv import Discovery


class DsrNode:
    """One node's DSR engine."""

    def __init__(self, world, node):
        self.world = world
        self.node = node
        self.cfg = world.cfg
        # dest -> list of (path tuple self..dest, expiry)
        self.cache = {}
        self.discovery = Discovery(world, node, self._flood_rreq, "dsr-timeout")

    def boot(self):
        pass

    def reset(self):
        self.cache.clear()
        self.discovery.reset()

    # -- cache ----------------------------------------------------------------

    def cached_path(self, dest):
        now = self.world.kernel.now
        paths = self.cache.get(dest)
        if not paths:
            return None
        live = [(p, e) for (p, e) in paths if e > now]
        self.cache[dest] = live
        if not live:
            return None
        return min(live, key=lambda pe: (len(pe[0]), pe[0]))[0]

    def add_path(self, path):
        """Cache a full path self..dest, shortest preferred, bounded size."""
        dest = path[-1]
        now = self.world.kernel.now
        paths = [(p, e) for (p, e) in self.cache.get(dest, []) if e > now and p != path]
        paths.append((path, now + self.cfg.cache_lifetime))
        paths.sort(key=lambda pe: (len(pe[0]), pe[0]))
        self.cache[dest] = paths[:self.cfg.cache_paths]

    def purge_link(self, a, b):
        for dest in list(self.cache):
            kept = []
            for path, exp in self.cache[dest]:
                broken = False
                for u, v in zip(path, path[1:]):
                    if (u, v) == (a, b) or (u, v) == (b, a):
                        broken = True
                        break
                if not broken:
                    kept.append((path, exp))
            if kept:
                self.cache[dest] = kept
            else:
                self.cache.pop(dest)

    # -- discovery ---------------------------------------------------------------

    def send_data(self, msg):
        path = self.cached_path(msg.dst)
        if path is not None:
            msg.source_route = path
            msg.cursor = 0
            self.forward(msg)
            return
        self.discovery.buffer(msg)

    def _flood_rreq(self, dest, rreq_id):
        self.world.broadcast(self.node, pk.DSR_RREQ, pk.DsrRreqMsg(
            origin=self.node.id, destination=dest, rreq_id=rreq_id,
            route_record=(self.node.id,)))

    # -- reception ------------------------------------------------------------------

    def on_frame(self, frame, prev_hop):
        if frame.kind == pk.DSR_RREQ:
            self.process_rreq(frame, prev_hop)
        elif frame.kind == pk.DSR_RREP:
            self.process_rrep(frame.msg)
        elif frame.kind == pk.DSR_RERR:
            self.process_rerr(frame.msg)

    def process_rreq(self, frame, prev_hop):
        msg = frame.msg
        if self.node.id in msg.route_record \
                or not self.discovery.first_copy(msg.origin, msg.rreq_id):
            return
        if msg.destination == self.node.id:
            route = msg.route_record + (self.node.id,)
            reply = pk.DsrRrepMsg(destination=msg.origin, route=route,
                                  cursor=len(route) - 2)
            self.world.unicast(self.node, route[-2], pk.DSR_RREP, reply)
            return
        relay = frame.clone_for_relay(
            self.node.id,
            msg=pk.DsrRreqMsg(msg.origin, msg.destination, msg.rreq_id,
                              msg.route_record + (self.node.id,)))
        self.world.relay_after_jitter(self.node, relay, "dsr-rreq")

    def process_rrep(self, msg):
        route = msg.route
        if msg.destination == self.node.id:
            self.add_path(route)
            for buffered in self.discovery.resolve(route[-1]):
                buffered.source_route = route
                buffered.cursor = 0
                self.forward(buffered)
            return
        if msg.cursor <= 0 or route[msg.cursor] != self.node.id:
            return
        msg.cursor -= 1
        self.world.unicast(self.node, route[msg.cursor], pk.DSR_RREP, msg)

    def process_rerr(self, msg):
        self.purge_link(msg.broken_from, msg.broken_to)
        path = msg.path_back
        if msg.cursor <= 0 or path[msg.cursor] != self.node.id:
            return
        msg.cursor -= 1
        self.world.unicast(self.node, path[msg.cursor], pk.DSR_RERR, msg)

    def on_link_failure(self, frame):
        """Link-layer feedback: frame reached no one. Purge the paths over
        the link, and for source-routed data send a route error back along
        the route to its source."""
        nxt = frame.receiver
        self.purge_link(self.node.id, nxt)
        if frame.kind != pk.DATA:
            return
        route = frame.msg.source_route
        cursor = frame.msg.cursor - 1  # this node's place on the route
        if cursor > 0:
            err = pk.DsrRerrMsg(broken_from=self.node.id, broken_to=nxt,
                                path_back=route[:cursor + 1], cursor=cursor - 1)
            self.world.unicast(self.node, route[cursor - 1], pk.DSR_RERR, err)

    # -- data plane ---------------------------------------------------------------------

    def forward(self, msg):
        msg.cursor += 1
        self.world.unicast(self.node, msg.source_route[msg.cursor], pk.DATA, msg)
