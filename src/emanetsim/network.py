"""Simulation world: nodes, the shared radio channel, traffic, adversaries.

Channel model
-------------
Each node owns a FIFO transmit queue served one frame at a time. A
transmission occupies the air at the sender and at every node in radio range
for its full duration (bytes plus MAC framing, divided by the channel rate).
Senders carrier-sense: while any audible transmission is ongoing they defer,
then back off a random number of slots. A receiver gets frame f when it was
in range at f's start, was active for all of f, and heard or sent no other
transmission overlapping f's airtime [start, end), so hidden terminals
collide. tests/test_channel.py checks this rule against a reference. Unicast
frames are retried up to a limit with binary exponential backoff; broadcasts
are never retried.

With ideal_channel=True all of that is bypassed: every transmission reaches
its snapshot receivers after the serialization delay, with no contention and
no loss. Oracle tests use this to check routing logic under uniform per-hop
delay.

A unicast that reaches no one, after its last retry on the contended channel
and at once on the ideal channel, is reported to the sender's protocol
through on_link_failure(frame). Protocols learn of broken links only this
way; none reads the simulator's neighbour map.

On either channel a transmission has one rx event, which hands the frame to
each of its receivers in order. The contended channel schedules it from the
tx-end event that settles collisions and retries at the end of the airtime;
the ideal channel has no tx-end and schedules it when the frame is sent.

Protocol drivers
----------------
The world calls each node's driver through boot() at run start,
on_frame(frame, prev_hop) for each control frame received, send_data(msg)
for DATA the node originates, forward(msg) for DATA received for another
node, and on_link_failure(frame) as above. DATA never reaches on_frame: the
world delivers it, and the protocols only pick next hops.
"""

from collections import deque, namedtuple
from functools import partial

from . import mobility as mob
from . import packets as pk
from . import security as sec
from .kernel import EventKernel
from .metrics import MetricLog


# One phase transition of one node; runner.run_scenario writes each as a
# transitions.log line.
Transition = namedtuple("Transition", "t node frm to trigger")


class _QueuedTx:
    __slots__ = ("frame", "attempt", "not_before")

    def __init__(self, frame, not_before):
        self.frame = frame
        self.attempt = 0
        self.not_before = not_before


class Node:
    """Per-node runtime state: kinematics, radio bookkeeping, protocol driver."""
    __slots__ = ("id", "kin", "mob", "proto", "mac", "active", "adversary",
                 "driver", "queue", "tx_busy_until", "air_busy_until",
                 "last_collision", "pump_scheduled", "pump_event")

    def __init__(self, node_id, kin, mob, proto, mac):
        self.id = node_id
        self.kin = kin
        self.mob, self.proto, self.mac = mob, proto, mac  # the random streams
        self.active = True
        self.adversary = sec.ATTACK_NONE
        self.driver = None
        # radio state
        self.queue = deque()
        self.tx_busy_until = 0.0
        self.air_busy_until = 0.0     # latest end of transmissions audible here
        self.last_collision = -1.0    # last instant two transmissions overlapped here
        self.pump_scheduled = False
        self.pump_event = None        # the pump callback, made once by World


class World:
    """Owns one simulation run end to end."""

    def __init__(self, cfg, trace=None):
        self.cfg = cfg
        self.kernel = EventKernel(trace=trace)
        self.root_stream = cfg.stream()
        self.metrics = MetricLog(warmup=cfg.warmup)
        self.transitions = []

        self.area = cfg.build_area()
        self.mobility = mob.MobilityModel(self.area, cfg.v_min, cfg.v_max, cfg.pause_max)

        fork = self.root_stream.fork
        place = fork("placement")
        self.nodes = []
        for i in range(cfg.n):
            x, y = mob.sample_point(place, self.area)
            kin = mob.NodeKinematics(x, y)
            node = Node(i, kin, fork(f"node{i}/mob"), fork(f"node{i}/proto"),
                        fork(f"node{i}/mac"))
            node.pump_event = partial(self._pump, node, True)
            self.mobility.init_node(kin, node.mob)
            self.nodes.append(node)

        self._neighbors = {}
        self.refresh_links()
        # node id -> its decimal string, for the rx events' trace details
        self._id_strs = [str(i) for i in range(cfg.n)]

        # message size -> apply_security's cost triple in this run's mode
        self._crypto_costs = {}
        self._authenticates = cfg.security_mode in sec.AH_MODES

        self.flows = {}
        self._ready = False
        self._attach_adversaries()

    # ---- topology -------------------------------------------------------

    def refresh_links(self):
        positions = {n.id: (n.kin.x, n.kin.y) for n in self.nodes if n.active}
        self._neighbors = mob.neighbor_map(positions, self.cfg.radius, self.area)

    def neighbors(self, node_id):
        return self._neighbors.get(node_id, ())

    def connected(self):
        """True when the current neighbor graph is one component."""
        if not self.nodes:
            return True
        reached = mob.hop_distances(self.neighbors, self.nodes[0].id)
        return len(reached) == len([n for n in self.nodes if n.active])

    def _mobility_tick(self):
        dt = self.cfg.mobility_tick
        now = self.kernel.now
        for n in self.nodes:
            self.mobility.advance(n.kin, n.mob, now, dt)
        self.refresh_links()
        self.kernel.schedule_in(dt, self._mobility_tick, "mobility-tick")

    # ---- radio ----------------------------------------------------------

    def broadcast(self, node, kind, msg, sec_valid=True, adversary_origin=False):
        self._enqueue(node, pk.Frame(kind, msg, node.id, None, sec_valid,
                                     adversary_origin))

    def unicast(self, node, receiver, kind, msg):
        self._enqueue(node, pk.Frame(kind, msg, node.id, receiver))

    def relay_after_jitter(self, node, frame, detail, max_jitter=None):
        """Relay a flooded frame after a jitter drawn uniformly from
        [0, max_jitter) on the node's proto stream; max_jitter defaults to
        broadcast_jitter. m * random() is the value uniform(0.0, m) draws."""
        if max_jitter is None:
            max_jitter = self.cfg.broadcast_jitter
        kernel = self.kernel
        kernel.schedule(kernel.now + max_jitter * node.proto.random(),
                        partial(self.relay, node, frame), "relay", node.id, detail)

    def _enqueue(self, node, frame):
        if not node.active:
            return
        if self.cfg.ideal_channel:
            self._transmit(node, frame)
            return
        node.queue.append(_QueuedTx(frame, self.kernel.now))
        self._pump(node)

    relay = _enqueue  # a flooded frame is queued like any other

    def _schedule_pump(self, node, at):
        if not node.pump_scheduled:
            node.pump_scheduled = True
            self.kernel.schedule(at, node.pump_event, "pump", node.id)

    def _pump(self, node, event=False):
        """Serve the head of node's queue. event is True when this is the
        node's pump event, which _schedule_pump then no longer holds."""
        if event:
            node.pump_scheduled = False
        if not node.queue or not node.active:
            return
        now = self.kernel.now
        item = node.queue[0]
        if item.not_before > now or node.tx_busy_until > now:
            self._schedule_pump(node, max(item.not_before, node.tx_busy_until))
            return
        if node.air_busy_until > now:
            # medium busy: defer to its end plus a random contention backoff
            cfg = self.cfg
            backoff = cfg.slot_time * node.mac.below(cfg.cw_min)
            self._schedule_pump(node, node.air_busy_until + backoff)
            return
        self._transmit(node, item.frame, item)

    def _transmit(self, node, frame, item=None):
        """Put frame on the air. On the contended channel item is its queue
        entry, and a tx-end event settles every receiver at the end of the
        airtime. On the ideal channel (no item) the rx event is scheduled
        here, for the receivers in range when the frame was sent; a
        transmission that reaches no one schedules none, and a unicast to a
        non-neighbour fails at once."""
        cfg = self.cfg
        kernel = self.kernel
        now = kernel.now
        msg = frame.msg
        size = msg.wire_size()
        cost = self._crypto_costs.get(size)
        if cost is None:
            cost = self._crypto_costs[size] = sec.apply_security(
                size, cfg.security_mode, cfg.c_p)
        delta, snd_delay, rcv_delay = cost
        wire_bytes = size + delta
        airtime = (wire_bytes + cfg.mac_overhead_bytes) * 8.0 / cfg.bandwidth_bps

        if frame.kind == pk.DATA:
            sr = msg.source_route
            if sr is not None:
                self.metrics.count_control(pk.DSR_SR_HEADER, pk.ID_BYTES * len(sr),
                                           now, count_packet=False)
            msg.crypto_delay += snd_delay
        else:
            self.metrics.count_control(frame.kind, wire_bytes, now)

        audible = self._neighbors.get(node.id, ())
        receiver = frame.receiver
        deliver_to = audible if receiver is None else \
            ([receiver] if receiver in audible else [])

        if cfg.ideal_channel:
            if deliver_to:
                self._schedule_rx(now + (snd_delay + airtime), deliver_to, frame,
                                  rcv_delay)
            elif receiver is not None:
                self._link_failed(node, frame, "no-link")
            return

        end = now + (snd_delay + cfg.difs + airtime)
        node.tx_busy_until = end
        for v in map(self.nodes.__getitem__, audible):
            busy_until = v.air_busy_until
            if busy_until > now:
                v.last_collision = now
            if busy_until < end:
                v.air_busy_until = end

        kernel.schedule(end, partial(self._tx_done, node, item, deliver_to, now,
                                     rcv_delay),
                        "tx-end", node.id, frame.kind)

    def _tx_done(self, node, item, deliver_to, t_start, rcv_delay):
        """Settle a contended transmission at the end of its airtime, from
        each target's state then: active, no collision heard since t_start,
        and nothing sent since (a node switched back on counts as sending)."""
        queue = node.queue
        if not queue or queue[0] is not item:
            return  # the sender was switched off and on, which cleared its queue
        cfg = self.cfg
        now = self.kernel.now
        frame = item.frame
        ok_receivers = [v.id for v in map(self.nodes.__getitem__, deliver_to)
                        if v.active and v.last_collision < t_start
                        and v.tx_busy_until <= t_start]
        unicast_failed = frame.receiver is not None and not ok_receivers
        if unicast_failed and item.attempt < cfg.retry_limit:
            item.attempt += 1
            backoff = cfg.slot_time * node.mac.below(cfg.cw_min << item.attempt)
            item.not_before = now + backoff
            self._schedule_pump(node, item.not_before)
            return
        queue.popleft()
        if ok_receivers:
            self._schedule_rx(now, ok_receivers, frame, rcv_delay)
        elif unicast_failed:
            self._link_failed(node, frame, "mac-retry-limit")
        if queue:
            self._schedule_pump(node, now)

    def _link_failed(self, node, frame, reason):
        """A unicast reached no one: its DATA is dropped for reason, and the
        sender's protocol hears of the broken link from the frame. This is
        the only way any protocol learns of one."""
        if frame.kind == pk.DATA:
            self.data_dropped(frame.msg, reason)
        node.driver.on_link_failure(frame)

    def _schedule_rx(self, air_end, v_ids, frame, rcv_delay):
        """One rx event for all of v_ids, after processing and crypto. Its
        trace line names the sender in the node column and the receivers in
        the detail, as KIND>3,7,12."""
        kernel = self.kernel
        detail = frame.kind
        if kernel.trace is not None:
            ids = self._id_strs
            detail = f"{detail}>{','.join([ids[v] for v in v_ids])}"
        kernel.schedule(air_end + self.cfg.processing_delay + rcv_delay,
                        partial(self._receive, v_ids, frame, rcv_delay),
                        "rx", frame.sender, detail)

    def _receive(self, v_ids, frame, rcv_delay):
        """Hand frame to each receiver still active, in order: a control
        frame to its driver's on_frame, and DATA, once it has gained
        rcv_delay and a hop, to data_delivered when addressed to the
        receiver and else to its driver's forward. DATA whose receiver went
        inactive since the end of the airtime is dropped. The authentication
        gate and the frame's kind and sender are read once per frame, which
        holds because no handler changes the kind, sender, sec_valid or
        adversary_origin of a frame it received."""
        nodes = self.nodes
        if self._authenticates and not sec.accept_packet(frame):
            self.metrics.rejected_packets += sum(nodes[v_id].active for v_id in v_ids)
            return
        data = frame.kind == pk.DATA
        sender = frame.sender
        for v_id in v_ids:
            v = nodes[v_id]
            if not v.active:
                if data:
                    self.data_dropped(frame.msg, "receiver-inactive")
            elif not data:
                v.driver.on_frame(frame, sender)
            else:
                msg = frame.msg
                msg.crypto_delay += rcv_delay
                msg.hops += 1
                if msg.dst == v_id:
                    self.data_delivered(msg)
                else:
                    v.driver.forward(msg)

    # ---- data bookkeeping -------------------------------------------------

    def data_delivered(self, msg):
        self.metrics.record_delivery(msg.flow_id, msg.seq, msg.send_time,
                                     self.kernel.now, msg.hops, msg.crypto_delay)

    def data_dropped(self, msg, reason):
        self.metrics.note_data_dropped(msg.send_time, reason)

    def log_transition(self, node_id, frm, to, trigger):
        self.transitions.append(Transition(self.kernel.now, node_id, frm, to, trigger))

    # ---- traffic ----------------------------------------------------------

    def _start_traffic(self):
        cfg = self.cfg
        if cfg.traffic_rate <= 0:
            return
        period = 1.0 / cfg.traffic_rate
        for node in self.nodes:
            fstream = self.root_stream.fork(f"flow{node.id}")
            start = cfg.traffic_start + fstream.uniform(0.0, period)
            self._new_epoch(node.id, 0, fstream, start)

    def _new_epoch(self, src, epoch, fstream, when):
        """Start src's flow for one epoch, whose destination is re-drawn
        every rotation_interval."""
        others = [n.id for n in self.nodes if n.id != src]
        dst = others[fstream.randrange(len(others))]
        flow_id = (src, epoch)
        self.flows[flow_id] = {"src": src, "dst": dst, "seq": 0}
        self.kernel.schedule(when, lambda: self._send_tick(flow_id),
                             "traffic-send", src)
        if self.cfg.rotation_interval > 0:
            self.kernel.schedule(when + self.cfg.rotation_interval,
                                 lambda: self._new_epoch(src, epoch + 1, fstream,
                                                         self.kernel.now),
                                 "traffic-rotate", src)

    def _send_tick(self, flow_id):
        flow = self.flows[flow_id]
        cfg = self.cfg
        now = self.kernel.now
        if cfg.rotation_interval > 0:
            epoch = flow_id[1]
            epoch_end = cfg.traffic_start + (epoch + 1) * cfg.rotation_interval
            if now >= epoch_end - 1e-9:
                return  # epoch rolled over; the next epoch's tick chain owns traffic
        node = self.nodes[flow["src"]]
        msg = pk.DataMsg(flow_id=flow_id, seq=flow["seq"], dst=flow["dst"],
                         payload=cfg.traffic_payload, send_time=now)
        flow["seq"] += 1
        self.metrics.note_data_sent(now)
        if node.active:
            node.driver.send_data(msg)
        else:
            self.data_dropped(msg, "source-inactive")
        self.kernel.schedule_in(1.0 / cfg.traffic_rate,
                                lambda: self._send_tick(flow_id),
                                "traffic-send", flow["src"])

    # ---- adversaries -------------------------------------------------------

    def _attach_adversaries(self):
        for i in self.cfg.adversary_nodes:
            self.nodes[i].adversary = self.cfg.adversary_behavior

    def _start_adversaries(self):
        cfg = self.cfg
        if cfg.adversary_behavior == sec.ATTACK_FORGE_CP:
            # one alternation of the demanded phase, shared by every forger
            self._forge_target = cfg.adversary_target_phase
            for i in cfg.adversary_nodes:
                self.kernel.schedule(cfg.warmup * 0.5 + cfg.adversary_period,
                                     lambda n=i: self._forge_cp(n), "attack", i)
        elif cfg.adversary_behavior == sec.ATTACK_OSCILLATE:
            self.kernel.schedule(cfg.adversary_period,
                                 lambda: self._toggle_group(cfg.adversary_nodes),
                                 "attack")

    def _forge_cp(self, node_id):
        self._forge_target = self.nodes[node_id].driver.forge_cp(self._forge_target)
        self.metrics.adversary_injected += 1
        self.kernel.schedule_in(self.cfg.adversary_period,
                                lambda: self._forge_cp(node_id), "attack", node_id)

    def _toggle_group(self, ids):
        for i in ids:
            node = self.nodes[i]
            node.active = not node.active
            if node.active:
                for queued in node.queue:
                    if queued.frame.kind == pk.DATA:
                        self.data_dropped(queued.frame.msg, "node-reset")
                node.queue.clear()
                node.tx_busy_until = self.kernel.now
        self.refresh_links()
        self.kernel.schedule_in(self.cfg.adversary_period,
                                lambda: self._toggle_group(ids), "attack")

    # ---- run ---------------------------------------------------------------

    def setup(self):
        """Create protocol drivers and schedule boot, mobility, traffic and
        adversary events. Safe to call once; run() calls it if needed."""
        from . import protocols
        if self._ready:
            return
        self._ready = True
        for node in self.nodes:
            node.driver = protocols.make_driver(self.cfg.protocol, self, node)
        for node in self.nodes:
            node.driver.boot()
        if self.cfg.v_max > 0:
            self.kernel.schedule_in(self.cfg.mobility_tick, self._mobility_tick,
                                    "mobility-tick")
        self._start_traffic()
        self._start_adversaries()

    def run(self):
        self.setup()
        self.kernel.run_until(self.cfg.duration)
        return self.metrics.summarize(self.cfg.protocol, self.cfg.security_mode,
                                      self.cfg.n, self.cfg.seed)
