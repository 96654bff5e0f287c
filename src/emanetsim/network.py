"""Simulation world: nodes, the shared radio channel, traffic, adversaries.

Channel model
-------------
Each node owns a FIFO transmit queue served one frame at a time. A
transmission occupies the air at the sender and at every node in radio range
for its full duration (bytes plus MAC framing, divided by the channel rate).
Senders carrier-sense: while any audible transmission is ongoing they defer,
then back off a random number of slots. Two transmissions overlapping at a
receiver corrupt each other there (hidden terminals included); a node that is
transmitting cannot receive. Unicast frames are retried up to a limit with
binary exponential backoff; broadcasts are never retried.

With ideal_channel=True all of that is bypassed: every transmission reaches
its snapshot receivers after the serialization delay, with no contention and
no loss. Oracle tests use this to check routing logic under uniform per-hop
delay.
"""

from collections import deque
from functools import partial

from . import mobility as mob
from . import packets as pk
from . import security as sec
from .kernel import EventKernel
from .metrics import MetricLog


class _QueuedTx:
    __slots__ = ("frame", "attempt", "not_before")

    def __init__(self, frame, not_before):
        self.frame = frame
        self.attempt = 0
        self.not_before = not_before


class Node:
    """Per-node runtime state: kinematics, radio bookkeeping, protocol driver."""

    def __init__(self, node_id, kin, streams):
        self.id = node_id
        self.kin = kin
        self.streams = streams
        self.active = True
        self.adversary = sec.ATTACK_NONE
        self.driver = None
        # radio state
        self.queue = deque()
        self.tx_busy_until = 0.0
        self.last_tx_start = -1.0
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
        self.link = mob.LinkModel(radius=cfg.radius)
        self.mobility = mob.MobilityModel(self.area, cfg.v_min, cfg.v_max, cfg.pause_max)

        place = self.root_stream.fork("placement")
        self.nodes = []
        for i in range(cfg.n):
            x, y = mob.sample_point(place, self.area)
            kin = mob.NodeKinematics(x, y)
            streams = {
                "mob": self.root_stream.fork(f"node{i}/mob"),
                "proto": self.root_stream.fork(f"node{i}/proto"),
                "mac": self.root_stream.fork(f"node{i}/mac"),
            }
            node = Node(i, kin, streams)
            node.pump_event = partial(self._pump_event, node)
            self.mobility.init_node(kin, streams["mob"])
            self.nodes.append(node)

        self._neighbors = {}
        self.refresh_links()

        # (wire size, security mode) -> apply_security's cost triple
        self._crypto_costs = {}
        self._authenticates = sec.authenticates(cfg.security_mode)

        self.flows = {}
        self._ready = False
        self._attach_adversaries()

    # ---- topology -------------------------------------------------------

    def refresh_links(self):
        positions = {n.id: (n.kin.x, n.kin.y) for n in self.nodes if n.active}
        self._neighbors = mob.neighbor_map(positions, self.link, self.area)

    def neighbors(self, node_id):
        return self._neighbors.get(node_id, ())

    def connected(self):
        """True when the current neighbor graph is one component."""
        if not self.nodes:
            return True
        seen = {self.nodes[0].id}
        stack = [self.nodes[0].id]
        while stack:
            for m in self.neighbors(stack.pop()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len([n for n in self.nodes if n.active])

    def _mobility_tick(self):
        dt = self.cfg.mobility_tick
        now = self.kernel.now
        for n in self.nodes:
            self.mobility.advance(n.kin, n.streams["mob"], now, dt)
        self.refresh_links()
        self.kernel.schedule_in(dt, self._mobility_tick, kind="mobility-tick")

    # ---- radio ----------------------------------------------------------

    def broadcast(self, node, kind, msg, sec_valid=True, adversary_origin=False):
        self._enqueue(node, pk.Frame(kind=kind, msg=msg, sender=node.id,
                                     receiver=None,
                                     sec_mode=self.cfg.security_mode,
                                     sec_valid=sec_valid,
                                     adversary_origin=adversary_origin))

    def unicast(self, node, receiver, kind, msg, sec_valid=True, adversary_origin=False):
        self._enqueue(node, pk.Frame(kind=kind, msg=msg, sender=node.id,
                                     receiver=receiver,
                                     sec_mode=self.cfg.security_mode,
                                     sec_valid=sec_valid,
                                     adversary_origin=adversary_origin))

    def relay(self, node, frame):
        self._enqueue(node, frame)

    def _enqueue(self, node, frame):
        if not node.active:
            return
        node.queue.append(_QueuedTx(frame, self.kernel.now))
        self._pump(node)

    def _schedule_pump(self, node, at):
        if not node.pump_scheduled:
            node.pump_scheduled = True
            self.kernel.schedule(at, node.pump_event, kind="pump", node=node.id)

    def _pump_event(self, node):
        node.pump_scheduled = False
        self._pump(node)

    def _pump(self, node):
        if not node.queue or not node.active:
            return
        now = self.kernel.now
        cfg = self.cfg
        item = node.queue[0]
        if cfg.ideal_channel:
            node.queue.popleft()
            self._transmit(node, item)
            if node.queue:
                self._schedule_pump(node, now)
            return
        if item.not_before > now or node.tx_busy_until > now:
            self._schedule_pump(node, max(item.not_before, node.tx_busy_until))
            return
        if node.air_busy_until > now:
            # medium busy: defer to its end plus a random contention backoff
            backoff = cfg.slot_time * node.streams["mac"].randrange(cfg.cw_min)
            self._schedule_pump(node, node.air_busy_until + backoff)
            return
        self._transmit(node, item)

    def _transmit(self, node, item):
        """Put item's frame on the air. On the contended channel one tx-end
        event settles every receiver; on the ideal channel each receiver gets
        its own tx-end event and a unicast to a non-neighbour is dropped."""
        cfg = self.cfg
        kernel = self.kernel
        now = kernel.now
        frame = item.frame
        msg = frame.msg
        size = msg.wire_size()
        cost_key = (size, frame.sec_mode)
        cost = self._crypto_costs.get(cost_key)
        if cost is None:
            cost = self._crypto_costs[cost_key] = sec.apply_security(
                size, frame.sec_mode, cfg.device)
        delta, snd_delay, rcv_delay = cost
        frame.wire_bytes = size + delta
        airtime = (frame.wire_bytes + cfg.mac_overhead_bytes) * 8.0 / cfg.bandwidth_bps

        if frame.kind == pk.DATA:
            sr = msg.source_route
            if sr is not None:
                self.metrics.count_control(pk.DSR_SR_HEADER, pk.ID_BYTES * len(sr),
                                           now, count_packet=False)
            msg.crypto_delay += snd_delay
        else:
            self.metrics.count_control(frame.kind, frame.wire_bytes, now)

        audible = self._neighbors.get(node.id, ())
        receiver = frame.receiver
        deliver_to = audible if receiver is None else \
            ([receiver] if receiver in audible else [])

        if cfg.ideal_channel:
            end = now + (snd_delay + airtime)
            for v_id in deliver_to:
                kernel.schedule(end, partial(self._schedule_receptions, (v_id,), frame,
                                             rcv_delay),
                                kind="tx-end", node=node.id, detail=frame.kind)
            if receiver is not None and not deliver_to and frame.kind == pk.DATA:
                self.data_dropped(msg, "no-link")
            return

        end = now + (snd_delay + cfg.difs + airtime)
        node.tx_busy_until = end
        node.last_tx_start = now
        nodes = self.nodes
        for v_id in audible:
            v = nodes[v_id]
            busy_until = v.air_busy_until
            if busy_until > now:
                v.last_collision = now
            if busy_until < end:
                v.air_busy_until = end
        started_clear = [v.tx_busy_until <= now and v.last_collision < now
                         for v in map(nodes.__getitem__, deliver_to)]

        kernel.schedule(end, lambda: self._tx_done(node, item, deliver_to,
                                                   started_clear, now, rcv_delay),
                        kind="tx-end", node=node.id, detail=frame.kind)

    def _tx_done(self, node, item, deliver_to, started_clear, t_start, rcv_delay):
        cfg = self.cfg
        now = self.kernel.now
        frame = item.frame
        nodes = self.nodes
        ok_receivers = []
        for v_id, clear in zip(deliver_to, started_clear):
            v = nodes[v_id]
            if (clear and v.active
                    and v.last_collision < t_start and v.last_tx_start < t_start):
                ok_receivers.append(v_id)

        if frame.receiver is not None and not ok_receivers:
            item.attempt += 1
            if item.attempt <= cfg.retry_limit:
                cw = cfg.cw_min << item.attempt
                backoff = cfg.slot_time * node.streams["mac"].randrange(cw)
                item.not_before = now + backoff
                self._schedule_pump(node, item.not_before)
                return
            node.queue.popleft()
            if frame.kind == pk.DATA:
                self.data_dropped(frame.msg, "mac-retry-limit")
            if hasattr(node.driver, "on_link_failure"):
                node.driver.on_link_failure(frame.receiver)
            if node.queue:
                self._schedule_pump(node, now)
            return

        node.queue.popleft()
        self._schedule_receptions(ok_receivers, frame, rcv_delay)
        if node.queue:
            self._schedule_pump(node, now)

    def _schedule_receptions(self, v_ids, frame, rcv_delay):
        """One rx event per active receiver, after processing and crypto."""
        kernel = self.kernel
        nodes = self.nodes
        handler_at = kernel.now + self.cfg.processing_delay + rcv_delay
        for v_id in v_ids:
            v = nodes[v_id]
            if v.active:
                kernel.schedule(handler_at, partial(self._receive, v, frame, rcv_delay),
                                kind="rx", node=v_id, detail=frame.kind)

    def _receive(self, node, frame, rcv_delay):
        if not node.active:
            return
        if self._authenticates and not sec.accept_packet(frame, self.cfg.security_mode):
            self.metrics.rejected_packets += 1
            return
        if frame.kind == pk.DATA:
            frame.msg.crypto_delay += rcv_delay
        node.driver.on_frame(frame, frame.sender)

    # ---- data bookkeeping -------------------------------------------------

    def data_delivered(self, msg):
        self.metrics.record_delivery(msg.flow_id, msg.seq, msg.send_time,
                                     self.kernel.now, msg.hops, msg.crypto_delay)

    def data_dropped(self, msg, reason):
        self.metrics.note_data_dropped(msg.send_time, reason)

    def log_transition(self, node_id, frm, to, trigger):
        self.transitions.append(
            f"{self.kernel.now:.9f}\t{node_id}\t{frm}\t{to}\t{trigger}")
        stable = ("p-phase", "r-phase")
        if frm in stable and to in stable and frm != to:
            if self.kernel.now >= self.cfg.warmup:
                self.metrics.phase_shifts += 1

    # ---- traffic ----------------------------------------------------------

    def _start_traffic(self):
        cfg = self.cfg
        if cfg.traffic_rate <= 0:
            return
        period = 1.0 / cfg.traffic_rate
        if cfg.traffic_pattern == "per-node-churn":
            for node in self.nodes:
                fstream = self.root_stream.fork(f"flow{node.id}")
                start = cfg.traffic_start + fstream.uniform(0.0, period)
                self._new_epoch(node.id, 0, fstream, start)
            return
        tstream = self.root_stream.fork("traffic")
        ids = [n.id for n in self.nodes]
        for f in range(min(cfg.traffic_flows, cfg.n * (cfg.n - 1))):
            src = tstream.choice(ids)
            dst = tstream.choice([i for i in ids if i != src])
            fstream = self.root_stream.fork(f"flow{f}")
            start = cfg.traffic_start + fstream.uniform(0.0, period)
            flow_id = (f, 0)
            self.flows[flow_id] = {"src": src, "dst": dst, "seq": 0}
            self.kernel.schedule(start, lambda fid=flow_id, fs=fstream:
                                 self._send_tick(fid, fs),
                                 kind="traffic-send", node=src)

    def _new_epoch(self, src, epoch, fstream, when):
        """Per-node-churn pattern: re-draw the destination each epoch."""
        others = [n.id for n in self.nodes if n.id != src]
        dst = others[fstream.randrange(len(others))]
        flow_id = (src, epoch)
        self.flows[flow_id] = {"src": src, "dst": dst, "seq": 0}
        self.kernel.schedule(when, lambda: self._send_tick(flow_id, fstream),
                             kind="traffic-send", node=src)
        if self.cfg.rotation_interval > 0:
            self.kernel.schedule(when + self.cfg.rotation_interval,
                                 lambda: self._new_epoch(src, epoch + 1, fstream,
                                                         self.kernel.now),
                                 kind="traffic-rotate", node=src)

    def _send_tick(self, flow_id, fstream):
        flow = self.flows[flow_id]
        cfg = self.cfg
        now = self.kernel.now
        if cfg.rotation_interval > 0 and cfg.traffic_pattern == "per-node-churn":
            src, epoch = flow_id
            epoch_end = cfg.traffic_start + (epoch + 1) * cfg.rotation_interval
            if now >= epoch_end - 1e-9:
                return  # epoch rolled over; the next epoch's tick chain owns traffic
        node = self.nodes[flow["src"]]
        msg = pk.DataMsg(flow_id=flow_id, seq=flow["seq"], src=flow["src"],
                         dst=flow["dst"], payload=cfg.traffic_payload,
                         send_time=now)
        flow["seq"] += 1
        self.metrics.note_data_sent(now)
        if node.active:
            node.driver.send_data(msg)
        else:
            self.data_dropped(msg, "source-inactive")
        self.kernel.schedule_in(1.0 / cfg.traffic_rate,
                                lambda: self._send_tick(flow_id, fstream),
                                kind="traffic-send", node=flow["src"])

    # ---- adversaries -------------------------------------------------------

    def _attach_adversaries(self):
        adv = self.cfg.adversary
        if adv.behavior == sec.ATTACK_NONE:
            return
        for i in adv.nodes:
            self.nodes[i].adversary = adv.behavior

    def _start_adversaries(self):
        adv = self.cfg.adversary
        if adv.behavior == sec.ATTACK_FORGE_CP:
            for i in adv.nodes:
                self.kernel.schedule(self.cfg.warmup * 0.5 + adv.period,
                                     lambda n=i: self._forge_cp(n, adv),
                                     kind="attack", node=i)
        elif adv.behavior == sec.ATTACK_OSCILLATE:
            self.kernel.schedule(adv.period, lambda: self._toggle_group(adv),
                                 kind="attack")

    def _forge_cp(self, node_id, adv):
        node = self.nodes[node_id]
        driver = node.driver
        target = adv.target_phase
        if hasattr(driver, "forge_cp"):
            driver.forge_cp(target)
            self.metrics.adversary_injected += 1
            # alternate the demanded phase to keep disrupting
            adv.target_phase = "p-phase" if target == "r-phase" else "r-phase"
        self.kernel.schedule_in(adv.period, lambda: self._forge_cp(node_id, adv),
                                kind="attack", node=node_id)

    def _toggle_group(self, adv):
        for i in adv.nodes:
            node = self.nodes[i]
            node.active = not node.active
            if node.active:
                node.queue.clear()
                node.tx_busy_until = self.kernel.now
        self.refresh_links()
        self.kernel.schedule_in(adv.period, lambda: self._toggle_group(adv),
                                kind="attack")

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
                                    kind="mobility-tick")
        self._start_traffic()
        self._start_adversaries()

    def run(self):
        self.setup()
        self.kernel.run_until(self.cfg.duration)
        return self.metrics.summarize(self.cfg.protocol, self.cfg.security_mode,
                                      self.cfg.n, self.cfg.seed)
