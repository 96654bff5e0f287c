"""The CML hybrid adaptive layer: a per-node phase machine over the OLSR and
AODV engines.

A node is proactive (p-phase, the default) or reactive (r-phase); the
oscillation phase (o-phase) confirms a suspected size change before a shift,
while the current stable phase keeps routing data. Toward-r confirmation
recounts reachable nodes on the next two TC receipts against nst+x; toward-p
confirmation floods two hop-count probes and listens 4x the network traversal
time each. Probe relays originate one depth-one echo probe apiece, which makes
the silent/answered outcome reflect the whole graph's diameter rather than the
prober's own eccentricity. Confirmed shifts flood a change-phase packet and
arm the oscillation timer; while the timer runs no new o-phase may start.
"""

import math

from . import packets as pk
from . import security as sec
from .aodv import PURGE_SLACK, AodvNode, estimate_size_from_hops, next_purge
from .olsr import OlsrNode

P_PHASE = "p-phase"
R_PHASE = "r-phase"
O_TOWARD_R = "o-toward-r"
O_TOWARD_P = "o-toward-p"
STABLE = (P_PHASE, R_PHASE)


def confirmed_shift(record):
    """True when a transition record moves a node between the stable phases."""
    return record.frm in STABLE and record.to in STABLE and record.frm != record.to


class _ExpiringTable(dict):
    """key -> (value, expiry time). Readers take an entry whose expiry has
    passed as absent, and the table is rebuilt from its live entries by the
    rule of Discovery.seen (aodv.next_purge)."""

    cap = PURGE_SLACK

    def put(self, key, value, expiry, now):
        self[key] = (value, expiry)
        if len(self) > self.cap:
            live = [(k, e) for k, e in self.items() if e[1] > now]
            self.clear()
            self.update(live)
            self.cap = next_purge(self)


def derive_nht(nst_effective, k):
    """Hop threshold matching a node-count threshold under N ~ k * h^2."""
    if nst_effective < 1:
        raise ValueError("effective size threshold must be >= 1")
    if k <= 0:
        raise ValueError("proportionality constant must be positive")
    return math.ceil(math.sqrt(nst_effective / k))


class CmlNode:
    """One node's CML driver: phase machine plus both routing engines."""

    def __init__(self, world, node):
        self.world = world
        self.node = node
        self.cfg = world.cfg
        self.olsr = OlsrNode(world, node)
        self.aodv = AodvNode(world, node)
        self.olsr.on_tc_processed = self._on_tc
        self.aodv.on_rrep_at_source = self._on_rrep
        self.phase = P_PHASE
        self.osc_until = -1.0
        self.cp_seq = 0
        self._cp_seen = {}
        # (origin, probe_id) -> (highest ttl processed, expiry time)
        self._hcreq_seen = _ExpiringTable()
        self._probe_counter = 0
        # echo probe id -> ((parent origin, parent probe id), expiry time)
        self._echoes = _ExpiringTable()
        # (origin, probe_id) -> (replies already forwarded on, expiry time); a
        # small cap keeps redundancy against reply loss without relaying
        # every duplicate
        self._hcrep_forwarded = _ExpiringTable()
        # hearing someone else's probe defers own o-phase entry: a concurrent
        # prober will flood a change-phase packet if the network is small
        self._foreign_probe_until = -1.0
        # o-phase bookkeeping
        self._tc_checks_left = 0
        self._o_deadline = None
        # the open probe: {"id", "window", "heard": it got a reply,
        # "silent": an earlier window got none}
        self._probe = None

    # -- lifecycle ----------------------------------------------------------

    def boot(self):
        self.olsr.boot()
        self.aodv.boot()

    @property
    def stable_phase(self):
        return P_PHASE if self.phase in (P_PHASE, O_TOWARD_R) else R_PHASE

    def timer_active(self):
        return self.world.kernel.now < self.osc_until

    def _arm_timer(self):
        self.osc_until = self.world.kernel.now + self.cfg.t_osc

    # -- adaptive checks ------------------------------------------------------

    def _on_tc(self):
        if self.phase == P_PHASE:
            self.adaptive_check_p()
        elif self.phase == O_TOWARD_R:
            self._o_toward_r_check()

    def adaptive_check_p(self):
        count = self.olsr.reachable_count()
        if count > self.cfg.nst and not self.timer_active():
            self.phase = O_TOWARD_R
            self._tc_checks_left = 2
            self._o_deadline = self.world.kernel.schedule_in(
                3.0 * self.cfg.tc_interval, self._o_r_timeout,
                "timer", self.node.id, "o-deadline")
            self.world.log_transition(self.node.id, P_PHASE, O_TOWARD_R,
                                      f"count={count}")

    def _o_toward_r_check(self):
        count = self.olsr.reachable_count()
        self._tc_checks_left -= 1
        if count > self.cfg.nst + self.cfg.x:
            self._shift(R_PHASE, f"tc-count={count}")
        elif self._tc_checks_left <= 0:
            self._resume(P_PHASE, f"tc-count-low={count}")

    def _o_r_timeout(self):
        if self.phase == O_TOWARD_R:
            self._resume(P_PHASE, "tc-starvation")

    def _on_rrep(self, hop_count):
        if self.phase != R_PHASE or self.timer_active():
            return
        if self.world.kernel.now < self._foreign_probe_until:
            return
        estimate = estimate_size_from_hops(hop_count, self.cfg.k)
        if estimate <= self.cfg.nst:
            self.phase = O_TOWARD_P
            self.world.log_transition(self.node.id, R_PHASE, O_TOWARD_P,
                                      f"estimate={estimate}")
            self._probe = {"silent": False}
            self._start_probe(last=False)

    # -- toward-p probing -------------------------------------------------------

    def _effective_nht(self):
        return derive_nht(max(1, self.cfg.nst - self.cfg.x), self.cfg.k)

    def _start_probe(self, last):
        self._probe_counter += 1
        pid = self._probe_counter
        st = self._probe
        st["id"], st["heard"] = pid, False
        msg = pk.HcReqMsg(origin=self.node.id, probe_id=pid,
                          ttl=self._effective_nht())
        self._mark_hcreq((self.node.id, pid), msg.ttl, self.world.kernel.now)
        self.world.broadcast(self.node, pk.HCREQ, msg)
        window = 4.0 * self.aodv.net_traversal_time()
        st["window"] = self.world.kernel.schedule_in(
            window, lambda: self._probe_window_closed(last),
            "timer", self.node.id, "hcreq-window")

    def _probe_window_closed(self, last):
        st = self._probe
        if st is None or self.phase != O_TOWARD_P:
            return
        st["silent"] = st["silent"] or not st["heard"]
        if not last:
            self._start_probe(last=True)
        elif st["silent"]:
            self._shift(P_PHASE, "probe-silent")
        else:
            self._resume(R_PHASE, "probe-replies")

    # -- transitions ----------------------------------------------------------------

    def _cancel_o_state(self):
        if self._o_deadline is not None:
            self.world.kernel.cancel(self._o_deadline)
            self._o_deadline = None
        if self._probe is not None:
            self.world.kernel.cancel(self._probe["window"])
            self._probe = None

    def _resume(self, stable, trigger):
        frm = self.phase
        self._cancel_o_state()
        self.phase = stable
        self._arm_timer()
        self.world.log_transition(self.node.id, frm, stable, trigger)

    def _shift(self, target, trigger, broadcast=True):
        frm_stable = self.stable_phase
        self._cancel_o_state()
        self.phase = target
        self._arm_timer()
        self.olsr.enabled = target == P_PHASE
        self.olsr.reset()
        self.aodv.reset()
        self.world.log_transition(self.node.id, frm_stable, target, trigger)
        self.world.metrics.note_phase_shift(self.world.kernel.now)
        if broadcast:
            self._flood_cp(target)

    def _flood_cp(self, target, adversary_origin=False):
        self.cp_seq += 1
        msg = pk.CpMsg(origin=self.node.id, target_phase=target,
                       sequence=self.cp_seq)
        self._cp_seen[self.node.id] = self.cp_seq
        self.world.broadcast(self.node, pk.CP, msg, adversary_origin=adversary_origin)

    # -- adversary entry point ---------------------------------------------------

    def forge_cp(self, target_phase):
        """Flood a forged change-phase packet demanding target_phase; returns
        the phase that the next forgery demands."""
        self._flood_cp(target_phase, adversary_origin=True)
        return R_PHASE if target_phase == P_PHASE else P_PHASE

    # -- frame dispatch -------------------------------------------------------------

    def on_frame(self, frame, prev_hop):
        # RREQ and RREP, the most frequent kinds, are tested first
        kind = frame.kind
        if kind == pk.RREQ:
            if not self.olsr.enabled:
                self.aodv.process_rreq(frame, prev_hop)
        elif kind == pk.RREP:
            if not self.olsr.enabled:
                self.aodv.process_rrep(frame, prev_hop)
        elif kind == pk.CP:
            self.process_cp(frame)
        elif kind == pk.HCREQ:
            self.process_hcreq(frame, prev_hop)
        elif kind == pk.HCREP:
            self.process_hcrep(frame)
        elif kind in (pk.HELLO, pk.TC):
            if self.olsr.enabled:
                self.olsr.on_frame(frame, prev_hop)

    def send_data(self, msg):
        engine = self.olsr if self.stable_phase == P_PHASE else self.aodv
        engine.send_data(msg)

    def forward(self, msg):
        engine = self.olsr if self.stable_phase == P_PHASE else self.aodv
        engine.forward(msg)

    def on_link_failure(self, frame):
        if self.stable_phase == R_PHASE:
            self.aodv.on_link_failure(frame)

    # -- CML control packets ----------------------------------------------------------

    def process_cp(self, frame):
        msg = frame.msg
        if self._cp_seen.get(msg.origin, -1) >= msg.sequence:
            return
        self._cp_seen[msg.origin] = msg.sequence
        if self.node.adversary == sec.ATTACK_DROP_CP:
            return  # transit change-phase packets die here
        self.world.relay_after_jitter(self.node, frame.clone_for_relay(self.node.id),
                                      "cp")
        target = msg.target_phase
        if self.stable_phase == target:
            return
        if self.timer_active():
            return
        trigger = f"cp:origin={msg.origin}"
        if frame.adversary_origin:
            trigger += ":adv"
        self._shift(target, trigger, broadcast=False)

    def _mark_hcreq(self, key, ttl, now):
        self._hcreq_seen.put(key, ttl, now + self.cfg.seen_lifetime, now)

    def process_hcreq(self, frame, prev_hop):
        msg = frame.msg
        now = self.world.kernel.now
        key = (msg.origin, msg.probe_id)
        entry = self._hcreq_seen.get(key)
        first = entry is None or entry[1] <= now
        if not first and msg.ttl <= entry[0]:
            return  # same or weaker copy of an already-processed probe
        # relay jitter lets longer paths win the first-copy race; repeating
        # the relay when a strictly higher ttl arrives keeps the probe's
        # effective depth equal to its hop budget
        self._mark_hcreq(key, msg.ttl, now)
        if msg.origin == self.node.id:
            return
        self._foreign_probe_until = now + self.cfg.t_osc
        # the flood itself lays the reverse route its replies ride back on
        self.aodv._install(msg.origin, prev_hop, msg.hops + 1, 0)
        if msg.ttl <= 0:
            reply = pk.HcRepMsg(responder=self.node.id, origin=msg.origin,
                                probe_id=msg.probe_id)
            self._send_hcrep(reply)
            return
        tampering = self.node.adversary == sec.ATTACK_TAMPER_HCREQ
        relay_msg = pk.HcReqMsg(origin=msg.origin, probe_id=msg.probe_id,
                                ttl=0 if tampering else msg.ttl - 1,
                                hops=msg.hops + 1, is_echo=msg.is_echo,
                                echo_parent=msg.echo_parent)
        relay = frame.clone_for_relay(self.node.id, msg=relay_msg)
        if tampering:
            relay.sec_valid = False
        self.world.relay_after_jitter(self.node, relay, "hcreq", self.cfg.hcreq_jitter)
        if first and not msg.is_echo:
            self._probe_counter += 1
            pid = self._probe_counter
            self._echoes.put(pid, key, now + self.cfg.seen_lifetime, now)
            echo = pk.HcReqMsg(origin=self.node.id, probe_id=pid,
                               ttl=self._effective_nht(), is_echo=True,
                               echo_parent=key)
            self._mark_hcreq((self.node.id, pid), echo.ttl, now)
            self.world.relay_after_jitter(
                self.node, pk.Frame(kind=pk.HCREQ, msg=echo, sender=self.node.id),
                "echo-hcreq", self.cfg.hcreq_jitter)

    def _send_hcrep(self, reply):
        route = self.aodv.valid_route(reply.origin)
        if route is None:
            return
        self.world.unicast(self.node, route.next_hop, pk.HCREP, reply)

    def process_hcrep(self, frame):
        msg = frame.msg
        now = self.world.kernel.now
        self._foreign_probe_until = max(self._foreign_probe_until,
                                        now + self.cfg.t_osc)
        if msg.origin != self.node.id:
            fkey = (msg.origin, msg.probe_id)
            entry = self._hcrep_forwarded.get(fkey)
            forwarded = entry[0] if entry is not None and entry[1] > now else 0
            if forwarded >= 3:
                return
            self._hcrep_forwarded.put(fkey, forwarded + 1,
                                      now + self.cfg.seen_lifetime, now)
            self._send_hcrep(msg)
            return
        echo = self._echoes.pop(msg.probe_id, None)
        if echo is not None and echo[1] > now:
            parent_origin, parent_probe = echo[0]
            fwd = pk.HcRepMsg(responder=msg.responder, origin=parent_origin,
                              probe_id=parent_probe)
            self._send_hcrep(fwd)
            return
        st = self._probe
        if st is not None and st["id"] == msg.probe_id:
            st["heard"] = True
