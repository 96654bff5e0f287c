import pytest

from conftest import chain_positions, force_r_phase, make_world
from emanetsim import packets as pk
from emanetsim.aodv import PURGE_SLACK, Discovery, net_traversal_time
from emanetsim.cml import (O_TOWARD_P, O_TOWARD_R, P_PHASE, R_PHASE, CmlNode,
                           confirmed_shift, derive_nht)
from emanetsim.config import ScenarioConfig
from emanetsim.network import World


def cml_world(positions=None, **kw):
    kw.setdefault("protocol", "cml")
    world = make_world(positions, **kw)
    world.setup()
    return world


def drv(world, i):
    return world.nodes[i].driver


# -- threshold derivation ------------------------------------------------------

def test_derive_nht_values():
    assert derive_nht(10, 1.0) == 4   # ceil(sqrt(10))
    assert derive_nht(1, 1.0) == 1
    assert derive_nht(10, 0.4) == 5   # ceil(sqrt(25))
    with pytest.raises(ValueError):
        derive_nht(0, 1.0)
    with pytest.raises(ValueError):
        derive_nht(10, 0.0)


# -- p-phase adaptive check ------------------------------------------------------

def test_check_p_stays_at_threshold():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    d.olsr.reachable_count = lambda: 10  # nst exactly: "exceeds" is strict
    d.adaptive_check_p()
    assert d.phase == P_PHASE


def test_check_p_enters_o_phase_above_threshold():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    d.olsr.reachable_count = lambda: 11
    d.adaptive_check_p()
    assert d.phase == O_TOWARD_R


def test_check_p_blocked_by_oscillation_timer():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    d.olsr.reachable_count = lambda: 11
    d._arm_timer()
    d.adaptive_check_p()
    assert d.phase == P_PHASE


# -- o-phase toward r -------------------------------------------------------------

def enter_o_toward_r(d, counts):
    d.olsr.reachable_count = lambda: 11
    d.adaptive_check_p()
    assert d.phase == O_TOWARD_R
    seq = iter(counts)
    d.olsr.reachable_count = lambda: next(seq)


def test_toward_r_confirms_on_first_exceedance():
    # counts 13, 9 with nst+x = 12: at least one check confirms
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    enter_o_toward_r(d, [13, 9])
    d._on_tc()
    assert d.phase == R_PHASE


def test_toward_r_resumes_when_neither_exceeds():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    enter_o_toward_r(d, [11, 12])  # 12 is not > 12: strict exceedance
    d._on_tc()
    assert d.phase == O_TOWARD_R
    d._on_tc()
    assert d.phase == P_PHASE
    assert d.timer_active()  # resume arms the oscillation timer


def test_toward_r_confirms_on_second_check():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    enter_o_toward_r(d, [12, 13])
    d._on_tc()
    assert d.phase == O_TOWARD_R
    d._on_tc()
    assert d.phase == R_PHASE


def test_toward_r_tc_starvation_resumes_p():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    enter_o_toward_r(d, [])
    world.kernel.run_until(world.kernel.now + 3 * world.cfg.tc_interval + 0.5)
    assert d.phase == P_PHASE


# -- r-phase adaptive check --------------------------------------------------------

def test_check_r_large_estimate_stays():
    world = cml_world(chain_positions(2), k=1.0)
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(4)  # estimate 16 > 10
    assert d.phase == R_PHASE


def test_check_r_small_estimate_enters_o_phase():
    world = cml_world(chain_positions(2), k=1.0)
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(3)  # estimate 9 <= 10
    assert d.phase == O_TOWARD_P


def test_check_r_blocked_by_timer():
    world = cml_world(chain_positions(2), k=1.0)
    force_r_phase(world)
    d = drv(world, 0)
    d._arm_timer()
    d._on_rrep(3)
    assert d.phase == R_PHASE


# -- toward-p probing ----------------------------------------------------------------

def run_probe_cycle(world, d):
    window = 4.0 * net_traversal_time(world.cfg)
    world.kernel.run_until(world.kernel.now + 2 * window + 2.0)


def test_small_network_confirms_toward_p():
    # chain of 5: diameter 4 <= nht(=4 at defaults), both probes silent
    world = cml_world(chain_positions(5))
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(2)
    assert d.phase == O_TOWARD_P
    run_probe_cycle(world, d)
    assert d.phase == P_PHASE
    assert any(r.trigger == "probe-silent" for r in world.transitions)


def test_large_network_resumes_r():
    # chain of 7: nodes at 5 hops see ttl 0, replies arrive in both windows
    world = cml_world(chain_positions(7))
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(2)
    assert d.phase == O_TOWARD_P
    run_probe_cycle(world, d)
    assert d.phase == R_PHASE
    assert any(r.trigger == "probe-replies" for r in world.transitions)
    assert d.timer_active()


def test_reply_in_one_window_only_confirms():
    world = cml_world(chain_positions(5))
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(2)
    d._probe_heard = True  # pretend window 1 heard a reply; window 2 stays silent
    run_probe_cycle(world, d)
    assert d.phase == P_PHASE


def test_probe_windows_use_effective_threshold():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    # nst - x = 8, k = 0.65 -> ceil(sqrt(12.3)) = 4
    assert d._effective_nht() == 4


# -- hop-count request mechanics ------------------------------------------------------

def test_hcreq_ttl_zero_triggers_reply():
    world = cml_world(chain_positions(3))
    force_r_phase(world)
    d1 = drv(world, 1)
    sent = []
    world.unicast = lambda node, rcv, kind, msg, **kw: sent.append((kind, rcv, msg))
    msg = pk.HcReqMsg(origin=0, probe_id=7, ttl=0, hops=4)
    d1.process_hcreq(pk.Frame(kind=pk.HCREQ, msg=msg, sender=0), 0)
    kinds = [k for k, _, _ in sent]
    assert pk.HCREP in kinds
    rep = next(m for k, _, m in sent if k == pk.HCREP)
    assert rep.responder == 1 and rep.origin == 0 and rep.probe_id == 7


def test_hcreq_positive_ttl_relays_and_echoes():
    world = cml_world(chain_positions(3))
    force_r_phase(world)
    d1 = drv(world, 1)
    relayed = []
    world.relay = lambda node, frame: relayed.append(frame.msg)
    msg = pk.HcReqMsg(origin=0, probe_id=7, ttl=3)
    d1.process_hcreq(pk.Frame(kind=pk.HCREQ, msg=msg, sender=0), 0)
    world.kernel.run_until(world.kernel.now + 1.0)
    relays = [m for m in relayed if not m.is_echo]
    assert len(relays) == 1
    assert relays[0].ttl == 2
    echoes = [m for m in relayed if m.is_echo]
    assert len(echoes) == 1
    assert echoes[0].echo_parent == (0, 7)
    assert echoes[0].ttl == d1._effective_nht()


def test_hcreq_duplicate_ignored():
    world = cml_world(chain_positions(3))
    force_r_phase(world)
    d1 = drv(world, 1)
    relayed = []
    world.relay = lambda node, frame: relayed.append(frame.msg)
    msg = pk.HcReqMsg(origin=0, probe_id=7, ttl=3)
    d1.process_hcreq(pk.Frame(kind=pk.HCREQ, msg=msg, sender=0), 0)
    d1.process_hcreq(pk.Frame(kind=pk.HCREQ, msg=msg, sender=2), 2)
    world.kernel.run_until(world.kernel.now + 1.0)
    assert len([m for m in relayed if not m.is_echo]) == 1
    assert len([m for m in relayed if m.is_echo]) == 1


def test_echoes_do_not_spawn_echoes():
    world = cml_world(chain_positions(7))
    force_r_phase(world)
    probes = []
    orig_broadcast, orig_relay = world.broadcast, world.relay

    def spy_broadcast(node, kind, msg, **kw):
        if kind == pk.HCREQ:
            probes.append((node.id, msg))
        orig_broadcast(node, kind, msg, **kw)

    def spy_relay(node, frame):
        if frame.kind == pk.HCREQ:
            probes.append((node.id, frame.msg))
        orig_relay(node, frame)

    world.broadcast = spy_broadcast
    world.relay = spy_relay
    d = drv(world, 0)
    d._on_rrep(2)
    run_probe_cycle(world, d)
    primary_ids = {(0, m.probe_id) for n, m in probes if not m.is_echo and n == 0}
    echoes = [m for _, m in probes if m.is_echo]
    assert echoes
    for m in echoes:
        assert m.echo_parent in primary_ids  # every echo's parent is a primary probe


def test_echo_reply_forwarded_to_parent_origin():
    world = cml_world(chain_positions(7))
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(2)
    run_probe_cycle(world, d)
    # chain of 7 has diameter 6 > nht: replies (possibly via echoes) were heard
    assert d.phase == R_PHASE


def test_late_reply_has_no_effect():
    world = cml_world(chain_positions(5))
    force_r_phase(world)
    d = drv(world, 0)
    d._on_rrep(2)
    pid = d._probe_id
    run_probe_cycle(world, d)
    assert d.phase == P_PHASE
    # a reply arriving after the windows closed changes nothing
    d.process_hcrep(pk.Frame(kind=pk.HCREP,
                             msg=pk.HcRepMsg(responder=4, origin=0, probe_id=pid),
                             sender=1))
    assert d.phase == P_PHASE


def watch_purges(monkeypatch, watched):
    """Wrap each (cls, method, attr) of watched so that after every call the
    ExpiringTable self.<attr> holds at most twice the most entries it ever
    held live, plus the purge slack. Returns the set of attrs seen to shrink
    within a call."""
    peak, purged = {}, set()

    def watch(cls, method, attr):
        orig = getattr(cls, method)

        def wrapped(self, *args):
            before = len(getattr(self, attr))
            result = orig(self, *args)
            table, now = getattr(self, attr), self.world.kernel.now
            live = sum(1 for e in table.values() if e[1] > now)
            key = (attr, id(self))
            peak[key] = max(peak.get(key, 0), live)
            assert len(table) <= 2 * peak[key] + PURGE_SLACK
            if len(table) < before:
                purged.add(attr)
            return result
        monkeypatch.setattr(cls, method, wrapped)

    for args in watched:
        watch(*args)
    return purged


def test_duplicate_tables_stay_bounded_over_long_run(monkeypatch):
    # The expiring duplicate tables (RREQ ids and HCREQ probes) stay bounded.
    # A 5 s seen_lifetime makes the 300 s run sixty lifetimes long: unpurged,
    # expired entries pile up past the bound.
    purged = watch_purges(monkeypatch, [
        (Discovery, "first_copy", "seen"),
        (CmlNode, "_mark_hcreq", "_hcreq_seen")])
    cfg = ScenarioConfig(protocol="cml", n=20, seed=1, duration=300.0,
                         warmup=0.0, seen_lifetime=5.0).validate()
    World(cfg).run()
    assert purged == {"seen", "_hcreq_seen"}


def test_echo_and_reply_tables_stay_bounded_over_long_run(monkeypatch):
    # The echo table (filled in process_hcreq, emptied by replies) and the
    # forwarded-reply counts (filled in process_hcrep) stay bounded too. A
    # 1 s oscillation timer makes nodes probe often enough for both tables
    # to outgrow the purge slack within the run.
    purged = watch_purges(monkeypatch, [
        (CmlNode, "process_hcreq", "_echoes"),
        (CmlNode, "process_hcrep", "_hcrep_forwarded")])
    cfg = ScenarioConfig(protocol="cml", n=20, seed=1, duration=300.0,
                         warmup=0.0, seen_lifetime=5.0, t_osc=1.0).validate()
    World(cfg).run()
    assert purged == {"_echoes", "_hcrep_forwarded"}


# -- change-phase flooding --------------------------------------------------------------

def test_cp_flood_converges_network():
    world = cml_world(chain_positions(5))
    d0 = drv(world, 0)
    d0._shift(R_PHASE, "test")
    world.kernel.run_until(world.kernel.now + 2.0)
    assert all(drv(world, i).phase == R_PHASE for i in range(5))


def test_cp_same_phase_no_action_but_refloods():
    world = cml_world(chain_positions(3))
    d1 = drv(world, 1)
    relayed = []
    world.relay = lambda node, frame: relayed.append(frame)
    msg = pk.CpMsg(origin=0, target_phase=P_PHASE, sequence=1)
    d1.process_cp(pk.Frame(kind=pk.CP, msg=msg, sender=0))
    world.kernel.run_until(world.kernel.now + 1.0)
    assert d1.phase == P_PHASE
    assert len(relayed) == 1


def test_cp_duplicate_suppressed():
    world = cml_world(chain_positions(3))
    d1 = drv(world, 1)
    relayed = []
    world.relay = lambda node, frame: relayed.append(frame)
    msg = pk.CpMsg(origin=0, target_phase=R_PHASE, sequence=1)
    d1.process_cp(pk.Frame(kind=pk.CP, msg=msg, sender=0))
    d1.process_cp(pk.Frame(kind=pk.CP, msg=msg, sender=2))
    world.kernel.run_until(world.kernel.now + 1.0)
    assert len(relayed) == 1


def test_cp_flood_transmissions_bounded_by_n():
    world = cml_world(chain_positions(6))
    d0 = drv(world, 0)
    d0._shift(R_PHASE, "test")
    world.kernel.run_until(world.kernel.now + 3.0)
    assert world.metrics.control[pk.CP].count <= 6


def test_cp_shift_blocked_by_active_timer():
    world = cml_world(chain_positions(3))
    d1 = drv(world, 1)
    d1._arm_timer()
    msg = pk.CpMsg(origin=0, target_phase=R_PHASE, sequence=1)
    d1.process_cp(pk.Frame(kind=pk.CP, msg=msg, sender=0))
    assert d1.phase == P_PHASE


def test_confirmed_shifts_rate_limited():
    world = cml_world(chain_positions(2))
    d = drv(world, 0)
    d.olsr.reachable_count = lambda: 13
    d.adaptive_check_p()
    d._on_tc()
    assert d.phase == R_PHASE
    stable = [r for r in world.transitions if confirmed_shift(r)]
    assert [(r.frm, r.to) for r in stable] == [(P_PHASE, R_PHASE)]
    # immediately try the reverse direction: timer blocks o-phase entry
    d._on_rrep(1)
    assert d.phase == R_PHASE


# -- engine selection ----------------------------------------------------------------------

def test_data_routed_by_olsr_in_p_phase():
    world = cml_world(chain_positions(3))
    world.kernel.run_until(20.0)
    msg = pk.DataMsg(flow_id=(1, 0), seq=0, dst=2, payload=64,
                     send_time=world.kernel.now)
    drv(world, 0).send_data(msg)
    world.kernel.run_until(world.kernel.now + 2.0)
    assert len(world.metrics.records) == 1
    assert pk.RREQ not in world.metrics.control


def test_o_phase_keeps_stable_engine_forwarding():
    world = cml_world(chain_positions(3))
    world.kernel.run_until(20.0)
    d0 = drv(world, 0)
    d0.phase = O_TOWARD_R  # testing a departure from p: still proactive routing
    msg = pk.DataMsg(flow_id=(1, 0), seq=0, dst=2, payload=64,
                     send_time=world.kernel.now)
    d0.send_data(msg)
    world.kernel.run_until(world.kernel.now + 2.0)
    assert len(world.metrics.records) == 1
    assert pk.RREQ not in world.metrics.control


def test_r_phase_without_route_triggers_discovery():
    world = cml_world(chain_positions(3))
    force_r_phase(world)
    msg = pk.DataMsg(flow_id=(1, 0), seq=0, dst=2, payload=64,
                     send_time=world.kernel.now)
    drv(world, 0).send_data(msg)
    world.kernel.run_until(world.kernel.now + 3.0)
    assert world.metrics.control[pk.RREQ].count >= 1
    assert len(world.metrics.records) == 1


def test_shift_cold_starts_engines():
    world = cml_world(chain_positions(3))
    world.kernel.run_until(20.0)
    d0 = drv(world, 0)
    assert d0.olsr.links  # warmed up
    d0._shift(R_PHASE, "test")
    assert not d0.olsr.enabled   # RREQ/RREP go to the AODV engine
    assert not d0.olsr.links     # cold start forgets proactive state
    assert not d0.aodv.routes


def test_zero_cml_packets_at_5_nodes():
    world = cml_world(n=5, seed=2, traffic_rate=1.0, rotation_interval=5.0,
                      duration=60.0)
    world.kernel.run_until(60.0)
    for kind in (pk.CP, pk.HCREQ, pk.HCREP):
        assert kind not in world.metrics.control
    assert all(drv(world, i).phase == P_PHASE for i in range(5))
