"""Adversary behaviors and the authentication gate, end to end."""

import copy

import pytest

from emanetsim.cml import confirmed_shift
from emanetsim.config import ScenarioConfig, parse_config
from emanetsim.network import World
from emanetsim.runner import run_scenario, static_connected_world


def attack_cfg(behavior, nodes, security="none", n=9, period=40.0, **kw):
    params = dict(protocol="cml", n=n, duration=200.0, warmup=40.0, seed=2,
                  traffic_rate=0.5, security_mode=security,
                  adversary_behavior=behavior, adversary_nodes=nodes,
                  adversary_period=period, adversary_target_phase="r-phase")
    params.update(kw)
    return ScenarioConfig(**params).validate()


def adversary_shifts(world):
    return [r for r in world.transitions if r.trigger.endswith(":adv")]


def test_forged_cp_flips_unprotected_network():
    world = static_connected_world(attack_cfg("forge-cp", (8,)))
    world.run()
    shifts = adversary_shifts(world)
    assert len(shifts) >= 1
    assert any((r.frm, r.to) == ("p-phase", "r-phase") for r in shifts)


def test_forged_cp_rejected_under_hybrid():
    world = static_connected_world(attack_cfg("forge-cp", (8,), security="hybrid"))
    world.run()
    assert adversary_shifts(world) == []
    assert world.metrics.rejected_packets >= 1
    assert world.metrics.adversary_injected >= 1


def test_forged_cp_rejected_under_ah_only():
    world = static_connected_world(attack_cfg("forge-cp", (8,), security="ah-only"))
    world.run()
    assert adversary_shifts(world) == []


def test_esp_only_has_no_authentication_gate():
    world = static_connected_world(attack_cfg("forge-cp", (8,), security="esp-only"))
    world.run()
    assert len(adversary_shifts(world)) >= 1


def test_forge_cp_leaves_the_config_alone(tmp_path):
    # forgeries at 60, 100 and 140 s: an odd count ends on the flipped
    # phase, which the run must not write back into the caller's config
    cfg = attack_cfg("forge-cp", (7,), n=8, duration=150.0, v_min=0.0, v_max=0.0)
    before = copy.deepcopy(cfg)
    _, world = run_scenario(cfg, out_dir=str(tmp_path), run_name="run")
    assert world.metrics.adversary_injected == 3
    assert cfg == before
    manifest = parse_config((tmp_path / "run" / "manifest.ini").read_text())
    assert manifest.adversary_target_phase == "r-phase"


def test_oscillating_group_within_tolerance_never_confirms():
    # 10 stable nodes plus 2 oscillators, x = 2: counts never exceed nst + x
    cfg = attack_cfg("oscillate", (10, 11), n=12, period=20.0, x=2,
                     duration=300.0)
    world = static_connected_world(cfg)
    world.run()
    assert [r for r in world.transitions if confirmed_shift(r)] == []


def test_oscillating_group_beyond_tolerance_confirms():
    cfg = attack_cfg("oscillate", (10, 11, 12), n=13, period=30.0, x=1,
                     duration=300.0)
    world = static_connected_world(cfg)
    world.run()
    stable = [r for r in world.transitions if (r.frm, r.to) == ("p-phase", "r-phase")]
    assert len(stable) >= 1


def test_oscillation_rate_limit_holds_under_attack():
    cfg = attack_cfg("oscillate", (10, 11, 12), n=13, period=25.0, x=0,
                     duration=300.0)
    world = static_connected_world(cfg)
    world.run()
    per_node = {}
    for r in world.transitions:
        if confirmed_shift(r):
            per_node.setdefault(r.node, []).append(r.t)
    for node, times in per_node.items():
        for a, b in zip(times, times[1:]):
            assert b - a >= world.cfg.t_osc - 1e-9, (node, a, b)


def fast_oscillation_world(protocol, period):
    """8 static nodes on the contended channel, half of them switched every
    period: at these periods a node can be switched off and back on while a
    frame of its own is still on the air."""
    cfg = ScenarioConfig(
        protocol=protocol, n=8, duration=20.0, warmup=0.0, seed=1,
        v_min=0.0, v_max=0.0, traffic_rate=4.0,
        adversary_behavior="oscillate", adversary_nodes=(0, 1, 2, 3),
        adversary_period=period).validate()
    return World(cfg)


@pytest.mark.parametrize("protocol", ["aodv", "olsr"])
@pytest.mark.parametrize("period", [0.003, 0.007, 0.011])
def test_switching_faster_than_a_frame_runs_to_the_end(protocol, period):
    # switching a node back on clears its queue; the tx-end of the frame it
    # was sending must not pop another frame, or an empty queue
    world = fast_oscillation_world(protocol, period)
    summary = world.run()
    m = world.metrics
    assert summary.data_packets_delivered + m.data_dropped <= m.data_sent


def test_data_cleared_from_a_queue_counts_as_node_reset():
    world = fast_oscillation_world("aodv", 0.011)
    world.run()
    drops = world.metrics.drops_by_reason
    assert drops["node-reset"] > 0
    assert sum(drops.values()) == world.metrics.data_dropped


def test_tampered_probes_rejected_under_hybrid():
    # adversary rewrites relayed probe ttls to zero; under AH the tampered
    # copies are discarded, so probe outcomes match the clean run exactly
    def probe_decisions(behavior):
        cfg = attack_cfg(behavior, (4,), security="hybrid", n=8, seed=5,
                         duration=260.0)
        world = static_connected_world(cfg)
        world.run()
        return [r[1:] for r in world.transitions
                if r.trigger.startswith("probe-")], world

    clean, w1 = probe_decisions("none")
    tampered, w2 = probe_decisions("tamper-hcreq")
    assert clean == tampered
    assert w2.metrics.rejected_packets >= 0


def test_tampered_probes_disrupt_unprotected_network():
    # chain 0-1-2-3-4 (diameter 4 = hop threshold): a clean probe is silent
    # and the prober correctly concludes the network is small; with the
    # middle node rewriting relayed ttls to zero, node 3 sees ttl=0 and sends
    # a spurious reply, so the prober wrongly stays reactive
    from conftest import chain_positions, make_world

    def probe_outcome(behavior):
        world = make_world(chain_positions(5), protocol="cml",
                           adversary_behavior=behavior, adversary_nodes=(2,))
        world.setup()
        for node in world.nodes:
            d = node.driver
            d.phase = "r-phase"
            d.olsr.enabled = False
            d.osc_until = -1.0
            d._foreign_probe_until = -1.0
        world.kernel.run_until(10.0)
        d0 = world.nodes[0].driver
        d0._on_rrep(2)
        assert d0.phase == "o-toward-p"
        window = 4.0 * d0.aodv.net_traversal_time()
        world.kernel.run_until(world.kernel.now + 2 * window + 2.0)
        return d0.phase

    assert probe_outcome("none") == "p-phase"          # correctly detects small
    assert probe_outcome("tamper-hcreq") == "r-phase"  # fooled by tampering


def test_drop_cp_blocks_propagation_through_cut_vertex():
    # line topology 0-1-2: node 1 drops change-phase packets in transit,
    # so node 2 never hears node 0's confirmed shift
    from conftest import chain_positions, make_world
    world = make_world(chain_positions(3), protocol="cml",
                       adversary_behavior="drop-cp", adversary_nodes=(1,))
    world.setup()
    world.kernel.run_until(20.0)
    world.nodes[0].driver._shift("r-phase", "test")
    world.kernel.run_until(25.0)
    assert world.nodes[0].driver.phase == "r-phase"
    assert world.nodes[2].driver.phase == "p-phase"  # CP never crossed node 1
