import math

import pytest

from emanetsim import acceptance as ac
from emanetsim import security as sec
from emanetsim.config import ScenarioConfig
from emanetsim.network import World


def profile(mips=450e6):
    return sec.DeviceProfile(mips)


def test_hmac_time_literal_formula():
    # one 512-bit block at 450 MIPS: (32 + 2 + 744) / 450e6 exactly
    assert sec.hmac_time(1, profile()) == 778 / 450e6
    assert sec.hmac_time(2, profile()) == 1522 / 450e6


def test_hmac_time_scales_inverse_with_speed():
    for n_k in (1, 3, 9):
        assert sec.hmac_time(n_k, profile(900e6)) == pytest.approx(
            sec.hmac_time(n_k, profile(450e6)) / 2.0)


def test_hmac_time_rejects_zero_blocks():
    with pytest.raises(ValueError):
        sec.hmac_time(0, profile())


def test_aes_times_match_reported_values():
    t_enc, t_dec = sec.aes_times(profile())
    # 13.7 and 24.4 microseconds per packet at 450 MIPS
    assert t_enc == 6168 / 450e6
    assert t_dec == 10992 / 450e6
    assert abs(t_enc - 13.7e-6) < 0.1e-6
    assert abs(t_dec - 24.4e-6) < 0.1e-6
    assert sec.aes_times(profile(900e6))[0] == pytest.approx(t_enc / 2)


def test_space_overhead_table():
    assert sec.space_overhead("none") == 0
    assert sec.space_overhead("ah-only") == 24
    assert sec.space_overhead("esp-only") == 10
    assert sec.space_overhead("hybrid") == 34
    with pytest.raises(ValueError):
        sec.space_overhead("tunnel")


def test_hmac_blocks_rounding():
    assert sec.hmac_blocks(64) == 1     # exactly 512 bits
    assert sec.hmac_blocks(65) == 2
    assert sec.hmac_blocks(546) == 9    # 512-byte payload + 34 bytes of headers
    assert sec.hmac_blocks(1) == 1


def test_apply_security_none_is_free():
    assert sec.apply_security(512, "none", profile()) == (0, 0.0, 0.0)


def test_apply_security_hybrid_composition():
    delta, snd, rcv = sec.apply_security(512, "hybrid", profile())
    assert delta == 34
    auth = sec.hmac_time(sec.hmac_blocks(546), profile())
    t_enc, t_dec = sec.aes_times(profile())
    assert snd == pytest.approx(t_enc + auth, abs=0)
    assert rcv == pytest.approx(t_dec + auth, abs=0)


def test_apply_security_ah_only_no_cipher_terms():
    delta, snd, rcv = sec.apply_security(64, "ah-only", profile())
    assert delta == 24
    auth = sec.hmac_time(sec.hmac_blocks(88), profile())
    assert snd == auth and rcv == auth


def test_apply_security_esp_only():
    delta, snd, rcv = sec.apply_security(256, "esp-only", profile())
    t_enc, t_dec = sec.aes_times(profile())
    assert (delta, snd, rcv) == (10, t_enc, t_dec)


class _FakeFrame:
    def __init__(self, valid=True, adv=False):
        self.sec_valid = valid
        self.adversary_origin = adv


def test_gate_rejects_forged_and_tampered_under_ah():
    for mode in ("ah-only", "hybrid"):
        assert sec.accept_packet(_FakeFrame(), mode)
        assert not sec.accept_packet(_FakeFrame(adv=True), mode)
        assert not sec.accept_packet(_FakeFrame(valid=False), mode)


def test_gate_open_without_authentication():
    for mode in ("none", "esp-only"):
        assert sec.accept_packet(_FakeFrame(adv=True), mode)
        assert sec.accept_packet(_FakeFrame(valid=False), mode)


@pytest.mark.parametrize("mode", sec.SECURITY_MODES)
def test_world_crypto_cost_cache_matches_apply_security(mode):
    cfg = ScenarioConfig(protocol="cml", n=15, duration=30.0, warmup=5.0, seed=2,
                         security_mode=mode).validate()
    world = World(cfg)
    sizes = set()
    transmit = world._transmit

    def recording_transmit(node, item):
        sizes.add(item.frame.msg.wire_size())
        transmit(node, item)

    world._transmit = recording_transmit
    world.run()
    assert len(sizes) > 3
    assert set(world._crypto_costs) == sizes
    for size, cost in world._crypto_costs.items():
        assert cost == sec.apply_security(size, mode, cfg.device)


def test_device_profile_rejects_nonpositive():
    with pytest.raises(ValueError):
        sec.DeviceProfile(0.0)


def test_ah_gap_identity_at_default_payload():
    # 540 B data packets: 564 B under AH and 574 B under AH+ESP are both
    # 9 HMAC blocks, so AH costs the same on top of ESP as on its own
    same_set, rows = ac.ah_gap_residuals(ac.additivity_config(), ac.additivity_runs())
    assert same_set and rows
    for hops, residual, expected in rows:
        assert hops >= 1
        assert expected == 0.0
        assert abs(residual) <= 1e-12


def test_ah_gap_residual_across_block_boundary():
    # 548 B data packets: 572 B under AH is 9 blocks, 582 B under AH+ESP is
    # 10, so each hop pays one extra HMAC block at the sender and receiver
    cfg = ac.additivity_config(traffic_payload=520)
    same_set, rows = ac.ah_gap_residuals(cfg, ac.mode_records(cfg))
    assert same_set and rows
    for hops, residual, expected in rows:
        extra = 2 * hops * sec.HMAC_MD5_PER_BLOCK_OPS / cfg.c_p
        assert residual > 1e-6
        assert abs(residual - extra) <= 1e-12
        assert abs(expected - extra) <= 1e-12
