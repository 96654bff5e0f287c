"""Analytic IPsec overlay: AH/ESP per-packet time and space costs, a boolean
authentication gate, and the adversary behaviors used in attack scenarios.

Crypto is modeled, not computed: packets carry a validity flag set at
origination and cleared by tampering, and every secured hop pays closed-form
HMAC-MD5 / AES time costs derived from a device's instruction rate.
"""

import math

MODE_NONE = "none"
MODE_AH = "ah-only"
MODE_ESP = "esp-only"
MODE_HYBRID = "hybrid"
SECURITY_MODES = (MODE_NONE, MODE_AH, MODE_ESP, MODE_HYBRID)
AH_MODES = (MODE_AH, MODE_HYBRID)  # the modes with AH, and so with the gate

AH_SPACE_BYTES = 24
ESP_SPACE_BYTES = 10

# Per-block HMAC-MD5 operation counts and AES per-packet cycle counts for a
# 128-bit key.
HMAC_MD5_INIT_OPS = 32
HMAC_MD5_PER_BLOCK_OPS = 744
HMAC_MD5_EXTRA_OPS = 2
AES128_ENC_CYCLES = 6168
AES128_DEC_CYCLES = 10992

MD5_BLOCK_BITS = 512


def hmac_blocks(total_bytes):
    """Number of 512-bit blocks covered by the HMAC over a packet."""
    return max(1, math.ceil(total_bytes * 8 / MD5_BLOCK_BITS))


def hmac_time(n_k, c_p):
    """Seconds to HMAC-MD5 n_k 512-bit blocks on a device of c_p
    instructions per second, evaluated literally as (32 + 2 + 744*n_k) / c_p."""
    if n_k < 1:
        raise ValueError("block count must be >= 1")
    return (HMAC_MD5_INIT_OPS + HMAC_MD5_EXTRA_OPS + HMAC_MD5_PER_BLOCK_OPS * n_k) / c_p


def aes_times(c_p):
    """(encrypt, decrypt) seconds per packet for 128-bit AES at c_p
    instructions per second."""
    return AES128_ENC_CYCLES / c_p, AES128_DEC_CYCLES / c_p


def space_overhead(mode):
    """Added header bytes per packet for each IPsec transport-mode setup."""
    if mode == MODE_NONE:
        return 0
    if mode == MODE_AH:
        return AH_SPACE_BYTES
    if mode == MODE_ESP:
        return ESP_SPACE_BYTES
    if mode == MODE_HYBRID:
        return AH_SPACE_BYTES + ESP_SPACE_BYTES
    raise ValueError(f"unknown security mode {mode!r}")


def apply_security(payload_bytes, mode, c_p):
    """Per-hop cost triple (size_delta, sender_delay, receiver_delay) on a
    device of c_p instructions per second.

    The HMAC covers the full packet after the security headers are added;
    costs are paid at every hop because integrity is verified hop by hop
    before forwarding.
    """
    delta = space_overhead(mode)
    if mode == MODE_NONE:
        return 0, 0.0, 0.0
    sender = 0.0
    receiver = 0.0
    if mode in (MODE_ESP, MODE_HYBRID):
        t_enc, t_dec = aes_times(c_p)
        sender += t_enc
        receiver += t_dec
    if mode in AH_MODES:
        auth = hmac_time(hmac_blocks(payload_bytes + delta), c_p)
        sender += auth
        receiver += auth
    return delta, sender, receiver


def authenticates(mode):
    """True when the mode carries an authentication gate (AH present)."""
    return mode in AH_MODES


def accept_packet(frame, mode):
    """Authentication gate: under AH, forged or tampered packets are rejected."""
    if mode not in AH_MODES:
        return True
    return frame.sec_valid and not frame.adversary_origin


# Adversary behaviors, acted out by the nodes config.adversary_nodes lists:
# forge-cp     : flood unauthenticated change-phase packets every period,
#                alternating the demanded phase.
# oscillate    : the group joins and departs the network every period.
# tamper-hcreq : rewrite the ttl of relayed hop-count probes to zero,
#                which clears their integrity validity.
# drop-cp      : silently discard change-phase packets in transit.
ATTACK_NONE = "none"
ATTACK_FORGE_CP = "forge-cp"
ATTACK_OSCILLATE = "oscillate"
ATTACK_TAMPER_HCREQ = "tamper-hcreq"
ATTACK_DROP_CP = "drop-cp"
ATTACKS = (ATTACK_NONE, ATTACK_FORGE_CP, ATTACK_OSCILLATE,
           ATTACK_TAMPER_HCREQ, ATTACK_DROP_CP)
