"""Packet kinds, wire sizes for load accounting, and the per-hop frame envelope."""

from dataclasses import dataclass, field

# Wire sizes in bytes for routing-load accounting. Header formats are not
# modeled bit-for-bit; each carried node id costs 4 bytes.
BASE_HEADER = 16
ID_BYTES = 4
RREQ_SIZE = 24
RREP_SIZE = 20
CP_SIZE = 16
HCREQ_SIZE = 20
HCREP_SIZE = 16
DATA_HEADER = 28  # IP + UDP equivalent on data packets

DATA = "data"
HELLO = "hello"
TC = "tc"
RREQ = "rreq"
RREP = "rrep"
DSR_RREQ = "dsr-rreq"
DSR_RREP = "dsr-rrep"
DSR_RERR = "dsr-rerr"
CP = "cp"
HCREQ = "hcreq"
HCREP = "hcrep"

# Source-route header bytes on DSR data packets are charged to routing load
# under this pseudo-kind (bytes only, no packet count).
DSR_SR_HEADER = "dsr-sr-header"


def mask(ids):
    """The int bitmask of a collection of node ids: bit i set for node i."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@dataclass
class HelloMsg:
    origin: int
    neighbor_list: tuple
    mpr_flags: frozenset
    neighbor_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.neighbor_mask = mask(self.neighbor_list)

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.neighbor_list)


@dataclass
class TcMsg:
    origin: int
    advertised: tuple
    sequence: int
    advertised_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.advertised_mask = mask(self.advertised)

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.advertised)


@dataclass
class RreqMsg:
    origin: int
    destination: int
    rreq_id: int
    origin_sequence: int
    hop_count: int

    def wire_size(self):
        return RREQ_SIZE


@dataclass
class RrepMsg:
    origin: int       # discovery originator; final recipient of the reply
    destination: int  # node that owns the discovered route
    dest_sequence: int
    hop_count: int

    def wire_size(self):
        return RREP_SIZE


@dataclass
class DsrRreqMsg:
    origin: int
    destination: int
    rreq_id: int
    route_record: tuple

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.route_record)


@dataclass
class DsrRrepMsg:
    origin: int
    destination: int
    route: tuple  # full path origin..destination
    cursor: int   # index of the node currently holding the reply

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.route)


@dataclass
class DsrRerrMsg:
    origin: int
    broken_from: int
    broken_to: int
    path_back: tuple  # traversed prefix, walked in reverse
    cursor: int

    def wire_size(self):
        return BASE_HEADER + 2 * ID_BYTES


@dataclass
class CpMsg:
    origin: int
    target_phase: str
    sequence: int

    def wire_size(self):
        return CP_SIZE


@dataclass
class HcReqMsg:
    origin: int
    probe_id: int
    ttl: int
    hops: int = 0  # hops traveled so far, for reverse-route installation
    is_echo: bool = False
    echo_parent: tuple = None  # (origin, probe_id) of the triggering probe

    def wire_size(self):
        return HCREQ_SIZE


@dataclass
class HcRepMsg:
    responder: int
    origin: int    # node the reply is heading to
    probe_id: int  # probe this reply answers, at the current recipient

    def wire_size(self):
        return HCREP_SIZE


@dataclass
class DataMsg:
    flow_id: tuple
    seq: int
    src: int
    dst: int
    payload: int
    send_time: float
    source_route: tuple = None  # DSR only
    cursor: int = 0
    hops: int = 0
    crypto_delay: float = 0.0

    def wire_size(self):
        size = DATA_HEADER + self.payload
        if self.source_route is not None:
            size += ID_BYTES * len(self.source_route)
        return size


@dataclass
class Frame:
    """One on-air transmission: a message plus hop and integrity metadata."""
    kind: str
    msg: object
    sender: int
    receiver: int = None        # None = broadcast to all current neighbors
    sec_valid: bool = True      # cleared for forged or tampered packets
    adversary_origin: bool = False

    def clone_for_relay(self, sender, msg=None):
        """A broadcast copy of this frame from sender, with msg if given."""
        return Frame(
            kind=self.kind,
            msg=self.msg if msg is None else msg,
            sender=sender,
            sec_valid=self.sec_valid,
            adversary_origin=self.adversary_origin,
        )
