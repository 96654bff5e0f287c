"""Packet kinds, wire sizes for load accounting, and the per-hop frame envelope."""

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


# A message or frame is built for each transmission, so each is a __slots__
# class with an explicit __init__, the cheapest record here to build and
# read. They compare by identity.

class HelloMsg:
    __slots__ = ("origin", "neighbor_list", "mpr_flags", "neighbor_mask")

    def __init__(self, origin, neighbor_list, mpr_flags):
        self.origin = origin
        self.neighbor_list = neighbor_list  # tuple
        self.mpr_flags = mpr_flags          # frozenset
        self.neighbor_mask = mask(neighbor_list)

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.neighbor_list)


class TcMsg:
    __slots__ = ("origin", "advertised", "sequence", "advertised_mask")

    def __init__(self, origin, advertised, sequence):
        self.origin = origin
        self.advertised = advertised  # tuple
        self.sequence = sequence
        self.advertised_mask = mask(advertised)

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.advertised)


class RreqMsg:
    __slots__ = ("origin", "destination", "rreq_id", "origin_sequence", "hop_count")

    def __init__(self, origin, destination, rreq_id, origin_sequence, hop_count):
        self.origin = origin
        self.destination = destination
        self.rreq_id = rreq_id
        self.origin_sequence = origin_sequence
        self.hop_count = hop_count

    def wire_size(self):
        return RREQ_SIZE


class RrepMsg:
    __slots__ = ("origin", "destination", "dest_sequence", "hop_count")

    def __init__(self, origin, destination, dest_sequence, hop_count):
        self.origin = origin            # discovery originator; final recipient of the reply
        self.destination = destination  # node that owns the discovered route
        self.dest_sequence = dest_sequence
        self.hop_count = hop_count

    def wire_size(self):
        return RREP_SIZE


class DsrRreqMsg:
    __slots__ = ("origin", "destination", "rreq_id", "route_record")

    def __init__(self, origin, destination, rreq_id, route_record):
        self.origin = origin
        self.destination = destination
        self.rreq_id = rreq_id
        self.route_record = route_record  # tuple

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.route_record)


class DsrRrepMsg:
    __slots__ = ("origin", "destination", "route", "cursor")

    def __init__(self, origin, destination, route, cursor):
        self.origin = origin
        self.destination = destination
        self.route = route    # full path origin..destination
        self.cursor = cursor  # index of the node currently holding the reply

    def wire_size(self):
        return BASE_HEADER + ID_BYTES * len(self.route)


class DsrRerrMsg:
    __slots__ = ("origin", "broken_from", "broken_to", "path_back", "cursor")

    def __init__(self, origin, broken_from, broken_to, path_back, cursor):
        self.origin = origin
        self.broken_from = broken_from
        self.broken_to = broken_to
        self.path_back = path_back  # traversed prefix, walked in reverse
        self.cursor = cursor

    def wire_size(self):
        return BASE_HEADER + 2 * ID_BYTES


class CpMsg:
    __slots__ = ("origin", "target_phase", "sequence")

    def __init__(self, origin, target_phase, sequence):
        self.origin = origin
        self.target_phase = target_phase
        self.sequence = sequence

    def wire_size(self):
        return CP_SIZE


class HcReqMsg:
    __slots__ = ("origin", "probe_id", "ttl", "hops", "is_echo", "echo_parent")

    def __init__(self, origin, probe_id, ttl, hops=0, is_echo=False, echo_parent=None):
        self.origin = origin
        self.probe_id = probe_id
        self.ttl = ttl
        self.hops = hops  # hops traveled so far, for reverse-route installation
        self.is_echo = is_echo
        self.echo_parent = echo_parent  # (origin, probe_id) of the triggering probe

    def wire_size(self):
        return HCREQ_SIZE


class HcRepMsg:
    __slots__ = ("responder", "origin", "probe_id")

    def __init__(self, responder, origin, probe_id):
        self.responder = responder
        self.origin = origin      # node the reply is heading to
        self.probe_id = probe_id  # probe this reply answers, at the current recipient

    def wire_size(self):
        return HCREP_SIZE


class DataMsg:
    __slots__ = ("flow_id", "seq", "src", "dst", "payload", "send_time",
                 "source_route", "cursor", "hops", "crypto_delay")

    def __init__(self, flow_id, seq, src, dst, payload, send_time,
                 source_route=None, cursor=0, hops=0, crypto_delay=0.0):
        self.flow_id = flow_id  # tuple
        self.seq = seq
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        self.source_route = source_route  # DSR only
        self.cursor = cursor
        self.hops = hops
        self.crypto_delay = crypto_delay

    def wire_size(self):
        size = DATA_HEADER + self.payload
        if self.source_route is not None:
            size += ID_BYTES * len(self.source_route)
        return size


class Frame:
    """One on-air transmission: a message plus hop and integrity metadata."""
    __slots__ = ("kind", "msg", "sender", "receiver", "sec_valid", "adversary_origin")

    def __init__(self, kind, msg, sender, receiver=None, sec_valid=True,
                 adversary_origin=False):
        self.kind = kind
        self.msg = msg
        self.sender = sender
        self.receiver = receiver  # None = broadcast to all current neighbors
        self.sec_valid = sec_valid  # cleared for forged or tampered packets
        self.adversary_origin = adversary_origin

    def clone_for_relay(self, sender, msg=None):
        """A broadcast copy of this frame from sender, with msg if given."""
        return Frame(self.kind, self.msg if msg is None else msg, sender, None,
                     self.sec_valid, self.adversary_origin)
