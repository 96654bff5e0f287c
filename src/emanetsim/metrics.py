"""Per-run measurement: delivery records, jitter, control-load counters,
run summaries, and cumulative-over-size aggregation."""

import csv
import io
from dataclasses import dataclass, field

from . import packets

CSV_HEADER = [
    "protocol", "security_mode", "N", "seed", "avg_delay_s", "avg_jitter_s",
    "ctl_packets", "ctl_bytes", "data_sent", "data_delivered",
    "goodput_ratio", "phase_shifts",
]

CUMULATIVE_HEADER = [
    "protocol", "security_mode", "N", "cum_delay_s", "cum_jitter_s",
    "cum_ctl_packets", "cum_ctl_bytes", "cum_goodput_ratio",
]


@dataclass
class DeliveryRecord:
    flow_id: tuple
    seq: int
    send_time: float
    recv_time: float
    hops: int
    crypto_delay: float

    @property
    def delay(self):
        return self.recv_time - self.send_time


@dataclass
class ControlCounter:
    count: int = 0
    bytes: int = 0


@dataclass
class RunSummary:
    protocol: str
    security_mode: str
    network_size: int
    seed: int
    avg_delay: float       # nan when nothing was delivered
    avg_jitter: float      # nan when no flow has >= 2 deliveries
    routing_load_packets: int
    routing_load_bytes: int
    data_packets_sent: int
    data_packets_delivered: int
    goodput_ratio: float   # delivered data packets / control packets
    phase_shifts: int

    def csv_row(self):
        return [
            self.protocol, self.security_mode, str(self.network_size),
            str(self.seed), f"{self.avg_delay:.9f}", f"{self.avg_jitter:.9f}",
            str(self.routing_load_packets), str(self.routing_load_bytes),
            str(self.data_packets_sent), str(self.data_packets_delivered),
            f"{self.goodput_ratio:.9f}", str(self.phase_shifts),
        ]


def _jitter(recs):
    """flow_jitter over one flow's records, given in recording order."""
    recs = sorted(recs, key=lambda r: r.seq)
    if len(recs) < 2:
        return None
    diffs = [abs(b.delay - a.delay) for a, b in zip(recs, recs[1:])]
    return sum(diffs) / len(diffs)


class MetricLog:
    """Measurement sink owned by one simulation run.

    Only events at or after the warmup boundary are recorded; data packets
    sent before warmup never enter the summary.
    """

    def __init__(self, warmup=0.0):
        self.warmup = warmup
        self.records = []
        self._seen = set()
        self.duplicate_deliveries = 0
        self.control = {}
        self.data_sent = 0
        self.data_dropped = 0
        self.drops_by_reason = {}  # reason -> post-warmup drops
        self.crypto_delay_total = 0.0
        self.rejected_packets = 0
        self.adversary_injected = 0
        self.phase_shifts = 0

    def note_data_sent(self, send_time):
        if send_time >= self.warmup:
            self.data_sent += 1

    def note_data_dropped(self, send_time, reason):
        if send_time >= self.warmup:
            self.data_dropped += 1
            self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def record_delivery(self, flow_id, seq, send_time, recv_time, hops, crypto_delay):
        if recv_time < send_time:
            raise ValueError("delivery before send")
        if send_time < self.warmup:
            return
        key = (flow_id, seq)
        if key in self._seen:
            self.duplicate_deliveries += 1
            return
        self._seen.add(key)
        self.records.append(
            DeliveryRecord(flow_id, seq, send_time, recv_time, hops, crypto_delay))
        self.crypto_delay_total += crypto_delay

    def count_control(self, kind, wire_bytes, now, count_packet=True):
        if now < self.warmup:
            return
        ctr = self.control.get(kind)
        if ctr is None:
            ctr = self.control[kind] = ControlCounter()
        if count_packet:
            ctr.count += 1
        ctr.bytes += wire_bytes

    def control_totals(self):
        pkts = sum(c.count for c in self.control.values())
        byts = sum(c.bytes for c in self.control.values())
        return pkts, byts

    def flow_jitter(self, flow_id):
        """Mean absolute difference of consecutive (by sequence) delays.

        Returns None for flows with fewer than two deliveries.
        """
        return _jitter([r for r in self.records if r.flow_id == flow_id])

    def summarize(self, protocol, security_mode, network_size, seed):
        if self.records:
            avg_delay = sum(r.delay for r in self.records) / len(self.records)
        else:
            avg_delay = float("nan")
        flows = {}
        for r in self.records:
            flows.setdefault(r.flow_id, []).append(r)
        jitters = []
        for flow_id in sorted(flows):
            j = _jitter(flows[flow_id])
            if j is not None:
                jitters.append(j)
        avg_jitter = sum(jitters) / len(jitters) if jitters else float("nan")
        ctl_packets, ctl_bytes = self.control_totals()
        delivered = len(self.records)
        goodput = delivered / ctl_packets if ctl_packets else float("nan")
        return RunSummary(
            protocol=protocol,
            security_mode=security_mode,
            network_size=network_size,
            seed=seed,
            avg_delay=avg_delay,
            avg_jitter=avg_jitter,
            routing_load_packets=ctl_packets,
            routing_load_bytes=ctl_bytes,
            data_packets_sent=self.data_sent,
            data_packets_delivered=delivered,
            goodput_ratio=goodput,
            phase_shifts=self.phase_shifts,
        )


def write_summary_csv(rows, path):
    """rows: iterable of RunSummary, written in the given order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for s in rows:
            w.writerow(s.csv_row())


def summary_csv_text(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for s in rows:
        w.writerow(s.csv_row())
    return buf.getvalue()


def cumulate(series):
    """Running prefix sums of a per-size metric series.

    series: list of (N, value) sorted by N. NaN values are treated as 0 so a
    single empty cell does not poison the whole cumulative curve.
    """
    out = []
    total = 0.0
    for n, v in series:
        if v == v:  # not NaN
            total += v
        out.append((n, total))
    return out


def cumulative_rows(mean_summaries):
    """Cumulative series per (protocol, mode) from per-size seed-mean metrics.

    mean_summaries: list of dicts with keys protocol, security_mode, N,
    avg_delay_s, avg_jitter_s, ctl_packets, ctl_bytes, goodput_ratio, in
    deterministic order.
    """
    groups = {}
    for row in mean_summaries:
        groups.setdefault((row["protocol"], row["security_mode"]), []).append(row)
    out = []
    for (proto, mode), rows in sorted(groups.items()):
        rows = sorted(rows, key=lambda r: r["N"])
        cums = {k: 0.0 for k in ("avg_delay_s", "avg_jitter_s", "ctl_packets",
                                 "ctl_bytes", "goodput_ratio")}
        for r in rows:
            for k in cums:
                v = r[k]
                if v == v:
                    cums[k] += v
            out.append([
                proto, mode, str(r["N"]),
                f"{cums['avg_delay_s']:.9f}", f"{cums['avg_jitter_s']:.9f}",
                f"{cums['ctl_packets']:.3f}", f"{cums['ctl_bytes']:.3f}",
                f"{cums['goodput_ratio']:.9f}",
            ])
    return out


def write_cumulative_csv(mean_summaries, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CUMULATIVE_HEADER)
        for row in cumulative_rows(mean_summaries):
            w.writerow(row)
