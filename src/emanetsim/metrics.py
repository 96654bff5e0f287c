"""Per-run measurement: delivery records, jitter, control-load counters,
run summaries, and cumulative-over-size aggregation."""

import csv
import os
from collections import namedtuple

# Per-run metrics, in the order RunSummary takes their values: (CSV column,
# RunSummary attribute, format spec in summary.csv, where "" writes a count
# as str() does). means.csv gives each column's seed mean with 9 decimals.
METRICS = (
    ("avg_delay_s", "avg_delay", ".9f"),     # nan when nothing was delivered
    ("avg_jitter_s", "avg_jitter", ".9f"),   # nan when no flow has >= 2 deliveries
    ("ctl_packets", "routing_load_packets", ""),
    ("ctl_bytes", "routing_load_bytes", ""),
    ("data_sent", "data_packets_sent", ""),
    ("data_delivered", "data_packets_delivered", ""),
    ("goodput_ratio", "goodput_ratio", ".9f"),  # delivered data / control packets
    ("phase_shifts", "phase_shifts", ""),
)

# cumulative.csv: (column, means.csv column summed over N, format)
CUMULATIVE = (
    ("cum_delay_s", "avg_delay_s", ".9f"),
    ("cum_jitter_s", "avg_jitter_s", ".9f"),
    ("cum_ctl_packets", "ctl_packets", ".3f"),
    ("cum_ctl_bytes", "ctl_bytes", ".3f"),
    ("cum_goodput_ratio", "goodput_ratio", ".9f"),
)

KEY_HEADER = ["protocol", "security_mode", "N"]
CSV_HEADER = KEY_HEADER + ["seed"] + [col for col, _, _ in METRICS]
MEANS_HEADER = KEY_HEADER + [col for col, _, _ in METRICS]
CUMULATIVE_HEADER = KEY_HEADER + [col for col, _, _ in CUMULATIVE]


class DeliveryRecord(namedtuple(
        "DeliveryRecord", "flow_id seq send_time recv_time hops crypto_delay")):
    __slots__ = ()

    @property
    def delay(self):
        return self.recv_time - self.send_time


class ControlCounter:
    __slots__ = ("count", "bytes")

    def __init__(self):
        self.count = 0
        self.bytes = 0


class RunSummary:
    """One run's metrics, values one per METRICS row. A plain class with a
    __dict__, so that a caller may attach more data and have it pickled."""

    def __init__(self, protocol, security_mode, network_size, seed, *values):
        self.protocol = protocol
        self.security_mode = security_mode
        self.network_size = network_size
        self.seed = seed
        for (_, attr, _), value in zip(METRICS, values, strict=True):
            setattr(self, attr, value)

    def csv_row(self):
        return [self.protocol, self.security_mode, str(self.network_size),
                str(self.seed)] + [format(getattr(self, attr), fmt)
                                   for _, attr, fmt in METRICS]


def _jitter(recs):
    """Mean absolute difference of consecutive (by sequence) delays over one
    flow's records, given in recording order; None below two records."""
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

    def note_phase_shift(self, now):
        if now >= self.warmup:
            self.phase_shifts += 1

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

    def summarize(self, protocol, security_mode, network_size, seed):
        if self.records:
            avg_delay = sum(r.delay for r in self.records) / len(self.records)
        else:
            avg_delay = float("nan")
        flows = {}
        for r in self.records:
            flows.setdefault(r.flow_id, []).append(r)
        jitters = [j for j in (_jitter(flows[f]) for f in sorted(flows))
                   if j is not None]
        avg_jitter = sum(jitters) / len(jitters) if jitters else float("nan")
        ctl_packets, ctl_bytes = self.control_totals()
        delivered = len(self.records)
        goodput = delivered / ctl_packets if ctl_packets else float("nan")
        return RunSummary(protocol, security_mode, network_size, seed,
                          avg_delay, avg_jitter, ctl_packets, ctl_bytes,
                          self.data_sent, delivered, goodput, self.phase_shifts)


def write_csv(path, header, rows, append=False):
    """Write rows under header with "\n" line ends. With append=True the
    rows go after the file's existing ones and the header is written only
    when the file is new."""
    new = not (append and os.path.exists(path))
    with open(path, "a" if append else "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if new:
            w.writerow(header)
        w.writerows(rows)


def write_summary_csv(rows, path, append=False):
    """rows: iterable of RunSummary, written in the given order."""
    write_csv(path, CSV_HEADER, (s.csv_row() for s in rows), append)


def write_means_csv(mean_rows, path):
    """mean_rows: seed_means dicts keyed by MEANS_HEADER; each mean is
    written with 9 decimals."""
    write_csv(path, MEANS_HEADER,
              ([r["protocol"], r["security_mode"], str(r["N"])]
               + [f"{r[col]:.9f}" for col, _, _ in METRICS] for r in mean_rows))


def cumulative_rows(mean_rows):
    """Prefix sums over N, per (protocol, mode), of the seed means named in
    CUMULATIVE. mean_rows: seed_means dicts. A NaN mean adds 0, so one
    empty cell does not poison the whole curve."""
    groups = {}
    for row in mean_rows:
        groups.setdefault((row["protocol"], row["security_mode"]), []).append(row)
    out = []
    for (proto, mode), rows in sorted(groups.items()):
        sums = [0.0] * len(CUMULATIVE)
        for r in sorted(rows, key=lambda r: r["N"]):
            for i, (_, col, _) in enumerate(CUMULATIVE):
                if r[col] == r[col]:  # not NaN
                    sums[i] += r[col]
            out.append([proto, mode, str(r["N"])]
                       + [format(v, fmt) for v, (_, _, fmt) in zip(sums, CUMULATIVE)])
    return out


def write_cumulative_csv(mean_rows, path):
    write_csv(path, CUMULATIVE_HEADER, cumulative_rows(mean_rows))
