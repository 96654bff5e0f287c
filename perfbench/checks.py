"""Output checks for the benchmark's workloads.

Every check works on plain data (tuples, lists of lines, CSV text) and
returns a list of violation messages; an empty list is a pass. Nothing here
imports the simulator: each expected value is recomputed from the scenario
parameters and the cost formulas of the README, or is a property the method
must have, so a fault in the simulator's own accounting cannot also hide in
the check. `selftest.py` shows that each check rejects a corrupted record.
"""

import csv
import io
import math
from collections import namedtuple

# SCML cost model as the README states it: HMAC-MD5 takes (32 + 2 + 744 *
# blocks) / c_p seconds over 512-bit blocks of the packet with its security
# headers, AES-128 takes 6168 cycles to encrypt and 10992 to decrypt, and the
# headers add 24 B (AH), 10 B (ESP) or 34 B (both).
HMAC_FIXED_OPS = 32 + 2
HMAC_BLOCK_OPS = 744
HMAC_BLOCK_BITS = 512
AES_ENC_CYCLES = 6168
AES_DEC_CYCLES = 10992
HEADER_BYTES = {"none": 0, "ah-only": 24, "esp-only": 10, "hybrid": 34}
# A data packet is its payload plus 28 B of IP and UDP header, plus 4 B per
# node of a DSR source route.
DATA_HEADER_BYTES = 28
ROUTE_ID_BYTES = 4

Delivery = namedtuple("Delivery", "flow seq send recv hops crypto")

# Scenario constants the per-packet checks need, read from the config.
Link = namedtuple("Link", "warmup mode payload bandwidth mac_overhead difs "
                          "processing c_p ideal source_routed")

MAX_REPORTED = 5


def link_of(cfg):
    return Link(warmup=cfg.warmup, mode=cfg.security_mode,
                payload=cfg.traffic_payload, bandwidth=cfg.bandwidth_bps,
                mac_overhead=cfg.mac_overhead_bytes, difs=cfg.difs,
                processing=cfg.processing_delay, c_p=cfg.c_p,
                ideal=cfg.ideal_channel, source_routed=cfg.protocol == "dsr")


def _report(out, msg):
    if len(out) < MAX_REPORTED:
        out.append(msg)
    elif len(out) == MAX_REPORTED:
        out.append("...")


def crypto_costs(mode, wire_bytes, c_p):
    """(sender, receiver) seconds one hop costs a packet of wire_bytes,
    counted before its security headers."""
    sender = receiver = 0.0
    if mode in ("esp-only", "hybrid"):
        sender += AES_ENC_CYCLES / c_p
        receiver += AES_DEC_CYCLES / c_p
    if mode in ("ah-only", "hybrid"):
        bits = (wire_bytes + HEADER_BYTES[mode]) * 8
        blocks = max(1, math.ceil(bits / HMAC_BLOCK_BITS))
        hmac = (HMAC_FIXED_OPS + HMAC_BLOCK_OPS * blocks) / c_p
        sender += hmac
        receiver += hmac
    return sender, receiver


def data_wire_bytes(link, hops):
    size = DATA_HEADER_BYTES + link.payload
    if link.source_routed:
        # a delivered packet walked its whole route of hops + 1 nodes
        size += ROUTE_ID_BYTES * (hops + 1)
    return size


def per_hop_floor(link, hops):
    """Least time one hop can take: sender crypto, DIFS on the contended
    channel, serialisation of wire + MAC bytes, processing, receiver crypto."""
    wire = data_wire_bytes(link, hops)
    sender, receiver = crypto_costs(link.mode, wire, link.c_p)
    on_air = (wire + HEADER_BYTES[link.mode] + link.mac_overhead) * 8.0 / link.bandwidth
    return sender + (0.0 if link.ideal else link.difs) + on_air + \
        link.processing + receiver


def check_packets(records, link):
    """send_time >= warmup, hops >= 1, delay >= hops * per-hop floor."""
    out = []
    for r in records:
        if r.send < link.warmup:
            _report(out, f"flow {r.flow} seq {r.seq}: sent at {r.send} before warmup")
        if r.hops < 1:
            _report(out, f"flow {r.flow} seq {r.seq}: {r.hops} hops")
            continue
        floor = r.hops * per_hop_floor(link, r.hops)
        if r.recv - r.send < floor - 1e-9:
            _report(out, f"flow {r.flow} seq {r.seq}: delay {r.recv - r.send:.9f} s "
                         f"below {r.hops} x per-hop floor = {floor:.9f} s")
    return out


def check_crypto(records, link):
    """Ideal channel: crypto_delay = hops * (send + receive cost). Contended
    channel: (crypto_delay - hops * receive) / send is an integer >= hops,
    since every retry pays the sender's cost again."""
    out = []
    for r in records:
        sender, receiver = crypto_costs(link.mode, data_wire_bytes(link, r.hops), link.c_p)
        if link.ideal or sender == 0.0:
            expected = r.hops * (sender + receiver)
            if abs(r.crypto - expected) > 1e-12:
                _report(out, f"flow {r.flow} seq {r.seq}: crypto {r.crypto!r} s, "
                             f"expected {expected!r} s over {r.hops} hops")
            continue
        sends = (r.crypto - r.hops * receiver) / sender
        if abs(sends - round(sends)) > 1e-6 or round(sends) < r.hops:
            _report(out, f"flow {r.flow} seq {r.seq}: crypto {r.crypto!r} s is "
                         f"{sends:.6f} sender passes over {r.hops} hops")
    return out


def unit_disk_adjacency(positions, radius):
    """positions: list of (x, y) by node id; links at distance <= radius."""
    r2 = radius * radius
    adj = [[] for _ in positions]
    for a, (ax, ay) in enumerate(positions):
        for b in range(a + 1, len(positions)):
            bx, by = positions[b]
            if (ax - bx) ** 2 + (ay - by) ** 2 <= r2:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def bfs(adj, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def check_hops_bfs(records, endpoints, positions, radius):
    """Static nodes: no packet takes fewer hops than the BFS distance between
    its endpoints on the unit-disk graph. endpoints: flow -> (src, dst)."""
    adj = unit_disk_adjacency(positions, radius)
    dists = {}
    out = []
    for r in records:
        src, dst = endpoints[r.flow]
        if src not in dists:
            dists[src] = bfs(adj, src)
        d = dists[src].get(dst)
        if d is None or r.hops < d:
            _report(out, f"flow {r.flow} seq {r.seq}: {r.hops} hops from {src} to "
                         f"{dst}, BFS distance {d}")
    return out


def _close(a, b, rel=1e-9, abs_tol=1e-12):
    if a != a or b != b:
        return a != a and b != b
    return abs(a - b) <= abs_tol + rel * abs(b)


def check_summary(records, summary, sent, dropped):
    """avg delay, avg jitter and delivered count recomputed from the records
    match the summary; sent - delivered - dropped >= 0.

    summary: (avg_delay_s, avg_jitter_s, data_delivered)."""
    out = []
    avg_delay, avg_jitter, delivered = summary
    n = len(records)
    if delivered != n:
        out.append(f"summary says {delivered} delivered, {n} delivery records")
    delay = math.fsum(r.recv - r.send for r in records) / n if n else float("nan")
    if not _close(delay, avg_delay):
        out.append(f"avg delay {avg_delay!r} s, records give {delay!r} s")
    by_flow = {}
    for r in records:
        by_flow.setdefault(r.flow, []).append(r)
    jitters = []
    for recs in by_flow.values():
        recs.sort(key=lambda r: r.seq)
        if len(recs) >= 2:
            ds = [r.recv - r.send for r in recs]
            jitters.append(math.fsum(abs(b - a) for a, b in zip(ds, ds[1:])) / (len(ds) - 1))
    jitter = math.fsum(jitters) / len(jitters) if jitters else float("nan")
    if not _close(jitter, avg_jitter):
        out.append(f"avg jitter {avg_jitter!r} s, records give {jitter!r} s")
    if sent - n - dropped < 0:
        out.append(f"sent {sent} - delivered {n} - dropped {dropped} < 0")
    return out


STABLE_OF = {"p-phase": "p-phase", "r-phase": "r-phase",
             "o-toward-r": "p-phase", "o-toward-p": "r-phase"}


def check_transitions(lines):
    """transitions.log: times never decrease, and each node's `from` is its
    previous `to`, where an o-phase counts as the stable phase it started
    from. Every node starts in p-phase."""
    out = []
    last_t = -math.inf
    phase = {}
    for i, line in enumerate(lines, 1):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 5:
            _report(out, f"line {i}: {len(fields)} fields")
            continue
        t, node, frm, to = float(fields[0]), fields[1], fields[2], fields[3]
        if t < last_t:
            _report(out, f"line {i}: time {t} after {last_t}")
        last_t = t
        prev = phase.get(node, "p-phase")
        if frm != prev and frm != STABLE_OF.get(prev):
            _report(out, f"line {i}: node {node} leaves {frm} but was in {prev}")
        phase[node] = to
    return out


def check_trace(lines, events):
    """trace.log: one line per dispatched event, times never decrease.
    lines: iterable of the file's lines as bytes. Returns (violations, count)."""
    out = []
    last_t = -math.inf
    count = 0
    for line in lines:
        count += 1
        t = float(line.split(b"\t", 1)[0])
        if t < last_t:
            _report(out, f"line {count}: time {t} after {last_t}")
        last_t = t
    if count != events:
        out.append(f"{count} trace lines for {events} dispatched events")
    return out, count


MEAN_COLUMNS = ("avg_delay_s", "avg_jitter_s", "ctl_packets", "ctl_bytes",
                "data_sent", "data_delivered", "goodput_ratio", "phase_shifts")
# (column, mean column, absolute tolerance): the program sums unrounded means
# and writes the load columns with three decimals, the others with nine.
CUMULATIVE_COLUMNS = (("cum_delay_s", "avg_delay_s", 1e-8),
                      ("cum_jitter_s", "avg_jitter_s", 1e-8),
                      ("cum_ctl_packets", "ctl_packets", 1e-3),
                      ("cum_ctl_bytes", "ctl_bytes", 1e-3),
                      ("cum_goodput_ratio", "goodput_ratio", 1e-8))


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_summary_rows(summary_text, grid):
    """summary.csv: one row per cell of grid, a list of
    (protocol, security_mode, N, seed) in run order, none delivering more
    than it sent. Returns (violations, bad cell indexes)."""
    rows = _rows(summary_text)
    got = [(r["protocol"], r["security_mode"], int(r["N"]), int(r["seed"])) for r in rows]
    if got != list(grid):
        return [f"summary.csv cells {got} differ from the grid {list(grid)}"], \
            set(range(len(grid)))
    out, bad = [], set()
    for i, r in enumerate(rows):
        if int(r["data_delivered"]) > int(r["data_sent"]):
            _report(out, f"{got[i]}: {r['data_delivered']} delivered of {r['data_sent']} sent")
            bad.add(i)
    return out, bad


def sweep_means(summary_text):
    """NaN-aware per-(protocol, mode, N) means in order of first appearance."""
    groups = {}
    for r in _rows(summary_text):
        groups.setdefault((r["protocol"], r["security_mode"], int(r["N"])), []).append(r)
    means = []
    for key, rows in groups.items():
        m = {}
        for col in MEAN_COLUMNS:
            vals = [float(r[col]) for r in rows if float(r[col]) == float(r[col])]
            m[col] = math.fsum(vals) / len(vals) if vals else float("nan")
        means.append((key, m))
    return means


def check_sweep_aggregates(summary_text, means_text, cumulative_text):
    """means.csv equals the NaN-aware mean, and cumulative.csv the prefix sum
    over N (NaN counting as 0), that this module computes from summary.csv."""
    out = []
    means = sweep_means(summary_text)
    rows = _rows(means_text)
    if [k for k, _ in means] != [(r["protocol"], r["security_mode"], int(r["N"]))
                                 for r in rows]:
        return ["means.csv keys differ from summary.csv groups"]
    for (key, m), r in zip(means, rows):
        for col in MEAN_COLUMNS:
            if not _close(float(r[col]), m[col], rel=1e-9, abs_tol=2e-9):
                _report(out, f"means.csv {key} {col}: {r[col]}, expected {m[col]!r}")
    expected = []
    for series in sorted({k[:2] for k, _ in means}):
        total = dict.fromkeys(MEAN_COLUMNS, 0.0)
        for key, m in sorted(((k, m) for k, m in means if k[:2] == series),
                             key=lambda km: km[0][2]):
            for col in total:
                if m[col] == m[col]:
                    total[col] += m[col]
            expected.append((key, dict(total)))
    rows = _rows(cumulative_text)
    if [k for k, _ in expected] != [(r["protocol"], r["security_mode"], int(r["N"]))
                                    for r in rows]:
        return out + ["cumulative.csv keys differ from the means' series"]
    for (key, total), r in zip(expected, rows):
        for cum_col, col, tol in CUMULATIVE_COLUMNS:
            if not _close(float(r[cum_col]), total[col], rel=1e-9, abs_tol=tol):
                _report(out, f"cumulative.csv {key} {cum_col}: {r[cum_col]}, "
                             f"expected {total[col]!r}")
    return out


def check_scripts(scripts):
    """Every generated plot script is valid Python. scripts: name -> text."""
    out = []
    if not scripts:
        out.append("no plot scripts written")
    for name, text in scripts.items():
        try:
            compile(text, name, "exec")
        except SyntaxError as e:
            _report(out, f"{name}: {e}")
    return out
