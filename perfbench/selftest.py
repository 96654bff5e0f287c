"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs three small scenarios (a contended CML hybrid run, a static one on the
ideal channel, and a two-protocol sweep), shows that every check in
checks.py passes on their real outputs, and then feeds each check a copy
with one corrupted record and shows that the check rejects it. It also
checks that BENCHMARK.json names the metrics the benchmark reports. Exits
non-zero if any check does not behave.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import emanetsim as em  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, check_digests  # noqa: E402

OUT = os.path.join(HERE, "results", "selftest")
failures = []


def expect(label, violations, should_fail):
    ok = bool(violations) == should_fail
    verdict = "rejects" if violations else "accepts"
    print(f"[{'ok' if ok else 'FAIL'}] {label}: {verdict}"
          + (f" ({violations[0]})" if violations else ""))
    if not ok:
        failures.append(label)


def records_of(world):
    return [checks.Delivery(r.flow_id, r.seq, r.send_time, r.recv_time, r.hops,
                            r.crypto_delay) for r in world.metrics.records]


def packet_checks(cfg, summary, world, label):
    recs = records_of(world)
    link = checks.link_of(cfg)
    multi = next(i for i, r in enumerate(recs) if r.hops >= 2)
    r = recs[multi]

    def with_record(**change):
        copy = list(recs)
        copy[multi] = r._replace(**change)
        return copy

    expect(f"{label} packets", checks.check_packets(recs, link), False)
    expect(f"{label} packets: sent before warmup",
           checks.check_packets(with_record(send=cfg.warmup - 1.0,
                                            recv=r.recv - r.send + cfg.warmup - 1.0),
                                link), True)
    expect(f"{label} packets: no hops", checks.check_packets(with_record(hops=0), link), True)
    floor = r.hops * checks.per_hop_floor(link, r.hops)
    expect(f"{label} packets: delay under the per-hop floor",
           checks.check_packets(with_record(recv=r.send + 0.99 * floor), link), True)

    expect(f"{label} crypto", checks.check_crypto(recs, link), False)
    sender, receiver = checks.crypto_costs(link.mode, checks.data_wire_bytes(link, r.hops),
                                           link.c_p)
    expect(f"{label} crypto: half a sender pass more",
           checks.check_crypto(with_record(crypto=r.crypto + 0.5 * sender), link), True)
    expect(f"{label} crypto: one sender pass fewer than hops",
           checks.check_crypto(with_record(crypto=r.hops * receiver + (r.hops - 1) * sender),
                               link), True)

    fields = (summary.avg_delay, summary.avg_jitter, summary.data_packets_delivered)
    sent, dropped = world.metrics.data_sent, world.metrics.data_dropped
    expect(f"{label} summary", checks.check_summary(recs, fields, sent, dropped), False)
    expect(f"{label} summary: one delay 1 ms longer",
           checks.check_summary(with_record(recv=r.recv + 1e-3), fields, sent, dropped), True)
    expect(f"{label} summary: one record missing",
           checks.check_summary(recs[1:], fields, sent, dropped), True)
    expect(f"{label} summary: more delivered and dropped than sent",
           checks.check_summary(recs, fields, len(recs) + dropped - 1, dropped), True)
    return recs, multi


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)

    # a contended CML hybrid run that shifts phase, with its event trace
    cfg = em.ScenarioConfig(protocol="cml", security_mode="hybrid", n=12, seed=2,
                            duration=200.0, warmup=20.0, nst=5, x=1,
                            trace=True).validate()
    summary, world = em.run_scenario(cfg, out_dir=OUT, run_name="contended")
    packet_checks(cfg, summary, world, "contended")
    with open(os.path.join(OUT, "contended", "transitions.log")) as fh:
        lines = fh.readlines()
    expect("transitions", checks.check_transitions(lines), False)
    stable = next(i for i, ln in enumerate(lines) if ln.split("\t")[2] in ("p-phase", "r-phase"))
    t, node, frm, to, trig = lines[stable].split("\t")
    other = "r-phase" if frm == "p-phase" else "p-phase"
    expect("transitions: a node leaves a phase it was not in",
           checks.check_transitions(
               lines[:stable] + ["\t".join((t, node, other, to, trig))] + lines[stable + 1:]),
           True)
    last = len(lines) - 1
    expect("transitions: time goes back",
           checks.check_transitions(lines[:last] + ["0.000000001" + lines[last][
               lines[last].index("\t"):]]), True)
    with open(os.path.join(OUT, "contended", "trace.log"), "rb") as fh:
        trace = fh.readlines()
    events = world.kernel.dispatched
    expect("trace", checks.check_trace(trace, events)[0], False)
    expect("trace: one line missing", checks.check_trace(trace[:-1], events)[0], True)
    times = [float(line.split(b"\t")[0]) for line in trace]
    i = next(i for i in range(len(times) - 1) if times[i] < times[i + 1])
    expect("trace: two events out of order",
           checks.check_trace(trace[:i] + [trace[i + 1], trace[i]] + trace[i + 2:], events)[0],
           True)

    # a static run on the ideal channel: exact crypto and BFS hop counts
    cfg = em.ScenarioConfig(protocol="cml", security_mode="ah-only", n=15, seed=3,
                            duration=60.0, warmup=10.0, v_min=0.0, v_max=0.0,
                            ideal_channel=True, bandwidth_bps=50e6).validate()
    summary, world = em.run_scenario(cfg, out_dir=OUT, run_name="ideal")
    recs, multi = packet_checks(cfg, summary, world, "ideal")
    endpoints = {fid: (f["src"], f["dst"]) for fid, f in world.flows.items()}
    positions = [(n.kin.x, n.kin.y) for n in world.nodes]
    expect("BFS hops", checks.check_hops_bfs(recs, endpoints, positions, cfg.radius), False)
    short = list(recs)
    src, dst = endpoints[recs[multi].flow]
    far = checks.bfs(checks.unit_disk_adjacency(positions, cfg.radius), src)[dst]
    short[multi] = recs[multi]._replace(hops=far - 1)
    expect("BFS hops: one hop fewer than the BFS distance",
           checks.check_hops_bfs(short, endpoints, positions, cfg.radius), True)

    # a small sweep: its rows, means, prefix sums and plot scripts
    spec = em.SweepSpec(base=em.ScenarioConfig(duration=60.0, warmup=10.0),
                        sizes=(5, 8), seeds=(1, 2), protocols=("olsr", "aodv"))
    sweep_dir = os.path.join(OUT, "sweep")
    em.run_sweep(spec, out_dir=sweep_dir, parallel=1)

    def read(name):
        with open(os.path.join(sweep_dir, name)) as fh:
            return fh.read()

    summary_csv, means_csv, cum_csv = read("summary.csv"), read("means.csv"), \
        read("cumulative.csv")
    grid = [(c.protocol, c.security_mode, c.n, c.seed) for c in spec.cells()]
    expect("sweep rows", checks.check_summary_rows(summary_csv, grid)[0], False)
    rows = summary_csv.splitlines()
    f = rows[1].split(",")
    f[9] = str(int(f[8]) + 1)  # data_delivered above data_sent
    expect("sweep rows: more delivered than sent",
           checks.check_summary_rows("\n".join([rows[0], ",".join(f)] + rows[2:]) + "\n",
                                   grid)[0], True)
    expect("sweep rows: one cell missing",
           checks.check_summary_rows("\n".join(rows[:-1]) + "\n", grid)[0], True)
    expect("sweep means and prefix sums",
           checks.check_sweep_aggregates(summary_csv, means_csv, cum_csv), False)
    m = means_csv.splitlines()
    f = m[1].split(",")
    f[3] = f"{float(f[3]) + 1e-6:.9f}"  # avg_delay_s
    expect("sweep means: one mean 1 us off",
           checks.check_sweep_aggregates(summary_csv, "\n".join([m[0], ",".join(f)] + m[2:])
                                         + "\n", cum_csv), True)
    c = cum_csv.splitlines()
    f = c[-1].split(",")
    f[5] = f"{float(f[5]) + 1.0:.3f}"  # cum_ctl_packets
    expect("sweep prefix sums: one sum one packet off",
           checks.check_sweep_aggregates(summary_csv, means_csv,
                                         "\n".join(c[:-1] + [",".join(f)]) + "\n"), True)
    scripts = {n: read(n) for n in os.listdir(sweep_dir) if n.endswith(".py")}
    expect("plot scripts", checks.check_scripts(scripts), False)
    name = sorted(scripts)[0]
    expect("plot scripts: one with an unclosed bracket",
           checks.check_scripts(dict(scripts, **{name: scripts[name] + "\nplt.plot(\n"})),
           True)

    # determinism across rounds
    store = os.path.join(OUT, "digests.json")
    expect("digests", check_digests([{"digests": {"a": "1"}}] * 2, store), False)
    expect("digests: a round differs",
           check_digests([{"digests": {"a": "1"}}, {"digests": {"a": "2"}}], store), True)
    expect("digests: an earlier run differs",
           check_digests([{"digests": {"a": "2"}}], store), True)

    # BENCHMARK.json names what run.py reports
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect("BENCHMARK.json end-to-end metrics",
           [] if declared == list(END_TO_END) else [f"{declared} != {END_TO_END}"], False)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect("BENCHMARK.json per-layer metrics",
           [] if declared == list(PER_LAYER) else ["per_layer differs from layers.PER_LAYER"],
           False)

    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(failures)} checks misbehaved" if failures else "every check behaves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
