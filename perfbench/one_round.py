"""One round of a workload, in a process of its own.

    python3 perfbench/one_round.py --workload NAME --seed N --trace 0|1 --out DIR

Imports emanetsim from the checkout's src/, runs every cell of the workload
once through the public API, checks every output, and prints one JSON object
as its last line of standard output. run.py starts one such process per
round, so each round pays the package import, and its peak resident memory
is its own.

Untraced rounds never import layers.py. Traced rounds install its wrappers
after the import and report per-layer values; their outputs must still be
byte-identical to the untraced ones.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_PASSES = 3


def peak_rss_mb(pool_workers=0):
    """Peak resident memory of this process, plus pool_workers times the
    largest peak of its reaped children: an upper bound on the peak of the
    process tree, since forked workers share their parent's pages."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * children) / 1024.0


def file_digests(out_dir):
    """sha256 of every file the round wrote, by path relative to out_dir,
    with the total byte count."""
    digests, size = {}, 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(path, out_dir)] = h.hexdigest()
            size += os.path.getsize(path)
    return dict(sorted(digests.items())), size


def setup_seconds(world_cls, cells):
    """Median over SETUP_PASSES of the time to build every cell's World and
    run its setup(), as run_scenario does before the first event."""
    passes = []
    for _ in range(SETUP_PASSES):
        total = 0.0
        for cfg in cells:
            start = time.perf_counter()
            world = world_cls(cfg.validate(), trace=[].append if cfg.trace else None)
            world.setup()
            total += time.perf_counter() - start
            del world
            gc.collect()
        passes.append(total)
    return statistics.median(passes)


def check_cell(checks, cfg, summary, world, run_dir):
    """Violations of one single-run cell, and its trace line count."""
    recs = [checks.Delivery(r.flow_id, r.seq, r.send_time, r.recv_time, r.hops,
                            r.crypto_delay) for r in world.metrics.records]
    link = checks.link_of(cfg)
    out = checks.check_packets(recs, link) + checks.check_crypto(recs, link)
    if cfg.v_max == 0.0:
        endpoints = {fid: (f["src"], f["dst"]) for fid, f in world.flows.items()}
        positions = [(n.kin.x, n.kin.y) for n in world.nodes]
        out += checks.check_hops_bfs(recs, endpoints, positions, cfg.radius)
    out += checks.check_summary(
        recs, (summary.avg_delay, summary.avg_jitter, summary.data_packets_delivered),
        world.metrics.data_sent, world.metrics.data_dropped)
    with open(os.path.join(run_dir, "transitions.log")) as fh:
        out += checks.check_transitions(fh)
    lines = 0
    if cfg.trace:
        with open(os.path.join(run_dir, "trace.log"), "rb") as fh:
            found, lines = checks.check_trace(fh, world.kernel.dispatched)
        out += found
    return out, lines


def run_singles(em, checks, cells, out_dir):
    """Each cell through run_scenario, checked as soon as it ends; the
    checks are not timed."""
    wall = peak = 0.0
    bad, done, trace_lines, violations = set(), [], 0, []
    for i, cfg in enumerate(cells):
        name = f"{cfg.protocol}_{cfg.security_mode}_n{cfg.n}_s{cfg.seed}"
        start = time.perf_counter()
        try:
            summary, world = em.run_scenario(cfg, out_dir=out_dir)
        except Exception:
            wall += time.perf_counter() - start
            bad.add(i)
            violations.append(f"{name}: raised\n{traceback.format_exc()}")
            continue
        wall += time.perf_counter() - start
        peak = max(peak, peak_rss_mb())
        done.append(i)
        found, lines = check_cell(checks, cfg, summary, world, os.path.join(out_dir, name))
        trace_lines += lines
        if found:
            bad.add(i)
            violations += [f"{name}: {v}" for v in found]
        del summary, world
        gc.collect()
    if done:
        with open(os.path.join(out_dir, "summary.csv")) as fh:
            found, rows = checks.check_summary_rows(
                fh.read(), [(cells[i].protocol, cells[i].security_mode, cells[i].n,
                             cells[i].seed) for i in done])
        bad.update(done[r] for r in rows)
        violations += found
    return {"wall": wall, "peak_rss_mb": peak, "failed": len(bad),
            "trace_lines": trace_lines, "violations": violations}


def run_sweep(em, checks, cells, spec, out_dir, workers):
    """The whole grid through run_sweep, then its CSVs and plot scripts."""
    start = time.perf_counter()
    try:
        em.run_sweep(spec, out_dir=out_dir, parallel=workers)
    except Exception:
        return {"wall": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb(),
                "failed": len(cells), "trace_lines": 0,
                "violations": [f"run_sweep raised\n{traceback.format_exc()}"]}
    wall = time.perf_counter() - start
    peak = peak_rss_mb(workers if workers > 1 else 0)

    def read(name):
        with open(os.path.join(out_dir, name)) as fh:
            return fh.read()

    grid = [(c.protocol, c.security_mode, c.n, c.seed) for c in cells]
    violations, bad = checks.check_summary_rows(read("summary.csv"), grid)
    found = checks.check_sweep_aggregates(read("summary.csv"), read("means.csv"),
                                          read("cumulative.csv"))
    scripts = {name: read(name) for name in sorted(os.listdir(out_dir))
               if name.endswith(".py")}
    found += checks.check_scripts(scripts)
    if found:
        bad = set(range(len(cells)))
        violations += found
    return {"wall": wall, "peak_rss_mb": peak, "failed": len(bad), "trace_lines": 0,
            "violations": violations}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="empty directory for the outputs")
    ap.add_argument("--spans", help="traced rounds: file to write the spans to")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import emanetsim as em
    import_s = time.perf_counter() - start
    if not os.path.abspath(em.__file__).startswith(SRC + os.sep):
        print(f"emanetsim imported from {em.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from emanetsim.network import World

    import checks
    import workloads

    cells, spec = workloads.cells_of(em, args.workload, args.seed)
    result = {"import_s": import_s, "attempted": len(cells)}
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install(em)
    else:
        result["setup_s"] = import_s + setup_seconds(World, cells)

    os.makedirs(args.out, exist_ok=True)
    if spec is None:
        ran = run_singles(em, checks, cells, args.out)
    else:
        ran = run_sweep(em, checks, cells, spec, args.out, workloads.pool_size())
    digests, size = file_digests(args.out)
    result.update(wall_s=import_s + ran["wall"], peak_rss_mb=ran["peak_rss_mb"],
                  failed=ran["failed"], violations=ran["violations"], digests=digests)
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, ran["trace_lines"], size)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans_fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans,
                           "totals_fields": ["parent", "name", "calls", "total_s",
                                             "self_s"],
                           "totals": tracer.export()["totals"],
                           "counts": tracer.counts}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
