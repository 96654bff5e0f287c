"""Scenario execution and sweeps: builds worlds from configs, writes run
artifacts (summary rows, transition logs, manifests, traces), aggregates
seed means, and emits cumulative series plus plot scripts."""

import os
from multiprocessing import get_context

from . import metrics as mt
from . import plotgen
from .config import ScenarioConfig, SweepSpec, dump_config
from .mobility import hop_distances
from .network import World


def build_world(cfg, trace_sink=None):
    cfg.validate()
    return World(cfg, trace=trace_sink if cfg.trace else None)


def run_scenario(cfg, out_dir=None, run_name=None):
    """Execute one scenario; returns (RunSummary, World).

    With out_dir set, writes <name>/transitions.log, <name>/manifest.ini and,
    when tracing is on, <name>/trace.log, and appends the summary row to
    out_dir/summary.csv (creating it with the header when absent). trace.log
    is written line by line as events fire, so a run that raises leaves the
    lines up to the failure. Without out_dir no trace is formatted.
    """
    if out_dir is None:
        world = build_world(cfg)
        return world.run(), world
    name = run_name or f"{cfg.protocol}_{cfg.security_mode}_n{cfg.n}_s{cfg.seed}"
    run_dir = os.path.join(out_dir, name)
    os.makedirs(run_dir, exist_ok=True)
    trace_fh = open(os.path.join(run_dir, "trace.log"), "w") if cfg.trace else None
    try:
        sink = trace_fh.write if trace_fh is not None else None
        world = build_world(cfg, trace_sink=sink)
        summary = world.run()
    finally:
        if trace_fh is not None:
            trace_fh.close()
    with open(os.path.join(run_dir, "transitions.log"), "w") as fh:
        for line in world.transitions:
            fh.write(line + "\n")
    with open(os.path.join(run_dir, "manifest.ini"), "w") as fh:
        fh.write(dump_config(cfg))
    mt.write_summary_csv([summary], os.path.join(out_dir, "summary.csv"), append=True)
    return summary, world


def _run_cell(cfg):
    return World(cfg).run()


def run_cells(cells, parallel=1, fn=None):
    """Apply fn (default: run the config, return its RunSummary) to each
    cell, optionally in worker processes. fn must be a module-level function
    so that workers can look it up.

    Results come back in input order either way, so downstream CSVs are
    byte-identical regardless of parallelism.
    """
    fn = fn or _run_cell
    if parallel > 1 and len(cells) > 1:
        # A fresh worker per cell: a reused worker's resident peak would
        # build up over whichever cells it happened to draw.
        with get_context("fork").Pool(parallel, maxtasksperchild=1) as pool:
            return pool.map(fn, cells, chunksize=1)
    return [fn(c) for c in cells]


def seed_means(summaries):
    """Per-(protocol, mode, N) means over seeds of every metrics.METRICS
    column, NaN-aware, in order of first appearance."""
    groups = {}
    for s in summaries:
        groups.setdefault((s.protocol, s.security_mode, s.network_size), []).append(s)
    rows = []
    for (protocol, mode, n), group in groups.items():
        row = {"protocol": protocol, "security_mode": mode, "N": n}
        for col, attr, _ in mt.METRICS:
            vals = [v for v in (float(getattr(s, attr)) for s in group) if v == v]
            row[col] = sum(vals) / len(vals) if vals else float("nan")
        rows.append(row)
    return rows


def run_sweep(spec, out_dir=None, parallel=1):
    """Run the full cross product; returns (summaries, mean_rows).

    Artifacts: summary.csv (every run), means.csv (per-size seed means),
    cumulative.csv (prefix sums over N of the means), and plot scripts.
    """
    cells = spec.cells()
    summaries = run_cells(cells, parallel=parallel)
    means = seed_means(summaries)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        mt.write_summary_csv(summaries, os.path.join(out_dir, "summary.csv"))
        mt.write_means_csv(means, os.path.join(out_dir, "means.csv"))
        mt.write_cumulative_csv(means, os.path.join(out_dir, "cumulative.csv"))
        plotgen.write_plot_scripts(out_dir)
        with open(os.path.join(out_dir, "manifest.ini"), "w") as fh:
            fh.write(dump_config(spec.base))
    return summaries, means


def graph_diameter(world):
    """Max BFS hop distance over the current neighbor graph (0 if empty)."""
    return max((max(hop_distances(world.neighbors, n.id).values())
                for n in world.nodes if n.active), default=0)


def static_connected_world(cfg, max_attempts=50):
    """Build a static world, re-seeding placement until connected."""
    base_seed = cfg.seed
    for attempt in range(max_attempts):
        world = World(cfg.replace(v_min=0.0, v_max=0.0,
                                  seed=base_seed + 1000 * attempt))
        if world.connected():
            return world
    raise RuntimeError(f"no connected placement found for n={cfg.n}")


def calibrate_k(sizes=(10, 15, 20, 25, 30, 35, 40, 45, 50), seeds=(1, 2, 3, 4, 5),
                base=None):
    """Offline size-estimate regression: fit N = k * h_max^2 through the
    origin over static uniform topologies, h_max from true BFS diameters.

    Returns (k, samples) with samples = [(N, h_max)].
    """
    base = base or ScenarioConfig()
    samples = []
    for n in sizes:
        for seed in seeds:
            cfg = base.replace(n=n, seed=seed, duration=1.0, warmup=0.0,
                               traffic_rate=0.0)
            world = static_connected_world(cfg)
            h = graph_diameter(world)
            if h > 0:
                samples.append((n, h))
    num = sum(n * h * h for n, h in samples)
    den = sum(h ** 4 for _, h in samples)
    if den == 0:
        raise RuntimeError("degenerate calibration: all diameters zero")
    return num / den, samples
