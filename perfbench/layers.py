"""Outside-in per-layer tracing for the benchmark's traced rounds.

`install` replaces public functions and methods of the modules under
src/emanetsim, and every callable handed to `EventKernel.schedule`, with
wrappers that time them in this process. The simulator's source is not
touched, and untraced rounds never import this module.

A span has a name, a start, an end and a parent. The coarse spans (world
build, set-up, run, summary, each runner step and each sweep cell) are kept
whole. The fine ones, one or more per event (1.14M events on the CML
workload), are folded as they close into totals per (parent name, name):
calls, total time and self time, where self time is the span's duration less
the part its child spans cover. Both are kept in memory and written out once,
at the end of the round. A layer's self time is the sum of its spans' self
times.

Wrapper calls cost time of their own. Most of it lands in the self time of
the caller of a wrapped function; the difference between a traced and an
untraced round is reported as the tracing overhead.
"""

import os
from time import perf_counter

# Event kinds whose handlers are channel, traffic or mobility work. Any other
# kind ("timer") is charged to the module that armed it, as "<module>.timer".
KIND_SPANS = {
    "pump": "network.pump",
    "tx-end": "network.tx_end",
    "rx": "network.rx",
    "relay": "network.relay",
    "traffic-send": "network.traffic",
    "traffic-rotate": "network.traffic",
    "mobility-tick": "mobility.tick",
    "attack": "network.attack",
}

# (metric, unit, better) for every per-layer metric a traced run reports, in
# report order. The values come from `layer_metrics`, and from run.py for the
# two that need an untraced round.
PER_LAYER = (
    ("kernel.events", "count", "lower"),
    ("kernel.cancelled", "count", "lower"),
    ("kernel.events_per_s", "1/s", "higher"),
    ("kernel.schedule_s", "s", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.trace_lines", "count", "lower"),
    ("network.pump_s", "s", "lower"),
    ("network.tx_end_s", "s", "lower"),
    ("network.rx_s", "s", "lower"),
    ("network.relay_s", "s", "lower"),
    ("network.traffic_s", "s", "lower"),
    ("network.send_s", "s", "lower"),
    ("network.tx_events", "count", "lower"),
    ("network.rx_events", "count", "lower"),
    ("mobility.advance_s", "s", "lower"),
    ("mobility.neighbor_map_s", "s", "lower"),
    ("mobility.ticks", "count", "lower"),
    ("olsr.routes_s", "s", "lower"),
    ("olsr.route_computes", "count", "lower"),
    ("olsr.routes_changed_ratio", "ratio", "higher"),
    ("olsr.mpr_s", "s", "lower"),
    ("olsr.mpr_selects", "count", "lower"),
    ("olsr.mpr_changed_ratio", "ratio", "higher"),
    ("olsr.on_frame_s", "s", "lower"),
    ("olsr.send_data_s", "s", "lower"),
    ("aodv.on_frame_s", "s", "lower"),
    ("aodv.send_data_s", "s", "lower"),
    ("dsr.on_frame_s", "s", "lower"),
    ("dsr.send_data_s", "s", "lower"),
    ("dsr.cached_path_s", "s", "lower"),
    ("cml.on_frame_s", "s", "lower"),
    ("cml.send_data_s", "s", "lower"),
    ("cml.transitions", "count", "lower"),
    ("security.cost_s", "s", "lower"),
    ("security.cost_calls", "count", "lower"),
    ("security.gate_s", "s", "lower"),
    ("metrics.summarize_s", "s", "lower"),
    ("metrics.record_delivery_s", "s", "lower"),
    ("metrics.records", "count", "higher"),
    ("runner.artifacts_s", "s", "lower"),
    ("runner.artifact_bytes", "bytes", "lower"),
    ("runner.cells_s", "s", "lower"),
    ("runner.aggregate_s", "s", "lower"),
    ("runner.pool_busy_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span stack, folded totals, counters and the kept coarse spans."""

    def __init__(self):
        # frame: [name, seconds covered by child spans, index of the nearest
        # kept span]; the lists and dicts are reset in place because the
        # wrappers hold them
        self.stack = []
        self.totals = {}   # (parent name, name) -> [calls, total s, self s]
        self.counts = {}
        self.spans = []    # (name, start, end, parent span index or -1)
        self.prev_routes = {}
        self.reset("root")

    def reset(self, root):
        self.stack[:] = [[root, 0.0, -1]]
        self.totals.clear()
        self.counts.clear()
        self.spans.clear()
        self.prev_routes.clear()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn):
        """fn wrapped in a span that is folded into the totals."""
        stack, totals, clock = self.stack, self.totals, perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                tot = totals.get((parent[0], name))
                if tot is None:
                    totals[(parent[0], name)] = [1, dur, dur - frame[1]]
                else:
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - frame[1]
        return wrapper

    def kept(self, name, fn):
        """fn wrapped in a span that is also kept whole."""
        stack, spans, totals, clock = self.stack, self.spans, self.totals, perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans[index] = (name, start, end, parent[2])
                tot = totals.setdefault((parent[0], name), [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += end - start
                tot[2] += end - start - frame[1]
        return wrapper

    def export(self):
        return {"totals": [[p, n, *t] for (p, n), t in self.totals.items()],
                "counts": dict(self.counts),
                "spans": list(self.spans)}

    def merge(self, part, parent_index):
        """Fold in a worker's export; its top-level spans hang under
        parent_index."""
        for p, n, calls, total, self_s in part["totals"]:
            tot = self.totals.setdefault((p, n), [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += total
            tot[2] += self_s
        for name, n in part["counts"].items():
            self.count(name, n)
        base = len(self.spans)
        for name, start, end, parent in part["spans"]:
            self.spans.append((name, start, end,
                               parent_index if parent < 0 else parent + base))

    # -- reading the folded totals ------------------------------------------

    def _sum(self, name, field):
        start = 0 if field == 0 else 0.0
        return sum((t[field] for (_, n), t in self.totals.items() if n == name), start)

    def calls(self, name):
        return self._sum(name, 0)

    def total_s(self, name):
        return self._sum(name, 1)

    def self_s(self, name):
        return self._sum(name, 2)


# Set by install(); read by traced_run_cell, which worker processes reach by
# its module path when the runner's pool pickles it.
_ACTIVE = None


def traced_run_cell(cfg):
    """Stands in for runner._run_cell. In a pool worker it traces the cell
    from a clean slate and sends the totals back on the summary object."""
    tracer, run_cell, owner = _ACTIVE
    if os.getpid() == owner:
        return run_cell(cfg)
    tracer.reset("runner.run_cells")
    summary = run_cell(cfg)
    summary.__dict__["_perfbench_trace"] = tracer.export()
    return summary


def install(em):
    """Wrap the layers of the imported emanetsim package; returns the
    Tracer. em is the package module."""
    global _ACTIVE
    from emanetsim import (aodv, cml, dsr, kernel, metrics, mobility, network,
                           olsr, plotgen, runner, security)

    tr = Tracer()
    span, kept = tr.span, tr.kept

    # kernel: scheduling, the dispatch loop, and one span per handler.
    # schedule calls nothing that is wrapped, so it is timed inline as a leaf
    # span, folded under one key whatever its parent.
    orig_schedule = kernel.EventKernel.schedule
    stack, totals, clock = tr.stack, tr.totals, perf_counter

    def schedule(k, fire_time, fn, kind="timer", node=-1, detail=""):
        name = KIND_SPANS.get(kind)
        if name is None:
            name = getattr(fn, "__module__", "").rpartition(".")[2] + ".timer"
        handler = span(name, fn)
        start = clock()
        ev = orig_schedule(k, fire_time, handler, kind, node, detail)
        dur = clock() - start
        stack[-1][1] += dur
        tot = totals.get(("*", "kernel.schedule"))
        if tot is None:
            tot = totals[("*", "kernel.schedule")] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur
        return ev

    kernel.EventKernel.schedule = schedule
    kernel.EventKernel.run_until = kept("kernel.run_until", kernel.EventKernel.run_until)

    # network: world life cycle and protocol-initiated transmissions
    World = network.World
    world_init = World.__init__

    def init(world, *args, **kwargs):
        tr.prev_routes.clear()
        world_init(world, *args, **kwargs)

    world_run = World.run

    def run(world):
        summary = world_run(world)
        tr.count("kernel.events", world.kernel.dispatched)
        tr.count("kernel.cancelled", world.kernel.cancelled)
        return summary

    log_transition = World.log_transition

    def transition(world, *args):
        tr.count("cml.transitions")
        return log_transition(world, *args)

    World.__init__ = kept("world.init", init)
    World.setup = kept("world.setup", World.setup)
    World.run = kept("world.run", run)
    World.log_transition = transition
    World.broadcast = span("network.send", World.broadcast)
    World.unicast = span("network.send", World.unicast)

    # mobility
    mobility.MobilityModel.advance = span("mobility.advance", mobility.MobilityModel.advance)
    mobility.neighbor_map = span("mobility.neighbor_map", mobility.neighbor_map)

    # olsr: route computation and MPR selection, with how often each
    # changes the node's previous result
    timed_routes = span("olsr.routes", olsr.shortest_routes)

    def shortest_routes(self_id, one_hop, edges):
        table = timed_routes(self_id, one_hop, edges)
        tr.count("olsr.route_computes")
        if table != tr.prev_routes.get(self_id, {}):
            tr.count("olsr.routes_changed")
        tr.prev_routes[self_id] = table
        return table

    process_hello = olsr.OlsrNode.process_hello

    def hello(node, msg, sender):
        before = node.mpr_set
        process_hello(node, msg, sender)
        if node.mpr_set != before:
            tr.count("olsr.mpr_changed")

    olsr.shortest_routes = shortest_routes
    olsr.select_mprs = span("olsr.mpr", olsr.select_mprs)
    olsr.OlsrNode.process_hello = hello

    # protocol drivers
    for module, cls in ((olsr, olsr.OlsrNode), (aodv, aodv.AodvNode),
                        (dsr, dsr.DsrNode), (cml, cml.CmlNode)):
        layer = module.__name__.rpartition(".")[2]
        for method in ("on_frame", "send_data"):
            setattr(cls, method, span(f"{layer}.{method}", getattr(cls, method)))
    dsr.DsrNode.cached_path = span("dsr.cached_path", dsr.DsrNode.cached_path)

    # security
    security.apply_security = span("security.cost", security.apply_security)
    security.accept_packet = span("security.gate", security.accept_packet)

    # metrics
    summarize = metrics.MetricLog.summarize

    def summarize_counted(log, *args):
        tr.count("metrics.records", len(log.records))
        return summarize(log, *args)

    metrics.MetricLog.summarize = kept("metrics.summarize", summarize_counted)
    metrics.MetricLog.record_delivery = span("metrics.record_delivery",
                                             metrics.MetricLog.record_delivery)

    # runner: per-run artifacts, the cell pool and sweep aggregation
    run_cells = runner.run_cells

    def run_cells_merged(cells, parallel=1):
        start = perf_counter()
        summaries = run_cells(cells, parallel)
        workers = parallel if parallel > 1 and len(cells) > 1 else 1
        tr.count("runner.pool_capacity_s", workers * (perf_counter() - start))
        for s in summaries:
            part = s.__dict__.pop("_perfbench_trace", None)
            if part is not None:
                tr.merge(part, tr.stack[-1][2])
        return summaries

    _ACTIVE = (tr, kept("runner.cell", runner._run_cell), os.getpid())
    runner._run_cell = traced_run_cell
    runner.run_cells = kept("runner.run_cells", run_cells_merged)
    runner.build_world = span("runner.build_world", runner.build_world)
    runner.seed_means = kept("runner.seed_means", runner.seed_means)
    for module, attr in ((metrics, "write_summary_csv"), (metrics, "write_cumulative_csv"),
                         (plotgen, "write_plot_scripts")):
        setattr(module, attr, kept(f"runner.{attr}", getattr(module, attr)))
    for attr in ("run_scenario", "run_sweep"):
        wrapped = kept(f"runner.{attr}", getattr(runner, attr))
        setattr(runner, attr, wrapped)
        setattr(em, attr, wrapped)
    return tr


def layer_metrics(tr, trace_lines, artifact_bytes):
    """Per-layer values of one traced round, keyed by metric name. The two
    that need an untraced round are added by run.py."""
    c = tr.counts.get
    computes = c("olsr.route_computes", 0)
    selects = tr.calls("olsr.mpr")
    cells_s = tr.total_s("runner.run_cells") or tr.total_s("world.run")
    capacity = c("runner.pool_capacity_s", 0.0)
    return {
        "kernel.events": c("kernel.events", 0),
        "kernel.cancelled": c("kernel.cancelled", 0),
        "kernel.schedule_s": tr.self_s("kernel.schedule"),
        "kernel.self_s": tr.self_s("kernel.run_until"),
        "kernel.trace_lines": trace_lines,
        "network.pump_s": tr.self_s("network.pump"),
        "network.tx_end_s": tr.self_s("network.tx_end"),
        "network.rx_s": tr.self_s("network.rx"),
        "network.relay_s": tr.self_s("network.relay"),
        "network.traffic_s": tr.self_s("network.traffic"),
        "network.send_s": tr.self_s("network.send"),
        "network.tx_events": tr.calls("network.tx_end"),
        "network.rx_events": tr.calls("network.rx"),
        "mobility.advance_s": tr.self_s("mobility.advance"),
        "mobility.neighbor_map_s": tr.self_s("mobility.neighbor_map"),
        "mobility.ticks": tr.calls("mobility.tick"),
        "olsr.routes_s": tr.self_s("olsr.routes"),
        "olsr.route_computes": computes,
        "olsr.routes_changed_ratio":
            c("olsr.routes_changed", 0) / computes if computes else 0.0,
        "olsr.mpr_s": tr.self_s("olsr.mpr"),
        "olsr.mpr_selects": selects,
        "olsr.mpr_changed_ratio": c("olsr.mpr_changed", 0) / selects if selects else 0.0,
        "olsr.on_frame_s": tr.self_s("olsr.on_frame"),
        "olsr.send_data_s": tr.self_s("olsr.send_data"),
        "aodv.on_frame_s": tr.self_s("aodv.on_frame"),
        "aodv.send_data_s": tr.self_s("aodv.send_data"),
        "dsr.on_frame_s": tr.self_s("dsr.on_frame"),
        "dsr.send_data_s": tr.self_s("dsr.send_data"),
        "dsr.cached_path_s": tr.self_s("dsr.cached_path"),
        "cml.on_frame_s": tr.self_s("cml.on_frame"),
        "cml.send_data_s": tr.self_s("cml.send_data"),
        "cml.transitions": c("cml.transitions", 0),
        "security.cost_s": tr.self_s("security.cost"),
        "security.cost_calls": tr.calls("security.cost"),
        "security.gate_s": tr.self_s("security.gate"),
        "metrics.summarize_s": tr.self_s("metrics.summarize"),
        "metrics.record_delivery_s": tr.self_s("metrics.record_delivery"),
        "metrics.records": c("metrics.records", 0),
        "runner.artifacts_s": tr.self_s("runner.run_scenario"),
        "runner.artifact_bytes": artifact_bytes,
        "runner.cells_s": cells_s,
        "runner.aggregate_s":
            tr.total_s("runner.run_sweep") - tr.total_s("runner.run_cells"),
        "runner.pool_busy_ratio":
            tr.total_s("runner.cell") / capacity if capacity else 0.0,
    }
