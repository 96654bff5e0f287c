"""Acceptance suite: one callable per criterion, each returning a result the
CLI prints as a pass/fail line and the test module asserts on.

The comparative criteria run the default sweep (network sizes 5..50, five
seeds, 300 simulated seconds); security criteria use two dedicated scenario
families: a crypto-isolation family (static nodes, contention-free channel,
high rate so crypto terms dominate timing), and a contended family where the
goodput effects of the overhead show up. Every run is deterministic, but runs
of one scenario in different security modes are not paired: relay jitter is
the next draw from a node's protocol stream in frame arrival order, and the
security mode moves arrival times, so draws, routes and discovery waits can
diverge between modes. That is why 7b fails at N=20 (see the README).

Every family of runs goes through runner.run_cells, whose cells return the
plain records the criteria read, never a World; a family that several
criteria read is computed once per process and `parallel` value.
"""

import functools
from collections import namedtuple

from . import packets as pk
from . import security as sec
from .cml import confirmed_shift
from .config import PROTOCOLS, ScenarioConfig, SweepSpec
from .network import World
from .olsr import mask, route_to, select_mprs, shortest_routes
from .runner import hop_distances, run_cells, seed_means, static_connected_world

SIZES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
SEEDS = (1, 2, 3, 4, 5)
RUN = dict(duration=300.0, warmup=60.0)


class CriterionResult(namedtuple("CriterionResult", "name passed detail")):
    __slots__ = ()

    def line(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"

    @classmethod
    def of(cls, name, fails, passed_detail):
        """Passed, with passed_detail, when fails is empty; else failed,
        with the fails as the detail."""
        return cls(name, not fails, "; ".join(fails) or passed_detail)


@functools.cache
def comparative_results(parallel=2):
    """Default-scenario sweep over all four protocols."""
    spec = SweepSpec(base=ScenarioConfig(**RUN), sizes=SIZES, seeds=SEEDS,
                     protocols=PROTOCOLS)
    summaries = run_cells(spec.cells(), parallel)
    by_cell = {}  # the seed varies fastest in spec.cells(): groups are in seed order
    for s in summaries:
        by_cell.setdefault((s.protocol, s.network_size), []).append(s)
    means = {(r["protocol"], r["N"]): r for r in seed_means(summaries)}
    return by_cell, means


def crypto_isolation_config(**kw):
    """Static, contention-free scenario where security timing is exact."""
    params = dict(protocol="cml", duration=120.0, warmup=30.0,
                  v_min=0.0, v_max=0.0, ideal_channel=True,
                  bandwidth_bps=50e6, traffic_rate=0.5, rotation_interval=10.0)
    params.update(kw)
    return ScenarioConfig(**params).validate()


def security_means(base, sizes, seeds, parallel=2):
    """CML over base in every security mode: seed means keyed (mode, N)."""
    spec = SweepSpec(base=base, sizes=sizes, seeds=seeds, protocols=("cml",),
                     security_modes=sec.SECURITY_MODES)
    summaries = run_cells(spec.cells(), parallel)
    return {(r["security_mode"], r["N"]): r for r in seed_means(summaries)}


@functools.cache
def security_isolation_results(parallel=2):
    return security_means(crypto_isolation_config(), SIZES, SEEDS, parallel)


# -- criterion 1: delay crossover ------------------------------------------------

def criterion_crossover(parallel=2):
    by_cell, _ = comparative_results(parallel)
    fails = []
    for n in (5, 10, 20, 30, 40, 50):
        fast, slow = ("olsr", "aodv") if n <= 10 else ("aodv", "olsr")
        wins = sum(1 for f, s in zip(by_cell[(fast, n)], by_cell[(slow, n)])
                   if f.avg_delay < s.avg_delay)
        if wins < 4:
            fails.append(f"N={n}: {fast.upper()} faster in {wins}/5")
    return CriterionResult.of("1 delay crossover", fails,
        "OLSR faster at N<=10, AODV faster at N>=20, in >=4/5 seeds per size")


# -- criterion 2: CML delay envelope -----------------------------------------------

def criterion_cml_envelope(parallel=2):
    _, means = comparative_results(parallel)
    fails = []
    for n in SIZES:
        c = means[("cml", n)]["avg_delay_s"]
        o = means[("olsr", n)]["avg_delay_s"]
        a = means[("aodv", n)]["avg_delay_s"]
        d = means[("dsr", n)]["avg_delay_s"]
        if not (c <= 1.10 * min(o, a) and c <= d):
            fails.append(f"N={n}: cml={c*1e3:.1f}ms min={min(o,a)*1e3:.1f}ms")
    return CriterionResult.of("2 CML delay envelope", fails,
        "CML mean delay <= 1.10 x min(OLSR, AODV) and <= DSR at every size")


# -- criterion 3: DSR worst ------------------------------------------------------------

def criterion_dsr_worst(parallel=2):
    _, means = comparative_results(parallel)
    worst = 0
    for n in SIZES:
        d = means[("dsr", n)]["avg_delay_s"]
        if all(d > means[(p, n)]["avg_delay_s"] for p in ("olsr", "aodv", "cml")):
            worst += 1
    loads = {p: means[(p, 50)]["ctl_bytes"] for p in PROTOCOLS}
    load_ok = max(loads, key=loads.get) == "dsr"
    ok = worst >= 7 and load_ok
    return CriterionResult(
        "3 DSR worst", ok,
        f"strictly slowest at {worst}/10 sizes (need >=7); "
        f"load bytes greatest at N=50: {load_ok}")


# -- criterion 4: jitter ordering ----------------------------------------------------------

def criterion_jitter(parallel=2):
    _, means = comparative_results(parallel)
    fails = []
    for n in SIZES:
        o = means[("olsr", n)]["avg_jitter_s"]
        a = means[("aodv", n)]["avg_jitter_s"]
        c = means[("cml", n)]["avg_jitter_s"]
        if n <= 10 and not o <= a:
            fails.append(f"N={n}: olsr>{a*1e3:.1f}ms")
        if n >= 20 and not a <= o:
            fails.append(f"N={n}: aodv>{o*1e3:.1f}ms")
        if not c <= 1.10 * min(o, a):
            fails.append(f"N={n}: cml jitter above envelope")
    return CriterionResult.of("4 jitter ordering", fails,
        "OLSR <= AODV for N<=10, AODV <= OLSR for N>=20, CML within envelope")


# -- criterion 5: routing load ------------------------------------------------------------------

def criterion_routing_load(parallel=2):
    by_cell, means = comparative_results(parallel)
    fails = []
    loads = {p: means[(p, 50)]["ctl_bytes"] for p in PROTOCOLS}
    if min(loads, key=loads.get) != "olsr":
        fails.append(f"OLSR not least at N=50: {loads}")
    for n in SIZES:
        if n == 15:
            continue  # transition region is not a stable size
        stable = "olsr" if n <= 10 else "aodv"
        c = means[("cml", n)]["ctl_bytes"]
        s = means[(stable, n)]["ctl_bytes"]
        if c > 1.15 * s:
            fails.append(f"N={n}: cml load {c/s:.2f}x {stable}")
    for o, c in zip(by_cell[("olsr", 5)], by_cell[("cml", 5)]):
        if o.routing_load_bytes != c.routing_load_bytes:
            fails.append(f"seed {o.seed}: cml@5 {c.routing_load_bytes}B != "
                         f"olsr@5 {o.routing_load_bytes}B")
    return CriterionResult.of("5 routing load", fails,
        "OLSR least at N=50; CML within 15% of stable phase; CML@5 == OLSR@5 exactly")


# -- criterion 6: analytic exactness ---------------------------------------------------------------

def criterion_analytic_exactness():
    t_enc, t_dec = sec.aes_times(450e6)
    checks = [
        abs(t_enc - 13.7e-6) < 0.1e-6,
        abs(t_dec - 24.4e-6) < 0.1e-6,
        t_enc == 6168 / 450e6,
        t_dec == 10992 / 450e6,
        sec.space_overhead(sec.MODE_HYBRID) == 34,
        sec.hmac_time(1, 450e6) == 778 / 450e6,
    ]
    # expected discrepancy: the closed form gives ~1.729us at one block while
    # the reported per-packet figure is 1.68us (~3% apart); the formula wins
    discrepancy = abs(sec.hmac_time(1, 450e6) - 1.68e-6) / 1.68e-6
    checks.append(0.01 < discrepancy < 0.05)
    ok = all(checks)
    return CriterionResult(
        "6 SCML analytic exactness", ok,
        f"aes=({t_enc*1e6:.3f},{t_dec*1e6:.3f})us space(hybrid)=34B "
        f"hmac(1)=778/450e6 s (documented ~{discrepancy*100:.1f}% above the "
        f"reported 1.68us per-packet figure)")


# -- criterion 7: security overhead composition -----------------------------------------------------

def additivity_config(**kw):
    """The 7a/7c scenario: crypto isolation at n=10, seed 3, with a channel
    fast enough that transmitting the security headers takes no measurable
    time."""
    params = dict(n=10, seed=3, bandwidth_bps=1e15)
    params.update(kw)
    return crypto_isolation_config(**params)


def _delivery_cell(cfg):
    """Run cfg as given (no re-seeding, unlike static_connected_world);
    returns its delivery records keyed (flow_id, seq)."""
    world = World(cfg)
    world.run()
    return {(r.flow_id, r.seq): r for r in world.metrics.records}


def mode_records(cfg, parallel=2):
    """cfg run once in each security mode: mode -> its delivery records."""
    cells = [cfg.replace(security_mode=m) for m in sec.SECURITY_MODES]
    return dict(zip(sec.SECURITY_MODES, run_cells(cells, parallel, _delivery_cell)))


@functools.cache
def additivity_runs(parallel=2):
    return mode_records(additivity_config(), parallel)


def criterion_additivity(parallel=2):
    """Per-delivered-packet delay(hybrid) - delay(none) equals the injected
    crypto delays to 1e-12 (transmission of the 34 extra bytes is made
    negligible by the scenario's channel rate)."""
    runs = additivity_runs(parallel)
    common = set(runs[sec.MODE_NONE]) & set(runs[sec.MODE_HYBRID])
    if not common:
        return CriterionResult("7a security additivity", False, "no common deliveries")
    none, hybrid = runs[sec.MODE_NONE], runs[sec.MODE_HYBRID]
    worst = max(abs((hybrid[k].delay - none[k].delay) - hybrid[k].crypto_delay)
                for k in common)
    ok = worst <= 1e-12 and len(common) == len(none)
    return CriterionResult(
        "7a security additivity", ok,
        f"{len(common)} packets, worst |delta - crypto| = {worst:.2e} s")


def criterion_security_ordering(parallel=2):
    """Cumulative mean delay over sizes ordered none < ah-only < esp-only <
    hybrid, and bytes on air none <= esp-only <= hybrid, at every size.

    Per hop esp-only costs a data packet only ~6 us more than ah-only, so
    the ordering needs runs that differ in crypto cost alone; the runs are
    not paired across modes (see the module docstring) and at N=20 their
    routing differences outweigh that margin.
    """
    means = security_isolation_results(parallel)
    order = (sec.MODE_NONE, sec.MODE_AH, sec.MODE_ESP, sec.MODE_HYBRID)
    fails = []
    cum = {m: 0.0 for m in order}
    for n in SIZES:
        for m in order:
            cum[m] += means[(m, n)]["avg_delay_s"]
        for lo, hi in zip(order, order[1:]):
            if not cum[lo] < cum[hi]:
                fails.append(f"N={n}: {lo} !< {hi}")
        bytes_order = [means[(m, n)]["ctl_bytes"] for m in
                       (sec.MODE_NONE, sec.MODE_ESP, sec.MODE_HYBRID)]
        if not bytes_order[0] <= bytes_order[1] <= bytes_order[2]:
            fails.append(f"N={n}: bytes-on-air not monotone")
    return CriterionResult.of("7b security mode ordering", fails[:4],
        "cumulative delay none < ah-only < esp-only < hybrid at every size")


def ah_gap_residuals(cfg, runs):
    """Per-packet AH-on-ESP comparison over cfg's mode_records runs.

    Returns (same_set, rows). same_set is True when every mode delivered the
    same packets. Each row is (hops, residual, expected) for one delivered
    packet, where residual = (d_hybrid - d_esp) - (d_ah - d_none). Both gaps
    are one HMAC pass at the sender and one at the receiver per hop, plus the
    same 24 header bytes on the air, so the residual is the difference in
    HMAC block count: expected = 2 * hops * [hmac(blocks(w + 34)) -
    hmac(blocks(w + 24))] for a data packet of w wire bytes. That is zero
    when both sizes fall in the same 512-bit block count, as at the default
    payload (564 B and 574 B are both 9 blocks).
    """
    keys = set(runs[sec.MODE_NONE])
    same_set = all(set(runs[m]) == keys for m in sec.SECURITY_MODES)
    wire = pk.DATA_HEADER + cfg.traffic_payload

    def hmac(mode):
        return sec.hmac_time(sec.hmac_blocks(wire + sec.space_overhead(mode)),
                             cfg.c_p)

    per_hop = 2 * (hmac(sec.MODE_HYBRID) - hmac(sec.MODE_AH))
    rows = []
    for key in sorted(keys.intersection(*(runs[m] for m in sec.SECURITY_MODES))):
        d = {m: runs[m][key].delay for m in sec.SECURITY_MODES}
        residual = (d[sec.MODE_HYBRID] - d[sec.MODE_ESP]) - \
            (d[sec.MODE_AH] - d[sec.MODE_NONE])
        hops = runs[sec.MODE_NONE][key].hops
        rows.append((hops, residual, per_hop * hops))
    return same_set, rows


def criterion_ah_gap(parallel=2):
    """AH adds the same delay on top of ESP as it adds on its own.

    Under the cost model each gap, hybrid - esp-only and ah-only - none, is
    one HMAC pass per hop at each end plus 24 header bytes on the air; the
    two differ only when the ESP header pushes the HMAC over another 512-bit
    block. On the 7a scenario all four modes must deliver the same packets,
    and each packet's residual must equal that block-count term to 1e-12.
    The per-size mean gaps of the isolation sweep are reported alongside.
    """
    same_set, rows = ah_gap_residuals(additivity_config(), additivity_runs(parallel))
    worst = max((abs(r - e) for _, r, e in rows), default=float("inf"))
    ok = same_set and worst <= 1e-12
    means = security_isolation_results(parallel)
    gaps = []
    for n in SIZES:
        gap_hybrid = means[(sec.MODE_HYBRID, n)]["avg_delay_s"] - \
            means[(sec.MODE_ESP, n)]["avg_delay_s"]
        gap_ah = means[(sec.MODE_AH, n)]["avg_delay_s"] - \
            means[(sec.MODE_NONE, n)]["avg_delay_s"]
        gaps.append(f"{n}:{gap_hybrid*1e6:.3f}/{gap_ah*1e6:.3f}")
    detail = (f"{len(rows)} packets, same delivered set in all modes: {same_set}, "
              f"worst |residual - block term| = {worst:.2e} s; mean gaps "
              f"hybrid-esp/ah-none in us by N: {' '.join(gaps)}")
    return CriterionResult("7c AH gap comparison", ok, detail)


def criterion_goodput(parallel=2):
    """Delivered data against control load in bytes, cumulated over sizes.

    The per-packet count ratio barely moves with the security mode (traffic
    and discovery dynamics are nearly identical), so the Figure-10 analogue
    compares delivered data to control bytes, where every added security
    header shows up directly.
    """
    means = security_means(ScenarioConfig(**RUN), (5, 20, 35, 50), (1, 2, 3),
                           parallel)
    totals = {}
    for mode in sec.SECURITY_MODES:
        data = sum(means[(mode, n)]["data_delivered"] for n in (5, 20, 35, 50))
        ctl = sum(means[(mode, n)]["ctl_bytes"] for n in (5, 20, 35, 50))
        totals[mode] = data / ctl
    ok = all(totals[sec.MODE_NONE] > totals[m] for m in sec.SECURITY_MODES
             if m != sec.MODE_NONE)
    return CriterionResult(
        "7d goodput highest without security", ok,
        "cumulative delivered-data / control-bytes: " +
        ", ".join(f"{m}={totals[m]*1e3:.4f}/KB" for m in sec.SECURITY_MODES))


# -- criterion 8: phase machine -----------------------------------------------------------------------

PHASE_SIZES = (5, 8, 10, 20, 30, 50)

# What the phase-machine and adversary criteria read from one static run:
# each node's stable phase, the network.Transition records, and t_osc.
PhaseRun = namedtuple("PhaseRun", "phases transitions t_osc")


def _phase_cell(cfg):
    world = static_connected_world(cfg)
    world.run()
    return PhaseRun(tuple(node.driver.stable_phase for node in world.nodes),
                    tuple(world.transitions), world.cfg.t_osc)


@functools.cache
def phase_convergence_runs(parallel=2):
    """Static connected networks, light channel load so the phase logic is
    exercised without flood loss: convergence is a protocol property, and the
    contended-regime behavior is covered by the envelope and load criteria.
    Returns [(cfg, PhaseRun)]."""
    cells = [ScenarioConfig(protocol="cml", n=n, seed=seed, x=0, duration=120.0,
                            warmup=30.0, v_min=0.0, v_max=0.0, traffic_rate=0.5,
                            rotation_interval=10.0, bandwidth_bps=1e6).validate()
             for n in PHASE_SIZES for seed in range(1, 11)]
    return list(zip(cells, run_cells(cells, parallel, _phase_cell)))


def criterion_phase_convergence(parallel=2):
    fails = []
    for cfg, run in phase_convergence_runs(parallel):
        want = "p-phase" if cfg.n <= 10 else "r-phase"
        bad = sum(1 for g in run.phases if g != want)
        if bad:
            fails.append(f"N={cfg.n} seed={cfg.seed}: {bad} nodes not {want}")
    return CriterionResult.of("8a phase convergence", fails[:4],
        f"all nodes p-phase iff N <= 10 across sizes {PHASE_SIZES}, 10 seeds each")


@functools.cache
def hysteresis_runs(parallel=2):
    cells = [ScenarioConfig(
        protocol="cml", n=12, seed=seed, x=2, duration=300.0,
        warmup=30.0, v_min=0.0, v_max=0.0, traffic_rate=0.5,
        rotation_interval=10.0, adversary_behavior=sec.ATTACK_OSCILLATE,
        adversary_nodes=(10, 11), adversary_period=20.0).validate()
        for seed in (1, 2, 3)]
    return list(zip(cells, run_cells(cells, parallel, _phase_cell)))


def criterion_hysteresis(parallel=2):
    fails = []
    for cfg, run in hysteresis_runs(parallel):
        shifts = [r for r in run.transitions if confirmed_shift(r)]
        if shifts:
            fails.append(f"seed={cfg.seed}: {len(shifts)} confirmed shifts")
    return CriterionResult.of("8b hysteresis", fails,
        "group of x=2 oscillating around the threshold: zero confirmed shifts in 300 s")


def _rate_limit_violations(run):
    """(node, t, t_next) for each pair of consecutive confirmed shifts of
    one node closer together than run.t_osc."""
    per_node = {}
    out = []
    for r in run.transitions:
        if confirmed_shift(r):
            per_node.setdefault(r.node, []).append(r.t)
    for node, times in per_node.items():
        for a, b in zip(times, times[1:]):
            if b - a < run.t_osc - 1e-9:
                out.append((node, a, b))
    return out


def criterion_rate_limit(parallel=2):
    violations = []
    for _, run in phase_convergence_runs(parallel):
        violations += _rate_limit_violations(run)
    for run in adversary_runs(parallel):
        violations += _rate_limit_violations(run)
    ok = not violations
    return CriterionResult(
        "8c shift rate limit", ok,
        "minimum gap between confirmed shifts >= t_osc in every run"
        if ok else f"{len(violations)} gaps below t_osc")


# -- criterion 9: adversary suite ------------------------------------------------------------------------

def _attack_config(behavior, security, seed=2, n=9, period=40.0, x=2):
    return ScenarioConfig(protocol="cml", n=n, seed=seed, x=x,
                          duration=200.0, warmup=40.0, v_min=0.0, v_max=0.0,
                          traffic_rate=0.5, security_mode=security,
                          adversary_behavior=behavior, adversary_nodes=(n - 1,),
                          adversary_period=period,
                          adversary_target_phase="r-phase").validate()


@functools.cache
def adversary_runs(parallel=2):
    """forge-cp without security and under hybrid: [PhaseRun] in that order."""
    cells = [_attack_config(sec.ATTACK_FORGE_CP, mode) for mode in ("none", "hybrid")]
    return run_cells(cells, parallel, _phase_cell)


def _adversary_shifts(run):
    """Transitions triggered by a change-phase packet an adversary forged."""
    return [r for r in run.transitions if r.trigger.endswith(":adv")]


def _probe_decisions(run):
    """Probe-verdict transitions, without their times."""
    return [r[1:] for r in run.transitions if r.trigger.startswith("probe-")]


def criterion_adversary(parallel=2):
    unsecured_run, secured_run = adversary_runs(parallel)
    fails = []
    plain = _adversary_shifts(unsecured_run)
    if not plain:
        fails.append("forge-cp with no security induced no phase shift")
    secured = _adversary_shifts(secured_run)
    if secured:
        fails.append(f"forge-cp under hybrid induced {len(secured)} shifts")

    # oscillation within tolerance: reuse the hysteresis scenario
    if not criterion_hysteresis(parallel).passed:
        fails.append("oscillate attack within tolerance caused shifts")

    # tampering under SCML leaves probe decisions identical to a clean run
    cells = [_attack_config(behavior, "hybrid", seed=5, n=8)
             for behavior in (sec.ATTACK_NONE, sec.ATTACK_TAMPER_HCREQ)]
    clean, tampered = run_cells(cells, parallel, _phase_cell)
    if _probe_decisions(clean) != _probe_decisions(tampered):
        fails.append("tampered run diverged from clean run under SCML")
    return CriterionResult.of("9 adversary suite", fails, (
        f"forge-cp: {len(plain)} adversary-triggered shifts unsecured, 0 "
        "under SCML; oscillate within tolerance: 0 shifts; tamper under "
        "SCML: probe decisions identical to clean run"))


# -- criterion 10: oracle and determinism suites -----------------------------------------------------------

def criterion_route_oracles():
    from .kernel import RandomStream
    stream = RandomStream(11).fork("acceptance-graphs")
    bad_routes = 0
    bad_cover = 0
    for trial in range(100):
        n = 12 + stream.randrange(9)
        adj = {i: set() for i in range(n)}
        for a in range(n):
            for b in range(a + 1, n):
                if stream.random() < 0.22:
                    adj[a].add(b)
                    adj[b].add(a)
        adj = {i: sorted(adj[i]) for i in adj}
        dist = hop_distances(adj.__getitem__, 0)
        adj_masks = {i: mask(adj[i]) for i in adj}
        routes = shortest_routes(0, adj[0], adj_masks)
        for dest, d in dist.items():
            if dest and routes.get(dest, (None, -1))[1] != d:
                bad_routes += 1
        # the per-destination lookup the simulator uses gives the same entry,
        # so its hops are the BFS distance and its next hop the table's
        for dest in range(1, n):
            if route_to(0, adj_masks[0], adj_masks, dest) != routes.get(dest):
                bad_routes += 1
        one = set(adj[0])
        two_map = {v: set(adj[v]) - {0} for v in one}
        strict_two = set().union(*two_map.values()) - one if two_map else set()
        mprs = select_mprs(one, {v: mask(two_map[v]) for v in one})
        covered = set().union(*(two_map[m] for m in mprs)) if mprs else set()
        if not strict_two <= covered:
            bad_cover += 1
    ok = bad_routes == 0 and bad_cover == 0
    return CriterionResult(
        "10a OLSR route/MPR oracles", ok,
        f"100 seeded graphs: {bad_routes} route mismatches, "
        f"{bad_cover} uncovered two-hop sets")


def _aodv_oracle_cell(cfg):
    """Discover a route from node 0 to each other node of one static connected
    graph in turn; returns (discoveries, hop-count mismatches vs BFS)."""
    world = static_connected_world(cfg)
    world.setup()
    dist = hop_distances(world.neighbors, 0)
    mismatches = 0
    for i, dst in enumerate(sorted(dist)[1:]):
        msg = pk.DataMsg(flow_id=(i, 0), seq=0, dst=dst,
                         payload=32, send_time=world.kernel.now)
        world.nodes[0].driver.send_data(msg)
        world.kernel.run_until(world.kernel.now + 3.0)
        route = world.nodes[0].driver.valid_route(dst)
        if route is None or route.hops != dist[dst]:
            mismatches += 1
    return len(dist) - 1, mismatches


def criterion_aodv_oracle(parallel=2):
    base = ScenarioConfig(protocol="aodv", duration=60.0, warmup=0.0,
                          traffic_rate=0.0, ideal_channel=True,
                          broadcast_jitter=0.0)
    cells = [base.replace(n=n, seed=seed) for seed in SEEDS for n in (10, 16, 22)]
    results = run_cells(cells, parallel, _aodv_oracle_cell)
    discoveries, mismatches = map(sum, zip(*results))
    return CriterionResult(
        "10b AODV discovery oracle", mismatches == 0,
        f"{discoveries} discoveries on static connected graphs, "
        f"{mismatches} hop-count mismatches vs BFS")


def _determinism_cell(cfg):
    world = World(cfg)
    summary = world.run()
    return summary.csv_row(), tuple(world.transitions)


def criterion_determinism(parallel=2):
    cfg = ScenarioConfig(protocol="cml", n=20, seed=9, duration=90.0,
                         warmup=20.0).validate()
    first, second = run_cells([cfg, cfg], parallel, _determinism_cell)
    ok = first == second
    return CriterionResult(
        "10c determinism", ok,
        "two executions produce byte-identical summary.csv and transitions.log"
        if ok else "outputs differ between identical runs")


ALL_CRITERIA = [
    ("1", criterion_crossover),
    ("2", criterion_cml_envelope),
    ("3", criterion_dsr_worst),
    ("4", criterion_jitter),
    ("5", criterion_routing_load),
    ("6", lambda parallel=2: criterion_analytic_exactness()),
    ("7a", criterion_additivity),
    ("7b", criterion_security_ordering),
    ("7c", criterion_ah_gap),
    ("7d", criterion_goodput),
    ("8a", criterion_phase_convergence),
    ("8b", criterion_hysteresis),
    ("8c", criterion_rate_limit),
    ("9", criterion_adversary),
    ("10a", lambda parallel=2: criterion_route_oracles()),
    ("10b", criterion_aodv_oracle),
    ("10c", criterion_determinism),
]


def run_all(parallel=2, report=print):
    results = []
    for _, fn in ALL_CRITERIA:
        result = fn(parallel=parallel)
        results.append(result)
        report(result.line())
    return results
