"""The benchmark's workloads: which scenario cells each one runs.

An operation is one scenario run (a cell). The scenario seeds are fixed: the
simulated work differs up to twofold between scenario seeds (CML hybrid at
N=50 dispatched 0.56M to 1.14M events over seeds 1 to 5), so a run-seeded
scenario would measure the seed rather than the code. The run's --seed sets
the order in which isolation-modes runs its four security modes. The sweep
keeps the program's own cell order: which cells share a pool worker moves
that worker's peak memory by up to 15%.
"""

import os
import random

WORKLOADS = ("olsr-n50", "cml-n50-hybrid-trace", "isolation-modes", "sweep-grid")

SCENARIO_SEED = 1
SECURITY_MODES = ("none", "ah-only", "esp-only", "hybrid")
PROTOCOLS = ("olsr", "aodv", "dsr", "cml")
SWEEP_SIZES = (10, 30)


def shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return tuple(items)


def pool_size():
    """Workers for the sweep: two, or fewer when fewer cores are usable."""
    return min(2, len(os.sched_getaffinity(0)))


def cells_of(em, name, seed):
    """(cells, sweep spec or None) for workload name; em is the package."""
    config = em.ScenarioConfig
    if name == "olsr-n50":
        cells = [config(protocol="olsr", n=50, seed=SCENARIO_SEED)]
    elif name == "cml-n50-hybrid-trace":
        cells = [config(protocol="cml", security_mode="hybrid", n=50,
                        seed=SCENARIO_SEED, trace=True)]
    elif name == "isolation-modes":
        # the crypto-isolation family of acceptance criterion 7: static
        # nodes on the ideal channel at 50 Mb/s, so only the contention-free
        # transmit path runs
        cells = [config(protocol="cml", security_mode=mode, n=50, seed=SCENARIO_SEED,
                        duration=120.0, warmup=30.0, v_min=0.0, v_max=0.0,
                        ideal_channel=True, bandwidth_bps=50e6, traffic_rate=0.5,
                        rotation_interval=10.0)
                 for mode in shuffled(SECURITY_MODES, seed)]
    elif name == "sweep-grid":
        spec = em.SweepSpec(base=config(), sizes=SWEEP_SIZES, seeds=(SCENARIO_SEED,),
                            protocols=PROTOCOLS)
        return spec.cells(), spec
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [c.validate() for c in cells], None
