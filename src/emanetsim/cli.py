"""Command-line interface: run one scenario, sweep the comparison grid,
calibrate the size-estimate constant, run attack presets, or run the
acceptance suite."""

import argparse
import sys

from . import acceptance
from .config import (PROTOCOLS, ConfigError, ScenarioConfig, SweepSpec,
                     load_config, parse_sizes)
from .runner import calibrate_k, run_scenario, run_sweep
from .security import ATTACK_NONE, ATTACKS


def add_common(p):
    p.add_argument("--config", help="scenario file (INI)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--trace", action="store_true", help="write the event trace")


def base_config(args):
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(seed=args.seed)
    if getattr(args, "trace", False):
        cfg = cfg.replace(trace=True)
    return cfg.validate()


def seed_range(n):
    if n < 1:
        raise ConfigError(f"seeds: need at least 1, got {n}")
    return tuple(range(1, n + 1))


def cmd_run(args):
    cfg = base_config(args)
    summary, world = run_scenario(cfg, out_dir=args.out)
    print(f"{cfg.protocol}/{cfg.security_mode} N={cfg.n} seed={cfg.seed}: "
          f"delay={summary.avg_delay*1e3:.2f}ms "
          f"jitter={summary.avg_jitter*1e3:.2f}ms "
          f"delivered={summary.data_packets_delivered}/{summary.data_packets_sent} "
          f"load={summary.routing_load_bytes}B shifts={summary.phase_shifts}")
    print(f"artifacts in {args.out}/")
    return 0


def cmd_sweep(args):
    cfg = base_config(args)
    spec = SweepSpec(
        base=cfg,
        sizes=parse_sizes(args.sizes),
        seeds=seed_range(args.seeds),
        protocols=tuple(args.protocols.split(",")),
        security_modes=tuple(args.security.split(",")),
    )
    summaries, means = run_sweep(spec, out_dir=args.out, parallel=args.parallel)
    print(f"{len(summaries)} runs -> {args.out}/summary.csv, means.csv, "
          f"cumulative.csv, plot scripts")
    return 0


def cmd_calibrate(args):
    cfg = base_config(args)
    sizes = parse_sizes(args.sizes)
    k, samples = calibrate_k(sizes=sizes, seeds=seed_range(args.seeds), base=cfg)
    print(f"k = {k:.4f} over {len(samples)} static topologies")
    for n in sizes:
        hs = [h for m, h in samples if m == n]
        if hs:
            print(f"  N={n:2d}: diameters {sorted(hs)}")
    print("set [cml] k in the scenario file to ship a recalibrated value")
    return 0


def cmd_attack(args):
    cfg = base_config(args)
    cfg = cfg.replace(protocol="cml", adversary_behavior=args.behavior,
                      adversary_nodes=tuple(args.nodes or (cfg.n - 1,)),
                      adversary_period=args.period,
                      adversary_target_phase=args.target_phase).validate()
    summary, world = run_scenario(cfg, out_dir=args.out,
                                  run_name=f"attack_{args.behavior}_{cfg.security_mode}")
    triggered = [r for r in world.transitions if r.trigger.endswith(":adv")]
    print(f"attack={args.behavior} security={cfg.security_mode} N={cfg.n}: "
          f"{len(triggered)} adversary-triggered phase shifts, "
          f"{world.metrics.rejected_packets} packets rejected, "
          f"{summary.phase_shifts} confirmed shifts after warmup")
    print(f"transition log in {args.out}/")
    return 0


def cmd_accept(args):
    results = acceptance.run_all(parallel=args.parallel)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="emanetsim",
        description="Deterministic emergency-MANET routing simulator "
                    "(OLSR / AODV / DSR / adaptive CML with IPsec overlay)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="protocol comparison sweep")
    add_common(p)
    p.add_argument("--sizes", default="5:50:5", help="lo:hi[:step] or list")
    p.add_argument("--seeds", type=int, default=5, help="seeds per cell")
    p.add_argument("--protocols", default=",".join(PROTOCOLS))
    p.add_argument("--security", default="none", help="comma-separated modes")
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("calibrate-k", help="fit the size-estimate constant")
    add_common(p)
    p.add_argument("--sizes", default="10:50:5")
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("attack", help="adversary scenario preset")
    add_common(p)
    p.add_argument("--behavior", default="forge-cp",
                   choices=[a for a in ATTACKS if a != ATTACK_NONE])
    p.add_argument("--nodes", type=int, nargs="*", help="adversary node ids")
    p.add_argument("--period", type=float, default=40.0)
    p.add_argument("--target-phase", default="r-phase",
                   choices=["p-phase", "r-phase"])
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--parallel", type=int, default=2)
    p.set_defaults(fn=cmd_accept)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
