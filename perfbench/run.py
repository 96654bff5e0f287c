"""Benchmark of the emanetsim simulator's host time, set-up time and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, one fresh process per round (see
one_round.py), for about S seconds, and prints the metrics as lines of text
and then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs every workload in turn, S seconds each, and ends with
one JSON object that maps each workload to its result.

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb, each the
median over the rounds. With --trace 1 untraced and traced rounds alternate,
and the metrics are the per-layer values of layers.PER_LAYER, medians over
the traced rounds, with the tracing overhead. `correct` is false when two
rounds of the same code and seed wrote outputs that are not byte-identical.

Everything is written under perfbench/results/ of the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Each run must end within 180 s; a round still going at this mark is killed.
HARD_LIMIT_S = 170.0


def source_digest():
    """sha256 over the package's files, naming the code under test."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "emanetsim")
    for dirpath, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_round(workload, seed, traced, index, deadline):
    """One round in a child process; returns its result dict."""
    tag = f"{workload}-s{seed}-{os.getpid()}-{index}"
    out_dir = os.path.join(RESULTS, "work", tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "one_round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", out_dir]
    if traced:
        cmd += ["--spans", os.path.join(RESULTS, f"spans-{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round {index} of {workload} passed the time limit")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round {index} of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_digests(rounds, store):
    """Messages for outputs that differ between rounds, or from the digests
    an earlier run recorded in the file store, which is written when absent."""
    first = rounds[0]["digests"]
    out = [f"round {i} outputs differ from round 0"
           for i, r in enumerate(rounds) if r["digests"] != first]
    if os.path.exists(store):
        with open(store) as fh:
            if json.load(fh) != first:
                out.append(f"outputs differ from an earlier run recorded in {store}")
    elif not out:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w") as fh:
            json.dump(first, fh, indent=1)
    return out


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def bench(workload, seed, seconds, trace):
    """Rounds of one workload for about `seconds`; prints its metrics and
    returns the result object."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # a traced run alternates untraced and traced rounds, swapping which
    # goes first from one pair to the next
    unit = [False, True] if trace else [False]
    rounds = []
    while True:
        unit_start = time.monotonic()
        for traced in unit:
            r = run_round(workload, seed, traced, len(rounds), deadline)
            r["traced"] = traced
            rounds.append(r)
            for v in r["violations"]:
                print(f"violation: {v}")
        now = time.monotonic()
        if now - start + (now - unit_start) > seconds:
            break
        unit = unit[::-1]

    # runs of the same code and seed in this checkout share a digest record
    problems = check_digests(rounds, os.path.join(RESULTS, "digests", source_digest()[:16],
                                                  f"{workload}-seed{seed}.json"))
    for p in problems:
        print(f"determinism: {p}")
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    if not trace:
        for name, unit_name in END_TO_END:
            metrics[name] = {"value": median_of(plain, name), "unit": unit_name}
    else:
        traced = [r for r in rounds if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        wall = median_of(plain, "wall_s")
        values["kernel.events_per_s"] = values["kernel.events"] / wall
        values["trace.overhead_s"] = median_of(traced, "wall_s") - wall
        for name, unit_name, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit_name}

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "rounds": rounds, "result": result}, fh, indent=1)

    print(f"{workload} seed {seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for path, digest in rounds[0]["digests"].items():
        if os.path.basename(path) in ("summary.csv", "transitions.log", "trace.log"):
            print(f"  sha256 {path} {digest}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emanetsim", "__init__.py")):
        print(f"no emanetsim package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: bench(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
