import os

import pytest

from emanetsim.config import ScenarioConfig, SweepSpec
from emanetsim.metrics import CSV_HEADER
from emanetsim.network import World
from emanetsim.runner import (calibrate_k, graph_diameter, run_cells,
                              run_scenario, run_sweep, seed_means,
                              static_connected_world)


def small_cfg(**kw):
    params = dict(protocol="olsr", n=6, duration=30.0, warmup=10.0, seed=3,
                  traffic_rate=1.0)
    params.update(kw)
    return ScenarioConfig(**params).validate()


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = small_cfg(protocol="cml", trace=True)
    summary, world = run_scenario(cfg, out_dir=str(tmp_path))
    run_dir = tmp_path / "cml_none_n6_s3"
    assert (run_dir / "transitions.log").exists()
    assert (run_dir / "manifest.ini").exists()
    assert (run_dir / "trace.log").exists()
    csv_text = (tmp_path / "summary.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)
    assert len(csv_text.splitlines()) == 2
    assert "protocol = cml" in (run_dir / "manifest.ini").read_text()


def test_streamed_trace_matches_world_trace(tmp_path):
    cfg = small_cfg(protocol="cml", n=8, trace=True)
    lines = []
    World(cfg, trace=lines.append).run()
    summary, world = run_scenario(cfg, out_dir=str(tmp_path), run_name="run")
    text = (tmp_path / "run" / "trace.log").read_text()
    assert text == "".join(lines)
    assert text.count("\n") == world.kernel.dispatched


def test_run_without_out_dir_formats_no_trace():
    summary, world = run_scenario(small_cfg(trace=True))
    assert world.kernel.trace is None
    assert world.kernel.dispatched > 0


def test_run_that_raises_leaves_partial_trace(tmp_path, monkeypatch):
    cfg = small_cfg(protocol="cml", n=8, trace=True)
    lines = []
    World(cfg, trace=lines.append).run()
    receive = World._receive
    calls = []

    def failing_receive(world, *args):
        calls.append(1)
        if len(calls) == 50:
            raise RuntimeError("handler failed")
        return receive(world, *args)

    monkeypatch.setattr(World, "_receive", failing_receive)
    with pytest.raises(RuntimeError, match="handler failed"):
        run_scenario(cfg, out_dir=str(tmp_path), run_name="run")
    partial = (tmp_path / "run" / "trace.log").read_text().splitlines(keepends=True)
    assert 0 < len(partial) < len(lines)
    assert partial == lines[:len(partial)]
    assert partial[-1].split("\t")[2] == "rx"


def test_same_config_twice_identical_outputs(tmp_path):
    cfg = small_cfg(protocol="cml", n=12)
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        run_scenario(cfg, out_dir=str(d))
        outs.append(((d / "summary.csv").read_text(),
                     (d / "cml_none_n12_s3" / "transitions.log").read_text()))
    assert outs[0] == outs[1]


def test_parallel_sweep_matches_serial():
    spec = SweepSpec(base=small_cfg(), sizes=(5, 8), seeds=(1, 2),
                     protocols=("olsr", "aodv"))
    cells = spec.cells()
    serial = [s.csv_row() for s in run_cells(cells, parallel=1)]
    parallel = [s.csv_row() for s in run_cells(cells, parallel=2)]
    assert serial == parallel


def hop_counts(cfg):
    """A cell function other than the default: plain per-run data."""
    world = World(cfg)
    world.run()
    return cfg.protocol, cfg.n, cfg.seed, [r.hops for r in world.metrics.records]


def test_run_cells_with_cell_function_parallel_matches_serial():
    spec = SweepSpec(base=small_cfg(), sizes=(5, 8), seeds=(1, 2),
                     protocols=("olsr", "aodv"))
    cells = spec.cells()
    serial = run_cells(cells, 1, hop_counts)
    assert [r[:3] for r in serial] == [(c.protocol, c.n, c.seed) for c in cells]
    assert any(r[3] for r in serial)
    assert run_cells(cells, 2, hop_counts) == serial


def test_run_sweep_artifacts(tmp_path):
    spec = SweepSpec(base=small_cfg(), sizes=(5, 8), seeds=(1,),
                     protocols=("olsr",))
    summaries, means = run_sweep(spec, out_dir=str(tmp_path), parallel=1)
    assert len(summaries) == 2
    assert len(means) == 2
    for name in ("summary.csv", "means.csv", "cumulative.csv", "manifest.ini"):
        assert (tmp_path / name).exists()
    plots = [p for p in os.listdir(tmp_path) if p.startswith("plot_")]
    assert len(plots) >= 5


def test_seed_means_nan_aware():
    spec = SweepSpec(base=small_cfg(traffic_rate=0.0), sizes=(5,), seeds=(1, 2),
                     protocols=("olsr",))
    summaries = run_cells(spec.cells())
    rows = seed_means(summaries)
    assert rows[0]["avg_delay_s"] != rows[0]["avg_delay_s"]  # NaN: no traffic
    assert rows[0]["ctl_bytes"] > 0


def test_static_connected_world_is_connected():
    cfg = small_cfg(n=20, traffic_rate=0.0)
    world = static_connected_world(cfg)
    assert world.connected()
    assert graph_diameter(world) >= 1


def test_calibrate_k_reasonable():
    k, samples = calibrate_k(sizes=(10, 20, 30), seeds=(1, 2), base=ScenarioConfig())
    assert 0.05 < k < 3.0
    assert len(samples) == 6
    for n, h in samples:
        assert h >= 1


def test_calibrated_estimates_track_true_size():
    # offline regression oracle: N ~ k * h^2 over static uniform topologies.
    # Sparse random placements spread the diameter at fixed N, so the square
    # law holds in the middle of the distribution rather than sample by
    # sample: the median estimate factor stays within 2x.
    import statistics
    from emanetsim.aodv import estimate_size_from_hops
    k, samples = calibrate_k(sizes=(10, 20, 30, 40, 50), seeds=(1, 2, 3),
                             base=ScenarioConfig())
    assert 0.1 < k < 1.0
    factors = []
    for n, h in samples:
        est = max(1, estimate_size_from_hops(h, k))
        factors.append(max(est / n, n / est))
    assert statistics.median(factors) <= 2.0
    assert sum(1 for f in factors if f <= 2.0) >= 0.55 * len(factors)


def test_warmup_exclusion_in_summown(tmp_path):
    cfg = small_cfg(warmup=25.0, duration=30.0)
    summary, world = run_scenario(cfg)
    for rec in world.metrics.records:
        assert rec.send_time >= 25.0
