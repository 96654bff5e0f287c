import math

import pytest

from emanetsim.config import ScenarioConfig
from emanetsim.kernel import RandomStream
from emanetsim.metrics import (CSV_HEADER, METRICS, MetricLog, RunSummary, _jitter,
                               cumulative_rows, write_summary_csv)
from emanetsim.network import World


def log_with(deliveries, warmup=0.0):
    log = MetricLog(warmup=warmup)
    for flow, seq, s, r in deliveries:
        log.record_delivery(flow, seq, s, r, hops=1, crypto_delay=0.0)
    return log


def test_single_delivery_mean():
    log = log_with([(("f", 0), 0, 1.0, 1.02)])
    s = log.summarize("olsr", "none", 5, 1)
    assert s.avg_delay == pytest.approx(0.02)


def test_two_delivery_mean():
    log = log_with([(("f", 0), 0, 1.0, 1.02), (("f", 0), 1, 2.0, 2.04)])
    assert log.summarize("olsr", "none", 5, 1).avg_delay == pytest.approx(0.03)


def test_drops_counted_by_reason_after_warmup():
    log = MetricLog(warmup=10.0)
    log.note_data_dropped(9.0, "no-route")
    log.note_data_dropped(10.0, "no-route")
    log.note_data_dropped(11.0, "buffer-full")
    log.note_data_dropped(12.0, "no-route")
    assert log.data_dropped == 3
    assert log.drops_by_reason == {"no-route": 2, "buffer-full": 1}


@pytest.mark.parametrize("protocol", ["aodv", "dsr", "cml"])
def test_drops_by_reason_sum_to_data_dropped(protocol):
    cfg = ScenarioConfig(protocol=protocol, n=20, duration=60.0, warmup=10.0,
                         seed=1).validate()
    world = World(cfg)
    world.run()
    log = world.metrics
    assert log.data_dropped > 0 and len(log.drops_by_reason) > 1
    assert sum(log.drops_by_reason.values()) == log.data_dropped


def test_duplicate_delivery_counted_not_recorded():
    log = log_with([(("f", 0), 0, 1.0, 1.02)])
    log.record_delivery(("f", 0), 0, 1.0, 1.05, 2, 0.0)
    assert log.duplicate_deliveries == 1
    assert len(log.records) == 1
    assert log.records[0].delay == pytest.approx(0.02)


def test_delivery_before_send_rejected():
    log = MetricLog()
    with pytest.raises(ValueError):
        log.record_delivery(("f", 0), 0, 2.0, 1.0, 1, 0.0)


def test_jitter_constant_delays_zero():
    log = log_with([(("f", 0), i, float(i), float(i) + 0.01) for i in range(5)])
    assert _jitter(log.records) == pytest.approx(0.0)


def test_jitter_mean_absolute_difference():
    # delays 10, 20, 10 ms -> mean(|10|, |-10|) = 10 ms
    log = log_with([(("f", 0), 0, 0.0, 0.010),
                    (("f", 0), 1, 1.0, 1.020),
                    (("f", 0), 2, 2.0, 2.010)])
    assert _jitter(log.records) == pytest.approx(0.010)


def test_jitter_undefined_below_two():
    log = log_with([(("f", 0), 0, 0.0, 0.01)])
    assert _jitter(log.records) is None
    assert math.isnan(log.summarize("olsr", "none", 5, 1).avg_jitter)


def test_jitter_matches_bruteforce_on_random_records():
    s = RandomStream(9).fork("jit")
    log = MetricLog()
    delays = []
    for i in range(50):
        d = s.uniform(0.001, 0.2)
        delays.append(d)
        log.record_delivery(("f", 0), i, float(i), float(i) + d, 1, 0.0)
    expect = sum(abs(b - a) for a, b in zip(delays, delays[1:])) / (len(delays) - 1)
    assert _jitter(log.records) == pytest.approx(expect)


def test_out_of_order_recording_sorted_by_seq():
    log = log_with([(("f", 0), 2, 2.0, 2.030),
                    (("f", 0), 0, 0.0, 0.010),
                    (("f", 0), 1, 1.0, 1.020)])
    # consecutive-by-sequence differences: |20-10|, |30-20|
    assert _jitter(log.records) == pytest.approx(0.010)


def test_warmup_excludes_early_sends():
    log = MetricLog(warmup=50.0)
    log.note_data_sent(10.0)
    log.note_data_sent(60.0)
    log.record_delivery(("f", 0), 0, 10.0, 10.5, 1, 0.0)   # pre-warmup send
    log.record_delivery(("f", 0), 1, 60.0, 60.5, 1, 0.0)
    log.count_control("hello", 20, now=10.0)
    log.count_control("hello", 20, now=60.0)
    s = log.summarize("olsr", "none", 5, 1)
    assert s.data_packets_sent == 1
    assert s.data_packets_delivered == 1
    assert s.routing_load_packets == 1


def test_control_counters_and_goodput():
    log = log_with([(("f", 0), 0, 0.0, 0.02), (("f", 0), 1, 1.0, 1.02)])
    for _ in range(4):
        log.count_control("tc", 24, now=1.0)
    log.count_control("dsr-sr-header", 12, now=1.0, count_packet=False)
    s = log.summarize("dsr", "none", 5, 1)
    assert s.routing_load_packets == 4
    assert s.routing_load_bytes == 4 * 24 + 12
    assert s.goodput_ratio == pytest.approx(2 / 4)


def test_zero_traffic_run_flags():
    log = MetricLog()
    log.count_control("hello", 20, now=1.0)
    s = log.summarize("olsr", "none", 5, 1)
    assert math.isnan(s.avg_delay)
    assert s.routing_load_packets == 1


def test_summarize_handbuilt_two_flows():
    log = log_with([
        (("a", 0), 0, 0.0, 0.010), (("a", 0), 1, 1.0, 1.030),
        (("b", 0), 0, 0.0, 0.100), (("b", 0), 1, 1.0, 1.100),
    ])
    s = log.summarize("olsr", "none", 4, 2)
    assert s.avg_delay == pytest.approx((0.01 + 0.03 + 0.1 + 0.1) / 4)
    # per-flow jitters: a: |30-10| = 20 ms, b: 0 -> mean 10 ms
    assert s.avg_jitter == pytest.approx(0.010)
    assert s.data_packets_delivered == 4


def test_cumulative_rows_group_and_accumulate():
    rows = [
        {"protocol": "olsr", "security_mode": "none", "N": 5, "avg_delay_s": 1.0,
         "avg_jitter_s": 0.1, "ctl_packets": 10.0, "ctl_bytes": 100.0,
         "goodput_ratio": 2.0},
        {"protocol": "olsr", "security_mode": "none", "N": 10, "avg_delay_s": 2.0,
         "avg_jitter_s": 0.2, "ctl_packets": 20.0, "ctl_bytes": 200.0,
         "goodput_ratio": 1.0},
        # an empty cell: its NaN means add 0, so the sums carry over unchanged
        {"protocol": "olsr", "security_mode": "none", "N": 15,
         "avg_delay_s": math.nan, "avg_jitter_s": math.nan, "ctl_packets": 5.0,
         "ctl_bytes": 50.0, "goodput_ratio": math.nan},
    ]
    out = cumulative_rows(rows)
    assert out[0][:3] == ["olsr", "none", "5"]
    assert float(out[1][3]) == pytest.approx(3.0)
    assert float(out[1][6]) == pytest.approx(300.0)
    assert out[2] == ["olsr", "none", "15", "3.000000000", "0.300000000",
                      "35.000", "350.000", "3.000000000"]


def test_csv_schema_golden(tmp_path):
    header = ",".join(CSV_HEADER)
    assert header == ("protocol,security_mode,N,seed,avg_delay_s,avg_jitter_s,"
                      "ctl_packets,ctl_bytes,data_sent,data_delivered,"
                      "goodput_ratio,phase_shifts")
    log = log_with([(("f", 0), 0, 0.0, 0.25)])
    path = tmp_path / "summary.csv"
    write_summary_csv([log.summarize("cml", "hybrid", 20, 3)], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == header
    fields = lines[1].split(",")
    assert fields[0] == "cml" and fields[1] == "hybrid"
    assert fields[2] == "20" and fields[3] == "3"
    assert float(fields[4]) == pytest.approx(0.25)


def test_summarize_jitter_over_interleaved_out_of_order_flows():
    s = RandomStream(11).fork("flows")
    log = MetricLog()
    flows = [("n", i) for i in range(12)]
    pending = [(f, seq) for f in flows for seq in range(s.randint(0, 9))]
    s.shuffle(pending)  # flows interleave and sequence numbers arrive out of order
    for f, seq in pending:
        send = seq + 0.1 * f[1]
        log.record_delivery(f, seq, send, send + s.uniform(0.001, 0.2), 1, 0.0)
    jitters = [_jitter([r for r in log.records if r.flow_id == f])
               for f in sorted(flows)]
    jitters = [j for j in jitters if j is not None]
    assert 0 < len(jitters) < len(flows)
    # same values summed in the same order: equal to the last bit
    assert log.summarize("olsr", "none", 12, 1).avg_jitter == sum(jitters) / len(jitters)


def test_summarize_jitter_handbuilt_interleaving():
    log = log_with([(("b", 0), 1, 1.0, 1.050), (("a", 0), 2, 2.0, 2.030),
                    (("b", 0), 0, 0.0, 0.010), (("a", 0), 0, 0.0, 0.010),
                    (("c", 0), 0, 0.0, 0.500), (("a", 0), 1, 1.0, 1.020)])
    # a: |20-10|, |30-20| -> 10 ms; b: |50-10| -> 40 ms; c has one delivery
    assert log.summarize("olsr", "none", 3, 1).avg_jitter == pytest.approx(0.025)


def test_run_summary_takes_one_value_per_metric():
    values = [0.5, 0.1, 10, 800, 20, 19, 1.9, 2]
    summary = RunSummary("olsr", "none", 5, 1, *values)
    assert [getattr(summary, attr) for _, attr, _ in METRICS] == values
    for wrong in (values[:-1], values + [3]):
        with pytest.raises(ValueError):
            RunSummary("olsr", "none", 5, 1, *wrong)
