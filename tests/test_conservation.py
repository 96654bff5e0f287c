"""Conservation of DATA: every packet sent at or after warmup is delivered,
dropped, or still in flight when the run ends. A gap is a silent loss."""

import pytest

from emanetsim import packets as pk
from emanetsim.config import PROTOCOLS, ScenarioConfig
from emanetsim.network import World

OSCILLATE = dict(adversary_behavior="oscillate", adversary_nodes=(3, 4, 5),
                 adversary_period=7.0)


def in_flight(world):
    """DATA sent at or after warmup that a finished run still holds: in MAC
    queues, in discovery buffers (CML's in its AODV engine) and in pending
    rx events."""
    msgs = []
    for node in world.nodes:
        msgs += [q.frame.msg for q in node.queue if q.frame.kind == pk.DATA]
        engine = getattr(node.driver, "aodv", node.driver)
        discovery = getattr(engine, "discovery", None)  # OLSR buffers nothing
        if discovery is not None:
            msgs += [m for req in discovery.pending.values() for m in req.packets]
    for entry in world.kernel._queue:
        fn, kind = entry[2], entry[4]
        if fn is not None and kind == "rx" and fn.args[1].kind == pk.DATA:
            msgs.append(fn.args[1].msg)
    return sum(m.send_time >= world.cfg.warmup for m in msgs)


def cells():
    for protocol in PROTOCOLS:
        for ideal in (False, True):
            for attack in ({}, OSCILLATE):
                yield pytest.param(
                    protocol, dict(ideal_channel=ideal, **attack),
                    id=f"{protocol}-{'ideal' if ideal else 'contended'}"
                       f"-{'oscillate' if attack else 'no-attack'}")
        yield pytest.param(protocol, dict(security_mode="hybrid", warmup=40.0),
                           id=f"{protocol}-hybrid-warmup40")


@pytest.mark.parametrize("protocol,overrides", cells())
def test_sent_equals_delivered_dropped_and_in_flight(protocol, overrides):
    params = dict(protocol=protocol, n=20, duration=120.0, warmup=0.0, seed=1)
    params.update(overrides)
    world = World(ScenarioConfig(**params).validate())
    world.run()
    m = world.metrics
    assert m.data_sent > 0 and m.records
    assert m.data_sent == len(m.records) + m.data_dropped + in_flight(world)
