import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emanetsim.config import (_KEYS, PROTOCOLS, ConfigError, ScenarioConfig,
                              SweepSpec, dump_config, parse_config, parse_sizes)
from emanetsim.network import World
from emanetsim.runner import run_scenario
from emanetsim.security import ATTACKS, SECURITY_MODES


def test_defaults_validate():
    cfg = ScenarioConfig().validate()
    assert cfg.protocol == "cml"
    assert cfg.nst == 10
    assert cfg.n >= 2


def test_minimal_file_fills_defaults():
    cfg = parse_config("[scenario]\nprotocol = olsr\nnodes = 12\n")
    assert cfg.protocol == "olsr"
    assert cfg.n == 12
    assert cfg.hello_interval == 2.0
    assert cfg.tc_interval == 5.0


def test_auto_area_scales_with_sqrt_n():
    cfg = ScenarioConfig(n=25).validate()
    area = cfg.build_area()
    assert area.width == pytest.approx(cfg.area_scale * 5.0)


def test_explicit_area_respected():
    cfg = parse_config("[area]\nwidth = 800\nheight = 600\n")
    area = cfg.build_area()
    assert (area.width, area.height) == (800.0, 600.0)


def test_obstacle_parsing():
    cfg = parse_config("[area]\nwidth = 100\nheight = 100\n"
                       "obstacles = 10,10,20,20; 50,50,10,10\n")
    assert cfg.obstacles == ((10.0, 10.0, 20.0, 20.0), (50.0, 50.0, 10.0, 10.0))


@pytest.mark.parametrize("text,needle", [
    ("[scenario]\nnodes = 1\n", "nodes"),
    ("[scenario]\nduration = 10\nwarmup = 20\n", "duration"),
    ("[cml]\nx = 10\n", "x"),          # x >= nst
    ("[cml]\nnst = 0\n", "nst"),
    ("[cml]\nk = 0\n", "k"),
    ("[cml]\nk = 1e308\n", "k"),     # k * h^2 overflows the size estimate
    ("[cml]\nk = 1e-320\n", "k"),    # (nst - x) / k overflows the probe ttl
    ("[radio]\nradius = 0\n", "radius"),
    ("[mobility]\nv_min = 5\nv_max = 2\n", "v_min"),
    ("[scenario]\nprotocol = ospf\n", "protocol"),
    ("[scenario]\nsecurity = tunnel\n", "security"),
    ("[area]\nwidth = 100\nheight = 100\nobstacles = -5,0,10,10\n", "obstacles"),
    ("[olsr]\nhello_interval = 0\n", "hello_interval"),
    ("[olsr]\ntc_interval = 0\n", "tc_interval"),
    ("[adversary]\nperiod = 0\n", "period"),
    ("[adversary]\ntarget_phase = bogus\n", "target_phase"),
    ("[radio]\ncw_min = 0\n", "cw_min"),
    ("[traffic]\nstart = -1\n", "start"),
    ("[radio]\nslot = -0.01\n", "slot"),
    ("[radio]\ndifs = -1\n", "difs"),
    ("[radio]\nbroadcast_jitter = -1\n", "broadcast_jitter"),
    ("[radio]\nhcreq_jitter = -1\n", "hcreq_jitter"),
    ("[radio]\nmac_overhead = -100\n", "mac_overhead"),
    ("[aodv]\nnode_traversal_time = -1\n", "node_traversal_time"),
    ("[aodv]\nnet_diameter = -1\n", "net_diameter"),
    ("[aodv]\nseen_lifetime = -1\n", "seen_lifetime"),
    ("[aodv]\nroute_lifetime = -1\n", "route_lifetime"),
    ("[dsr]\ncache_lifetime = 0\n", "cache_lifetime"),
    ("[dsr]\ncache_paths = -1\n", "cache_paths"),
    ("[area]\nscale = 0\n", "scale"),
    ("[area]\nwidth = -100\n", "width"),
    ("[area]\nheight = -100\n", "height"),
    ("[radio]\nideal_channel = maybe\n", "ideal_channel"),
    ("[area]\nobstacles = 1,2,3\n", "obstacles"),
    ("[traffic]\nrotation = -5\n", "rotation"),
    ("[radio]\nretry_limit = -1\n", "retry_limit"),
    ("[aodv]\nrreq_retries = -3\n", "rreq_retries"),
    ("[aodv]\nbuffer_cap = -2\n", "buffer_cap"),
    ("[aodv]\nbuffer_hold = -1\n", "buffer_hold"),
    ("[scenario]\nprotocol = olsr\n[adversary]\nbehavior = forge-cp\n", "behavior"),
    ("[scenario]\nprotocol = aodv\n[adversary]\nbehavior = tamper-hcreq\n",
     "behavior"),
    ("[scenario]\nprotocol = dsr\n[adversary]\nbehavior = drop-cp\n", "behavior"),
    ("[adversary]\nbehavior = forge-cp\n", "adversary.nodes"),
    ("[adversary]\nbehavior = oscillate\nnodes = 3,3\n", "adversary.nodes"),
    ("[area]\nwidth = inf\n", "width"),
    ("[traffic]\nrate = inf\n", "rate"),
    ("[scenario]\nduration = inf\n", "duration"),
    ("[radio]\nbandwidth = inf\n", "bandwidth"),
    ("[adversary]\nperiod = inf\n", "period"),
    ("[mobility]\ntick = 1e-300\n", "tick"),    # periods of at least 1 ms
    ("[olsr]\nhello_interval = 0.0009\n", "hello_interval"),
    ("[olsr]\ntc_interval = 1e-300\n", "tc_interval"),
    ("[adversary]\nperiod = 0.0009\n", "period"),
    ("[traffic]\nrate = 1e300\n", "rate"),
    ("[traffic]\nrate = 1000.5\n", "rate"),
    ("[traffic]\nrotation = 0.0009\n", "rotation"),
    ("[traffic]\npattern = fixed-pairs\n", "pattern"),   # removed key
    ("nodes = 5\n", "section headers"),
])
def test_validation_errors_name_the_key(text, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


def test_smallest_periods_accepted():
    cfg = parse_config("[mobility]\ntick = 0.001\n[traffic]\nrate = 1000\n"
                       "rotation = 0.001\n[olsr]\nhello_interval = 0.001\n"
                       "tc_interval = 0.001\n[adversary]\nperiod = 0.001\n")
    assert (cfg.mobility_tick, cfg.traffic_rate, cfg.rotation_interval) == \
        (0.001, 1000.0, 0.001)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[scenario]\nbogus = 1\n")
    assert "bogus" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[quantum]\nfoo = 1\n")
    assert "quantum" in str(err.value)


def test_adversary_parsing():
    cfg = parse_config("[adversary]\nbehavior = forge-cp\nnodes = 3,4\n"
                       "period = 15\ntarget_phase = r-phase\n")
    assert cfg.adversary_behavior == "forge-cp"
    assert cfg.adversary_nodes == (3, 4)
    assert cfg.adversary_period == 15.0


def test_adversary_node_ids_bounded():
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nnodes = 5\n[adversary]\n"
                     "behavior = drop-cp\nnodes = 9\n")


def test_manifest_round_trip():
    cfg = ScenarioConfig(protocol="dsr", n=17, seed=9, k=0.8,
                         obstacles=((1.0, 2.0, 3.0, 4.0),)).validate()
    text = dump_config(cfg)
    back = parse_config(text)
    assert back == cfg


def _changed(value):
    """A value of value's type that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return value + (value[0] if value else 0,)
    return value + ("-" if isinstance(value, str) else 1)


@pytest.mark.parametrize("attr", [
    pytest.param(attr, id=f"adversary.{key}" if section == "adversary" else attr)
    for section, key, attr, *_ in _KEYS])
def test_configs_differing_in_one_key_compare_unequal(attr):
    other = ScenarioConfig(**{attr: _changed(getattr(ScenarioConfig(), attr))})
    assert ScenarioConfig() == ScenarioConfig()
    assert other != ScenarioConfig()


def test_each_config_gets_its_own_adversary_role():
    cfg = ScenarioConfig()
    other = cfg.replace(adversary_behavior="oscillate")
    other.adversary_nodes = (1,)
    assert (cfg.adversary_behavior, cfg.adversary_nodes) == ("none", ())
    assert other == ScenarioConfig(adversary_behavior="oscillate",
                                  adversary_nodes=(1,))


def test_unknown_field_names_raise_type_error():
    with pytest.raises(TypeError):
        ScenarioConfig(bogus=1)
    with pytest.raises(TypeError):
        ScenarioConfig().replace(bogus=1)


def test_parse_sizes_forms():
    assert parse_sizes("5:50:5") == tuple(range(5, 51, 5))
    assert parse_sizes("5:20") == (5, 10, 15, 20)
    assert parse_sizes("4,8,15") == (4, 8, 15)
    with pytest.raises(ConfigError):
        parse_sizes("10:5")
    with pytest.raises(ConfigError):
        parse_sizes("1:2:3:4")
    for spec in ("5,x", "5:a"):
        with pytest.raises(ConfigError, match="sizes"):
            parse_sizes(spec)


def test_sweep_enumeration_deterministic_order():
    spec = SweepSpec(sizes=(5, 10), seeds=(1, 2), protocols=("olsr", "aodv"),
                     security_modes=("none",))
    cells = spec.cells()
    key = [(c.protocol, c.security_mode, c.n, c.seed) for c in cells]
    assert key == [("olsr", "none", 5, 1), ("olsr", "none", 5, 2),
                   ("olsr", "none", 10, 1), ("olsr", "none", 10, 2),
                   ("aodv", "none", 5, 1), ("aodv", "none", 5, 2),
                   ("aodv", "none", 10, 1), ("aodv", "none", 10, 2)]
    assert key == [(c.protocol, c.security_mode, c.n, c.seed)
                   for c in spec.cells()]


def _rejected(parser, bound):
    """Values of one _KEYS row that validate() must reject: outside a tuple
    bound, on the wrong side of a comparison (the limit itself when it is
    strict, just past it, a negative), and any non-finite float."""
    if isinstance(bound, tuple):
        return st.text(string.ascii_lowercase + string.digits + "-",
                       min_size=1).filter(lambda v: v not in bound)
    nonfinite = st.sampled_from([math.inf, -math.inf, math.nan])
    if bound is None:
        return nonfinite
    op, limit = bound.split()
    if parser is int:
        return st.integers(-10**6, int(limit) - (op == ">="))
    edge = [math.nextafter(float(limit), -math.inf), -1.0]
    if op == ">":
        edge.append(float(limit))
    return st.one_of(nonfinite, st.sampled_from(edge),
                     st.floats(max_value=float(limit), exclude_max=op == ">=",
                               allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("section,key,parser,bound", [
    pytest.param(section, key, parser, bound, id=f"{section}.{key}")
    for section, key, _, _, parser, bound in _KEYS
    if bound is not None or parser is float])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_out_of_bound_values_are_rejected_by_key(section, key, parser, bound,
                                                 data):
    value = data.draw(_rejected(parser, bound))
    name = f"adversary.{key}" if section == "adversary" else key
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = {value}\n")
    assert str(err.value).startswith(f"{name}: ")


@pytest.mark.parametrize("value", [10**400, -10**400])
@pytest.mark.parametrize("section,key", [
    pytest.param(section, key, id=f"{section}.{key}")
    for section, key, _, _, parser, _ in _KEYS if parser is int])
def test_ints_too_large_for_a_float_are_rejected_by_key(section, key, value):
    """The run turns int keys into floats (mac_overhead into airtime, nodes
    into CML's size estimate), so an int no float can hold is rejected."""
    name = f"adversary.{key}" if section == "adversary" else key
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = {value}\n")
    assert str(err.value).startswith(f"{name}: ")


@st.composite
def _ordinary_configs(draw):
    """Valid configs on 2-8 nodes and at most 20 simulated seconds, with
    ordinary periods and rates."""
    n = draw(st.integers(2, 8))
    duration = draw(st.floats(2.0, 20.0))
    behavior = draw(st.sampled_from(ATTACKS))
    protocol = draw(st.sampled_from(
        PROTOCOLS if behavior in ("none", "oscillate") else ("cml",)))
    nodes = () if behavior == "none" else tuple(draw(st.lists(
        st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    v_max = draw(st.floats(0.0, 5.0))
    return ScenarioConfig(
        protocol=protocol, security_mode=draw(st.sampled_from(SECURITY_MODES)),
        n=n, duration=duration, warmup=draw(st.floats(0.0, duration / 2)),
        seed=draw(st.integers(0, 2**31)), area_scale=draw(st.floats(50.0, 300.0)),
        ideal_channel=draw(st.booleans()), v_min=draw(st.floats(0.0, v_max)),
        v_max=v_max, traffic_rate=draw(st.floats(0.0, 3.0)),
        traffic_start=draw(st.floats(0.0, 5.0)), k=draw(st.floats(0.1, 2.0)),
        mobility_tick=draw(st.floats(0.1, 1.0)),
        hello_interval=draw(st.floats(0.5, 5.0)),
        adversary_behavior=behavior, adversary_nodes=nodes,
        adversary_period=draw(st.floats(1.0, 20.0)),
        adversary_target_phase=draw(st.sampled_from(("p-phase", "r-phase")))
    ).validate()


@settings(max_examples=40, deadline=None)
@given(cfg=_ordinary_configs())
def test_valid_configs_round_trip_and_rerun_identically(cfg):
    assert parse_config(dump_config(cfg)) == cfg
    first, world = run_scenario(cfg)
    again, world_again = run_scenario(cfg)
    assert first.csv_row() == again.csv_row()
    assert world.transitions == world_again.transitions


# Events a 5-node, 5 s run may dispatch at the accepted edge of one key.
EDGE_EVENT_BUDGET = 400_000


def _accepted_edge(parser, bound):
    """The value nearest a comparison bound that the bound accepts: the limit
    itself when inclusive, the next int or float above it when strict."""
    op, limit = bound.split()
    if parser is int:
        return int(limit) + (op == ">")
    return float(limit) if op == ">=" else math.nextafter(float(limit), math.inf)


@pytest.mark.parametrize("attr,value", [
    pytest.param(attr, _accepted_edge(parser, bound), id=f"{section}.{key}")
    for section, key, attr, _, parser, bound in _KEYS
    if isinstance(bound, str)])
@pytest.mark.parametrize("ideal", [False, True], ids=["contended", "ideal"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_accepted_edge_values_are_rejected_or_run_to_the_end(protocol, ideal,
                                                              attr, value):
    fields = dict(protocol=protocol, ideal_channel=ideal, n=5, duration=5.0,
                  warmup=0.0)
    fields[attr] = value
    try:
        cfg = ScenarioConfig(**fields).validate()
    except ConfigError:
        return
    events = 0

    def count_event(line):
        nonlocal events
        events += 1
        if events > EDGE_EVENT_BUDGET:
            raise RuntimeError(f"{attr}={value!r}: over {EDGE_EVENT_BUDGET} events")

    world = World(cfg, trace=count_event)
    world.run()
    assert world.kernel.now == cfg.duration
