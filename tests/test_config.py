import math

import pytest

from emanetsim.config import (ConfigError, ScenarioConfig, SweepSpec,
                              dump_config, parse_config, parse_sizes)


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
    ("[traffic]\npattern = fixed-pairs\n", "pattern"),   # removed key
    ("nodes = 5\n", "section headers"),
])
def test_validation_errors_name_the_key(text, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


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
    assert cfg.adversary.behavior == "forge-cp"
    assert cfg.adversary.nodes == (3, 4)
    assert cfg.adversary.period == 15.0


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


def test_parse_sizes_forms():
    assert parse_sizes("5:50:5") == tuple(range(5, 51, 5))
    assert parse_sizes("5:20") == (5, 10, 15, 20)
    assert parse_sizes("4,8,15") == (4, 8, 15)
    with pytest.raises(ConfigError):
        parse_sizes("10:5")
    with pytest.raises(ConfigError):
        parse_sizes("1:2:3:4")


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
