"""Scenario configuration: defaults, INI parsing with strict validation, and
sweep specifications.

The file format is INI-style sections of key = value pairs so experiment
provenance diffs cleanly. Unknown sections or keys are rejected, and every
validation error names the offending key.
"""

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

from .kernel import RandomStream
from .mobility import Area, Rect
from .security import (AdversaryRole, ATTACKS, ATTACK_NONE, ATTACK_OSCILLATE,
                       SECURITY_MODES, DeviceProfile)

PROTOCOLS = ("olsr", "aodv", "dsr", "cml")


class ConfigError(Exception):
    """Invalid configuration; the message names the key and constraint."""


@dataclass
class ScenarioConfig:
    # scenario
    protocol: str = "cml"
    security_mode: str = "none"
    n: int = 20
    duration: float = 300.0
    warmup: float = 50.0
    seed: int = 1
    # area; width/height of 0 means auto: side = area_scale * sqrt(n)
    width: float = 0.0
    height: float = 0.0
    area_scale: float = 190.0
    obstacles: tuple = ()
    # radio / channel
    radius: float = 250.0
    bandwidth_bps: float = 300_000.0
    mac_overhead_bytes: int = 38
    processing_delay: float = 0.0005
    difs: float = 0.0002
    slot_time: float = 0.0005
    cw_min: int = 8
    retry_limit: int = 3
    broadcast_jitter: float = 0.02
    hcreq_jitter: float = 0.6
    ideal_channel: bool = False
    # mobility
    v_min: float = 1.0
    v_max: float = 2.0
    pause_max: float = 10.0
    mobility_tick: float = 0.5
    # traffic
    traffic_rate: float = 1.0
    traffic_payload: int = 512
    rotation_interval: float = 5.0  # re-draw each flow destination every (s)
    traffic_start: float = 5.0
    # olsr
    hello_interval: float = 2.0
    tc_interval: float = 5.0
    # aodv / dsr
    node_traversal_time: float = 0.04
    net_diameter: int = 35
    route_lifetime: float = 10.0
    rreq_retries: int = 2
    buffer_cap: int = 64
    buffer_hold: float = 0.2  # buffered data older than this is dropped, not sent
    seen_lifetime: float = 30.0
    cache_paths: int = 3
    cache_lifetime: float = 30.0
    # cml
    nst: int = 10
    x: int = 2
    t_osc: float = 30.0
    k: float = 0.65
    # security device
    c_p: float = 450e6
    # adversary
    adversary: AdversaryRole = field(default_factory=AdversaryRole)
    # output
    trace: bool = False

    # -- derived helpers -----------------------------------------------------

    def stream(self):
        return RandomStream(self.seed)

    @property
    def device(self):
        return DeviceProfile(self.c_p)

    def area_side(self):
        return self.area_scale * math.sqrt(self.n)

    def build_area(self):
        w = self.width if self.width > 0 else self.area_side()
        h = self.height if self.height > 0 else self.area_side()
        return Area(width=w, height=h,
                    obstacles=[Rect(*ob) for ob in self.obstacles])

    def replace(self, **kw):
        return replace(self, **kw)

    # -- validation -------------------------------------------------------------

    def validate(self):
        def need(cond, key, constraint):
            if not cond:
                raise ConfigError(f"{key}: {constraint}")

        need(self.protocol in PROTOCOLS, "protocol", f"must be one of {PROTOCOLS}")
        need(self.security_mode in SECURITY_MODES, "security",
             f"must be one of {SECURITY_MODES}")
        need(self.n >= 2, "nodes", "must be >= 2")
        need(self.warmup >= 0, "warmup", "must be >= 0")
        need(self.duration > self.warmup, "duration", "must exceed warmup")
        need(self.radius > 0, "radius", "must be > 0")
        need(self.width >= 0, "width", "must be >= 0 (0 sizes the area from nodes)")
        need(self.height >= 0, "height", "must be >= 0 (0 sizes the area from nodes)")
        need(self.area_scale > 0, "scale", "must be > 0")
        need(self.bandwidth_bps > 0, "bandwidth", "must be > 0")
        need(self.processing_delay >= 0, "processing_delay", "must be >= 0")
        need(self.mac_overhead_bytes >= 0, "mac_overhead", "must be >= 0")
        need(self.difs >= 0, "difs", "must be >= 0")
        need(self.slot_time >= 0, "slot", "must be >= 0")
        need(self.broadcast_jitter >= 0, "broadcast_jitter", "must be >= 0")
        need(self.hcreq_jitter >= 0, "hcreq_jitter", "must be >= 0")
        need(self.cw_min >= 1, "cw_min", "must be >= 1")
        need(self.retry_limit >= 0, "retry_limit", "must be >= 0")
        need(0 <= self.v_min <= self.v_max, "v_min", "need 0 <= v_min <= v_max")
        need(self.pause_max >= 0, "pause_max", "must be >= 0")
        need(self.mobility_tick > 0, "tick", "must be > 0")
        need(self.traffic_rate >= 0, "rate", "must be >= 0")
        need(self.traffic_payload > 0, "payload", "must be > 0")
        need(self.traffic_start >= 0, "start", "must be >= 0")
        need(self.rotation_interval >= 0, "rotation", "must be >= 0 (0 never rotates)")
        need(self.hello_interval > 0, "hello_interval", "must be > 0")
        need(self.tc_interval > 0, "tc_interval", "must be > 0")
        need(self.node_traversal_time >= 0, "node_traversal_time", "must be >= 0")
        need(self.net_diameter >= 0, "net_diameter", "must be >= 0")
        need(self.route_lifetime > 0, "route_lifetime", "must be > 0")
        need(self.rreq_retries >= 0, "rreq_retries", "must be >= 0")
        need(self.buffer_cap >= 0, "buffer_cap", "must be >= 0")
        need(self.buffer_hold >= 0, "buffer_hold", "must be >= 0")
        need(self.seen_lifetime > 0, "seen_lifetime", "must be > 0")
        need(self.cache_paths >= 1, "cache_paths", "must be >= 1")
        need(self.cache_lifetime > 0, "cache_lifetime", "must be > 0")
        need(self.nst >= 1, "nst", "must be >= 1")
        need(0 <= self.x < self.nst, "x", "need 0 <= x < nst")
        need(self.t_osc > 0, "t_osc", "must be > 0")
        need(self.k > 0, "k", "must be > 0")
        need(self.c_p > 0, "c_p", "must be > 0")
        need(self.adversary.behavior in ATTACKS, "adversary.behavior",
             f"must be one of {ATTACKS}")
        need(self.adversary.behavior in (ATTACK_NONE, ATTACK_OSCILLATE)
             or self.protocol == "cml", "adversary.behavior",
             f"{self.adversary.behavior} needs protocol cml")
        need(self.adversary.period > 0, "adversary.period", "must be > 0")
        need(self.adversary.target_phase in ("p-phase", "r-phase"),
             "adversary.target_phase", "must be p-phase or r-phase")
        need(self.adversary.nodes or self.adversary.behavior == ATTACK_NONE,
             "adversary.nodes", f"{self.adversary.behavior} needs at least one node")
        need(len(set(self.adversary.nodes)) == len(self.adversary.nodes),
             "adversary.nodes", "ids must not repeat")
        for i in self.adversary.nodes:
            need(0 <= i < self.n, "adversary.nodes", "ids must be < nodes")
        area = self.build_area()
        for ob in area.obstacles:
            need(ob.w > 0 and ob.h > 0, "obstacles", "need positive extents")
            need(0 <= ob.x and ob.x + ob.w <= area.width
                 and 0 <= ob.y and ob.y + ob.h <= area.height,
                 "obstacles", "must lie within the area")
        return self


# INI schema: section -> {key: (attr, parser)}
def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s}")


def _parse_obstacles(s):
    out = []
    s = s.strip()
    if not s:
        return ()
    for part in s.split(";"):
        vals = [float(v) for v in part.strip().split(",")]
        if len(vals) != 4:
            raise ValueError("each obstacle needs x,y,w,h")
        out.append(tuple(vals))
    return tuple(out)


def _parse_ids(s):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(v) for v in s.split(","))


_SCHEMA = {
    "scenario": {
        "protocol": ("protocol", str),
        "security": ("security_mode", str),
        "nodes": ("n", int),
        "duration": ("duration", float),
        "warmup": ("warmup", float),
        "seed": ("seed", int),
    },
    "area": {
        "width": ("width", float),
        "height": ("height", float),
        "scale": ("area_scale", float),
        "obstacles": ("obstacles", _parse_obstacles),
    },
    "radio": {
        "radius": ("radius", float),
        "bandwidth": ("bandwidth_bps", float),
        "mac_overhead": ("mac_overhead_bytes", int),
        "processing_delay": ("processing_delay", float),
        "difs": ("difs", float),
        "slot": ("slot_time", float),
        "cw_min": ("cw_min", int),
        "retry_limit": ("retry_limit", int),
        "broadcast_jitter": ("broadcast_jitter", float),
        "hcreq_jitter": ("hcreq_jitter", float),
        "ideal_channel": ("ideal_channel", _parse_bool),
    },
    "mobility": {
        "v_min": ("v_min", float),
        "v_max": ("v_max", float),
        "pause_max": ("pause_max", float),
        "tick": ("mobility_tick", float),
    },
    "traffic": {
        "rate": ("traffic_rate", float),
        "payload": ("traffic_payload", int),
        "rotation": ("rotation_interval", float),
        "start": ("traffic_start", float),
    },
    "olsr": {
        "hello_interval": ("hello_interval", float),
        "tc_interval": ("tc_interval", float),
    },
    "aodv": {
        "node_traversal_time": ("node_traversal_time", float),
        "net_diameter": ("net_diameter", int),
        "route_lifetime": ("route_lifetime", float),
        "rreq_retries": ("rreq_retries", int),
        "buffer_cap": ("buffer_cap", int),
        "buffer_hold": ("buffer_hold", float),
        "seen_lifetime": ("seen_lifetime", float),
    },
    "dsr": {
        "cache_paths": ("cache_paths", int),
        "cache_lifetime": ("cache_lifetime", float),
    },
    "cml": {
        "nst": ("nst", int),
        "x": ("x", int),
        "t_osc": ("t_osc", float),
        "k": ("k", float),
    },
    "security": {
        "c_p": ("c_p", float),
    },
    "adversary": {
        "behavior": ("adversary.behavior", str),
        "nodes": ("adversary.nodes", _parse_ids),
        "period": ("adversary.period", float),
        "target_phase": ("adversary.target_phase", str),
    },
    "output": {
        "trace": ("trace", _parse_bool),
    },
}


def parse_config(text):
    """Parse INI text into a validated ScenarioConfig; unknown keys rejected."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse failure: {e}") from None
    cfg = ScenarioConfig()
    adversary = AdversaryRole()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            attr, conv = _SCHEMA[section][key]
            try:
                value = conv(raw)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"{section}.{key}: {e}") from None
            if attr.startswith("adversary."):
                setattr(adversary, attr.split(".", 1)[1], value)
            else:
                setattr(cfg, attr, value)
    cfg.adversary = adversary
    return cfg.validate()


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg):
    """Resolved configuration as INI text (the per-run manifest)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser[section] = {}
        for key, (attr, _) in keys.items():
            if attr.startswith("adversary."):
                value = getattr(cfg.adversary, attr.split(".", 1)[1])
            else:
                value = getattr(cfg, attr)
            if isinstance(value, tuple):
                if attr == "obstacles":
                    value = "; ".join(",".join(str(x) for x in ob) for ob in value)
                else:
                    value = ",".join(str(x) for x in value)
            parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@dataclass
class SweepSpec:
    """Cross-product enumeration for comparison sweeps, deterministic order."""
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    sizes: tuple = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
    seeds: tuple = (1, 2, 3, 4, 5)
    protocols: tuple = PROTOCOLS
    security_modes: tuple = ("none",)

    def cells(self):
        """Fully resolved per-run configs, ordered deterministically."""
        return [self.base.replace(protocol=protocol, security_mode=mode, n=n,
                                  seed=seed).validate()
                for protocol in self.protocols for mode in self.security_modes
                for n in self.sizes for seed in self.seeds]


def parse_sizes(spec):
    """Parse "5:50:5" or "5,10,20" into a tuple of sizes."""
    spec = spec.strip()
    if ":" in spec:
        parts = [int(v) for v in spec.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 5
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ConfigError("sizes: expected lo:hi[:step]")
        if step <= 0 or hi < lo:
            raise ConfigError("sizes: need lo <= hi and step > 0")
        return tuple(range(lo, hi + 1, step))
    return tuple(int(v) for v in spec.split(","))
