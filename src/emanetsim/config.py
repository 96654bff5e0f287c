"""Scenario configuration: defaults, INI parsing with strict validation, and
sweep specifications.

The file format is INI-style sections of key = value pairs so experiment
provenance diffs cleanly. Unknown sections or keys are rejected, and every
validation error names the offending key.
"""

import configparser
import io
import math
import operator

from .kernel import RandomStream
from .mobility import Area, Rect
from .protocols import PROTOCOLS
from .security import ATTACKS, ATTACK_NONE, ATTACK_OSCILLATE, SECURITY_MODES


class ConfigError(Exception):
    """Invalid configuration; the message names the key and constraint."""


class ScenarioConfig:
    """One scenario's parameters: one attribute per _KEYS row, whose default
    the row gives; the constructor takes any of them by keyword. Configs
    compare equal when every _KEYS value is equal."""

    def __init__(self, **kw):
        unknown = kw.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"ScenarioConfig has no field {min(unknown)!r}")
        for name, default in _DEFAULTS.items():
            setattr(self, name, kw.get(name, default))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    # -- derived helpers -----------------------------------------------------

    def stream(self):
        return RandomStream(self.seed)

    def area_side(self):
        return self.area_scale * math.sqrt(self.n)

    def build_area(self):
        w = self.width if self.width > 0 else self.area_side()
        h = self.height if self.height > 0 else self.area_side()
        return Area(width=w, height=h,
                    obstacles=[Rect(*ob) for ob in self.obstacles])

    def replace(self, **kw):
        """A copy with the fields in kw changed."""
        return ScenarioConfig(**{**vars(self), **kw})

    # -- validation -------------------------------------------------------------

    def validate(self):
        """Check every key against its _KEYS bound (every number must be
        finite as a float), then the rules that read two keys or that one
        comparison cannot state."""
        def need(cond, key, constraint):
            if not cond:
                raise ConfigError(f"{key}: {constraint}")

        for section, key, attr, _, _, bound in _KEYS:
            value = getattr(self, attr)
            name = f"adversary.{key}" if section == "adversary" else key
            try:
                finite = not isinstance(value, (int, float)) or math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            need(finite, name, "must be finite")
            if isinstance(bound, tuple):
                need(value in bound, name, f"must be one of {bound}")
            elif bound:
                op, limit = bound.split()
                need(_COMPARE[op](value, float(limit)), name, f"must be {bound}")
        need(self.duration > self.warmup, "duration", "must exceed warmup")
        need(self.traffic_rate <= 1000, "rate", "must be <= 1000")
        need(self.rotation_interval == 0 or self.rotation_interval >= 0.001,
             "rotation", "must be 0 or >= 0.001")
        need(self.v_min <= self.v_max, "v_min", "must not exceed v_max")
        need(self.x < self.nst, "x", "must be < nst")
        # CML turns k into a probe ttl, ceil(sqrt((nst - x) / k)), and a hop
        # count h < nodes into a size estimate, round(k * h^2)
        k = float(self.k)  # every number fits a float by now
        need(math.isfinite((self.nst - self.x) / k) and math.isfinite(k * self.n * self.n),
             "k", "must keep (nst - x) / k and k * nodes^2 finite")
        behavior, nodes = self.adversary_behavior, self.adversary_nodes
        need(behavior in (ATTACK_NONE, ATTACK_OSCILLATE) or self.protocol == "cml",
             "adversary.behavior", f"{behavior} needs protocol cml")
        need(nodes or behavior == ATTACK_NONE,
             "adversary.nodes", f"{behavior} needs at least one node")
        need(len(set(nodes)) == len(nodes), "adversary.nodes", "ids must not repeat")
        for i in nodes:
            need(0 <= i < self.n, "adversary.nodes", "ids must be < nodes")
        area = self.build_area()
        for ob in area.obstacles:
            need(ob.w > 0 and ob.h > 0, "obstacles", "need positive extents")
            need(0 <= ob.x and ob.x + ob.w <= area.width
                 and 0 <= ob.y and ob.y + ob.h <= area.height,
                 "obstacles", "must lie within the area")
        return self


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


_COMPARE = {">": operator.gt, ">=": operator.ge}

# Every INI key once, in manifest order: (section, key, attribute, default,
# parser, bound). A bound is a tuple of allowed values, a comparison such as
# ">= 0", or None when only a rule in validate() that reads two keys applies.
# No periodic source may fire more than 1,000 times per simulated second, so
# every period is at least 0.001 s (traffic rate and rotation in validate()).
_KEYS = (
    ("scenario", "protocol", "protocol", "cml", str, PROTOCOLS),
    ("scenario", "security", "security_mode", "none", str, SECURITY_MODES),
    ("scenario", "nodes", "n", 20, int, ">= 2"),
    ("scenario", "duration", "duration", 300.0, float, None),
    ("scenario", "warmup", "warmup", 50.0, float, ">= 0"),
    ("scenario", "seed", "seed", 1, int, None),
    # a width or height of 0 sizes that side as area_scale * sqrt(n)
    ("area", "width", "width", 0.0, float, ">= 0"),
    ("area", "height", "height", 0.0, float, ">= 0"),
    ("area", "scale", "area_scale", 190.0, float, "> 0"),
    ("area", "obstacles", "obstacles", (), _parse_obstacles, None),
    ("radio", "radius", "radius", 250.0, float, "> 0"),
    ("radio", "bandwidth", "bandwidth_bps", 300_000.0, float, "> 0"),
    ("radio", "mac_overhead", "mac_overhead_bytes", 38, int, ">= 0"),
    ("radio", "processing_delay", "processing_delay", 0.0005, float, ">= 0"),
    ("radio", "difs", "difs", 0.0002, float, ">= 0"),
    ("radio", "slot", "slot_time", 0.0005, float, ">= 0"),
    ("radio", "cw_min", "cw_min", 8, int, ">= 1"),
    ("radio", "retry_limit", "retry_limit", 3, int, ">= 0"),
    ("radio", "broadcast_jitter", "broadcast_jitter", 0.02, float, ">= 0"),
    ("radio", "hcreq_jitter", "hcreq_jitter", 0.6, float, ">= 0"),
    ("radio", "ideal_channel", "ideal_channel", False, _parse_bool, None),
    ("mobility", "v_min", "v_min", 1.0, float, ">= 0"),
    ("mobility", "v_max", "v_max", 2.0, float, ">= 0"),
    ("mobility", "pause_max", "pause_max", 10.0, float, ">= 0"),
    ("mobility", "tick", "mobility_tick", 0.5, float, ">= 0.001"),
    ("traffic", "rate", "traffic_rate", 1.0, float, ">= 0"),
    ("traffic", "payload", "traffic_payload", 512, int, "> 0"),
    # re-draw each flow's destination every rotation s; 0 never re-draws
    ("traffic", "rotation", "rotation_interval", 5.0, float, ">= 0"),
    ("traffic", "start", "traffic_start", 5.0, float, ">= 0"),
    ("olsr", "hello_interval", "hello_interval", 2.0, float, ">= 0.001"),
    ("olsr", "tc_interval", "tc_interval", 5.0, float, ">= 0.001"),
    ("aodv", "node_traversal_time", "node_traversal_time", 0.04, float, ">= 0"),
    ("aodv", "net_diameter", "net_diameter", 35, int, ">= 0"),
    ("aodv", "route_lifetime", "route_lifetime", 10.0, float, "> 0"),
    ("aodv", "rreq_retries", "rreq_retries", 2, int, ">= 0"),
    ("aodv", "buffer_cap", "buffer_cap", 64, int, ">= 0"),
    # buffered data older than buffer_hold s is dropped, not sent
    ("aodv", "buffer_hold", "buffer_hold", 0.2, float, ">= 0"),
    ("aodv", "seen_lifetime", "seen_lifetime", 30.0, float, "> 0"),
    ("dsr", "cache_paths", "cache_paths", 3, int, ">= 1"),
    ("dsr", "cache_lifetime", "cache_lifetime", 30.0, float, "> 0"),
    ("cml", "nst", "nst", 10, int, ">= 1"),
    ("cml", "x", "x", 2, int, ">= 0"),
    ("cml", "t_osc", "t_osc", 30.0, float, "> 0"),
    ("cml", "k", "k", 0.65, float, "> 0"),
    ("security", "c_p", "c_p", 450e6, float, "> 0"),
    ("adversary", "behavior", "adversary_behavior", ATTACK_NONE, str, ATTACKS),
    ("adversary", "nodes", "adversary_nodes", (), _parse_ids, None),
    ("adversary", "period", "adversary_period", 20.0, float, ">= 0.001"),
    ("adversary", "target_phase", "adversary_target_phase", "r-phase", str,
     ("p-phase", "r-phase")),
    ("output", "trace", "trace", False, _parse_bool, None),
)
_ROWS = {(section, key): (attr, parser) for section, key, attr, _, parser, _ in _KEYS}
_DEFAULTS = {attr: default for _, _, attr, default, _, _ in _KEYS}


def parse_config(text):
    """Parse INI text into a validated ScenarioConfig; unknown keys rejected."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse failure: {e}") from None
    cfg = ScenarioConfig()
    sections = {section for section, *_ in _KEYS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{section}: unknown section")
        for key, raw in parser.items(section):
            if (section, key) not in _ROWS:
                raise ConfigError(f"{section}.{key}: unknown key")
            attr, conv = _ROWS[section, key]
            try:
                value = conv(raw)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"{section}.{key}: {e}") from None
            setattr(cfg, attr, value)
    return cfg.validate()


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg):
    """Resolved configuration as INI text (the per-run manifest)."""
    sections = {}
    for section, key, attr, *_ in _KEYS:
        value = getattr(cfg, attr)
        if attr == "obstacles":
            value = "; ".join(",".join(str(x) for x in ob) for ob in value)
        elif isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        sections.setdefault(section, {})[key] = str(value)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


class SweepSpec:
    """Cross-product enumeration for comparison sweeps, deterministic order."""

    def __init__(self, base=None, sizes=(5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
                 seeds=(1, 2, 3, 4, 5), protocols=PROTOCOLS, security_modes=("none",)):
        self.base = ScenarioConfig() if base is None else base
        self.sizes = sizes
        self.seeds = seeds
        self.protocols = protocols
        self.security_modes = security_modes

    def cells(self):
        """Fully resolved per-run configs, ordered deterministically."""
        return [self.base.replace(protocol=protocol, security_mode=mode, n=n,
                                  seed=seed).validate()
                for protocol in self.protocols for mode in self.security_modes
                for n in self.sizes for seed in self.seeds]


def parse_sizes(spec):
    """Parse "5:50:5" or "5,10,20" into a tuple of sizes."""
    spec = spec.strip()
    sep = ":" if ":" in spec else ","
    try:
        parts = [int(v) for v in spec.split(sep)]
    except ValueError:
        raise ConfigError(f"sizes: expected integers, got {spec!r}") from None
    if sep == ",":
        return tuple(parts)
    if len(parts) not in (2, 3):
        raise ConfigError("sizes: expected lo:hi[:step]")
    lo, hi, step = parts if len(parts) == 3 else parts + [5]
    if step <= 0 or hi < lo:
        raise ConfigError("sizes: need lo <= hi and step > 0")
    return tuple(range(lo, hi + 1, step))
