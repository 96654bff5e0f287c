"""Node placement, random-waypoint motion with rectangular obstacles, and the
deterministic-radius link model.

The radio model is a unit disk: two nodes are linked iff their Euclidean
distance is at most the configured radius and no obstacle blocks the segment
between them. Obstacles block both movement and line of sight.
"""

import math
from collections import namedtuple


class MobilityError(Exception):
    """Raised when sampling cannot find free space (misconfigured obstacles)."""


class Rect(namedtuple("Rect", "x y w h")):
    """Axis-aligned rectangle, used for obstacles."""
    __slots__ = ()

    def contains(self, px, py):
        return self.x < px < self.x + self.w and self.y < py < self.y + self.h

    def intersects_segment(self, x1, y1, x2, y2):
        """Liang-Barsky clip test: does the open segment cross this rect?"""
        dx = x2 - x1
        dy = y2 - y1
        t0, t1 = 0.0, 1.0
        for p, q in (
            (-dx, x1 - self.x),
            (dx, self.x + self.w - x1),
            (-dy, y1 - self.y),
            (dy, self.y + self.h - y1),
        ):
            if p == 0.0:
                if q < 0.0:
                    return False
            else:
                r = q / p
                if p < 0.0:
                    if r > t1:
                        return False
                    if r > t0:
                        t0 = r
                else:
                    if r < t0:
                        return False
                    if r < t1:
                        t1 = r
        return t0 < t1


class Area:
    """Simulation area with optional rectangular obstacles."""

    def __init__(self, width, height, obstacles=()):
        self.width = width
        self.height = height
        self.obstacles = obstacles  # Rects

    def inside(self, x, y):
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    def blocked(self, x, y):
        return any(ob.contains(x, y) for ob in self.obstacles)

    def segment_blocked(self, x1, y1, x2, y2):
        return any(ob.intersects_segment(x1, y1, x2, y2) for ob in self.obstacles)


def sample_point(stream, area, max_tries=1000):
    """Uniform point over the area minus obstacles, by rejection sampling."""
    for _ in range(max_tries):
        x = stream.uniform(0.0, area.width)
        y = stream.uniform(0.0, area.height)
        if not area.blocked(x, y):
            return x, y
    raise MobilityError("no free space found; obstacles cover the sampling area")


def sample_waypoint(stream, area, from_x=None, from_y=None, max_tries=100):
    """Next waypoint; the connecting segment must not cross an obstacle.

    Segments through obstacles are rejected and re-drawn rather than
    path-planned around. With no obstacles the first draw always wins.
    """
    if not area.obstacles or from_x is None:
        return sample_point(stream, area)
    for _ in range(max_tries):
        x, y = sample_point(stream, area)
        if not area.segment_blocked(from_x, from_y, x, y):
            return x, y
    raise MobilityError("no reachable waypoint found from current position")


class NodeKinematics:
    """Random-waypoint state for one node: position, target, speed, pause."""

    __slots__ = ("x", "y", "wx", "wy", "speed", "pause_until")

    def __init__(self, x, y):
        self.x = x
        self.y = y
        self.wx = x
        self.wy = y
        self.speed = 0.0
        self.pause_until = 0.0


class MobilityModel:
    """Advances node kinematics on a fixed tick using a per-node stream."""

    def __init__(self, area, v_min, v_max, pause_max):
        self.area = area
        self.v_min = v_min
        self.v_max = v_max
        self.pause_max = pause_max

    def init_node(self, kin, stream):
        """Draw the first leg of freshly placed kinematics."""
        self._new_leg(kin, stream)

    def _new_leg(self, kin, stream):
        if self.v_max <= 0.0:
            kin.speed = 0.0
            kin.wx, kin.wy = kin.x, kin.y
            return
        kin.wx, kin.wy = sample_waypoint(stream, self.area, kin.x, kin.y)
        kin.speed = stream.uniform(self.v_min, self.v_max)

    def advance(self, kin, stream, now, dt):
        """Move toward the waypoint for dt seconds, pausing and re-drawing
        waypoints as legs complete. Stationary nodes (v_max=0) never move."""
        if self.v_max <= 0.0:
            return
        t = now
        remaining = dt
        while remaining > 1e-12:
            if t < kin.pause_until:
                wait = min(remaining, kin.pause_until - t)
                t += wait
                remaining -= wait
                continue
            dx = kin.wx - kin.x
            dy = kin.wy - kin.y
            dist = math.hypot(dx, dy)
            if dist <= 1e-9 or kin.speed <= 0.0:
                kin.x, kin.y = kin.wx, kin.wy
                kin.pause_until = t + stream.uniform(0.0, self.pause_max)
                self._new_leg(kin, stream)
                continue
            step = kin.speed * remaining
            if step >= dist:
                kin.x, kin.y = kin.wx, kin.wy
                used = dist / kin.speed
                t += used
                remaining -= used
                kin.pause_until = t + stream.uniform(0.0, self.pause_max)
                self._new_leg(kin, stream)
            else:
                kin.x += dx / dist * step
                kin.y += dy / dist * step
                remaining = 0.0


def neighbor_map(positions, radius, area):
    """All bidirectional links among active nodes.

    positions: dict node-id -> (x, y). Returns dict node-id -> sorted list of
    neighbor ids (distance <= radius, line of sight clear, self excluded).
    """
    ids = sorted(positions)
    out = {i: [] for i in ids}
    r2 = radius * radius
    check_los = bool(area.obstacles)
    for a_idx, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[a_idx + 1:]:
            bx, by = positions[b]
            dx = ax - bx
            dy = ay - by
            if dx * dx + dy * dy > r2:
                continue
            if check_los and area.segment_blocked(ax, ay, bx, by):
                continue
            out[a].append(b)
            out[b].append(a)
    return out


def hop_distances(neighbours, src):
    """BFS hop count from src to every node it reaches; neighbours(u) gives
    u's neighbours."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbours(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist
