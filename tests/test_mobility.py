import math

import pytest

from emanetsim.kernel import RandomStream
from emanetsim.mobility import (Area, MobilityError, MobilityModel,
                                NodeKinematics, Rect, neighbor_map,
                                sample_point, sample_waypoint)


def stream(label="t"):
    return RandomStream(1).fork(label)


def test_sample_point_unit_square():
    area = Area(1.0, 1.0)
    s = stream()
    for _ in range(100):
        x, y = sample_point(s, area)
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_sample_point_avoids_obstacle():
    # obstacle covering the left half: all samples land right of it
    area = Area(100.0, 100.0, obstacles=[Rect(0.0, 0.0, 50.0, 100.0)])
    s = stream()
    for _ in range(10_000):
        x, y = sample_point(s, area)
        assert x >= 50.0


def test_sample_point_fails_when_covered():
    area = Area(10.0, 10.0, obstacles=[Rect(-1.0, -1.0, 12.0, 12.0)])
    with pytest.raises(MobilityError):
        sample_point(stream(), area)


def test_waypoint_sequence_deterministic():
    area = Area(500.0, 500.0)
    pts1 = [sample_point(stream("w"), area) for _ in range(1)]
    s1, s2 = stream("w"), stream("w")
    seq1 = [sample_waypoint(s1, area) for _ in range(10)]
    seq2 = [sample_waypoint(s2, area) for _ in range(10)]
    assert seq1 == seq2


def test_waypoint_segment_avoids_obstacle():
    # wall splitting the area, gap at the top: segments never cross the wall
    wall = Rect(49.0, 0.0, 2.0, 90.0)
    area = Area(100.0, 100.0, obstacles=[wall])
    s = stream()
    for _ in range(500):
        x, y = sample_waypoint(s, area, from_x=10.0, from_y=10.0)
        assert not wall.intersects_segment(10.0, 10.0, x, y)


def test_segment_intersection_basics():
    r = Rect(10.0, 10.0, 10.0, 10.0)
    assert r.intersects_segment(0.0, 15.0, 30.0, 15.0)        # straight through
    assert not r.intersects_segment(0.0, 0.0, 30.0, 0.0)      # passes below
    assert r.intersects_segment(12.0, 12.0, 40.0, 12.0)       # starts inside
    assert r.intersects_segment(0.0, 25.0, 25.0, 0.0)         # cuts the corner
    assert not r.intersects_segment(0.0, 45.0, 45.0, 0.0)     # passes wide


def test_advance_straight_line():
    area = Area(100.0, 100.0)
    model = MobilityModel(area, 1.0, 1.0, 0.0)
    kin = NodeKinematics(0.0, 0.0)
    kin.wx, kin.wy = 10.0, 0.0
    kin.speed = 1.0
    model.advance(kin, stream(), now=0.0, dt=3.0)
    assert kin.x == pytest.approx(3.0)
    assert kin.y == pytest.approx(0.0)


def test_advance_reaches_waypoint_and_pauses():
    area = Area(100.0, 100.0)
    model = MobilityModel(area, 1.0, 1.0, pause_max=10.0)
    kin = NodeKinematics(0.0, 0.0)
    kin.wx, kin.wy = 2.0, 0.0
    kin.speed = 1.0
    s = stream()
    model.advance(kin, s, now=0.0, dt=2.0)
    # arrived: a pause began and a new leg was drawn
    assert kin.pause_until >= 2.0
    assert (kin.wx, kin.wy) != (2.0, 0.0) or kin.pause_until > 2.0


def test_stationary_node_never_moves():
    area = Area(100.0, 100.0)
    model = MobilityModel(area, 0.0, 0.0, 5.0)
    kin = NodeKinematics(42.0, 17.0)
    model.init_node(kin, stream())
    for _ in range(50):
        model.advance(kin, stream(), now=0.0, dt=7.0)
    assert (kin.x, kin.y) == (42.0, 17.0)


def test_containment_over_long_walk():
    wall = Rect(40.0, 20.0, 20.0, 60.0)
    area = Area(100.0, 100.0, obstacles=[wall])
    model = MobilityModel(area, 1.0, 3.0, 2.0)
    s = stream("walk")
    kin = NodeKinematics(*sample_point(s, area))
    model.init_node(kin, s)
    t = 0.0
    for _ in range(2000):
        model.advance(kin, s, now=t, dt=0.5)
        t += 0.5
        assert area.inside(kin.x, kin.y)
        assert not wall.contains(kin.x, kin.y)


def test_neighbors_threshold_strict():
    area = Area(100.0, 100.0)
    radius = 10.0
    near = neighbor_map({0: (0.0, 0.0), 1: (5.0, 0.0)}, radius, area)
    assert near[0] == [1] and near[1] == [0]
    far = neighbor_map({0: (0.0, 0.0), 1: (10.01, 0.0)}, radius, area)
    assert far[0] == [] and far[1] == []


def test_neighbors_grid_four_connectivity():
    # 3x3 grid spaced 10 m, radius 10: axis neighbors only (diagonal > 10)
    area = Area(100.0, 100.0)
    radius = 10.0
    positions = {3 * r + c: (10.0 * c, 10.0 * r) for r in range(3) for c in range(3)}
    got = neighbor_map(positions, radius, area)
    # independent check: brute-force distance matrix
    for a in positions:
        ax, ay = positions[a]
        expect = sorted(b for b in positions if b != a
                        and math.dist(positions[a], positions[b]) <= 10.0)
        assert got[a] == expect
    assert got[4] == [1, 3, 5, 7]  # center has exactly 4 neighbors


def test_neighbor_symmetry_random_layouts():
    area = Area(1000.0, 1000.0)
    radius = 250.0
    s = stream("sym")
    for _ in range(20):
        positions = {i: sample_point(s, area) for i in range(15)}
        nm = neighbor_map(positions, radius, area)
        for a, nbrs in nm.items():
            for b in nbrs:
                assert a in nm[b]


def test_obstacle_blocks_line_of_sight():
    wall = Rect(45.0, -10.0, 10.0, 20.0)
    area = Area(100.0, 100.0, obstacles=[wall])
    radius = 250.0
    nm = neighbor_map({0: (0.0, 0.0), 1: (100.0, 0.0), 2: (0.0, 50.0)}, radius, area)
    assert 1 not in nm[0]          # wall between 0 and 1
    assert 2 in nm[0]              # clear path


def test_static_world_graph_constant(chain3):
    snapshot = {n.id: list(chain3.neighbors(n.id)) for n in chain3.nodes}
    chain3.kernel.run_until(30.0)
    chain3.refresh_links()
    assert snapshot == {n.id: list(chain3.neighbors(n.id)) for n in chain3.nodes}
