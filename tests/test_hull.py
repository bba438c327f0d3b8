import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_hull_volume, static_pose_positions
from lmakit.errors import LmaError
from lmakit.hull import _hull_triangles, hull_volume

CUBE = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
# the centre of every cube face and the midpoint of four edges: coplanar with
# a face's corners, so each face holds 5 or 6 points
CUBE_FACE_POINTS = np.array(
    [[0.5, 0.5, 0], [0.5, 0.5, 1], [0.5, 0, 0.5], [0.5, 1, 0.5], [0, 0.5, 0.5], [1, 0.5, 0.5],
     [0.5, 0, 0], [0, 0.5, 1], [1, 1, 0.5], [1, 0, 0.5]],
    float,
)


def _assert_outward_and_watertight(pts, facets):
    verts = {i for tri in facets for i in tri}
    c = pts[sorted(verts)].mean(axis=0)
    edge_count = {}
    for a, b, d in facets:
        n = np.cross(pts[b] - pts[a], pts[d] - pts[a])
        assert np.dot(n, pts[a] - c) > 0  # outward
        for e in ((a, b), (b, d), (d, a)):
            key = tuple(sorted(e))
            edge_count[key] = edge_count.get(key, 0) + 1
    assert all(v == 2 for v in edge_count.values())  # closed surface


def test_unit_tetrahedron():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    assert hull_volume(pts) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_unit_cube():
    assert hull_volume(CUBE) == pytest.approx(1.0, abs=1e-12)


def test_interior_points_do_not_change_volume():
    rng = np.random.default_rng(0)
    inside = rng.uniform(0.1, 0.9, (20, 3))
    assert hull_volume(np.vstack([CUBE, inside])) == pytest.approx(1.0, abs=1e-9)


def test_points_on_cube_faces_merge_into_one_face():
    pts = np.vstack([CUBE_FACE_POINTS, CUBE])  # face points first, corners last
    assert hull_volume(pts) == 1.0
    facets = _hull_triangles(pts)
    assert len(facets) == 12  # two triangles per square face
    assert {i for tri in facets for i in tri} == set(range(10, 18))  # corners only
    _assert_outward_and_watertight(pts, facets)


def test_duplicated_points():
    assert hull_volume(np.vstack([CUBE, CUBE[[0, 5, 5]], [[0.5, 0.5, 0.5]] * 2])) == 1.0
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(13, 3))
    doubled = np.vstack([pts, pts[[2, 7, 7, 11]]])
    assert hull_volume(doubled) == pytest.approx(hull_volume(pts), abs=1e-12)
    _assert_outward_and_watertight(doubled, _hull_triangles(doubled))


def test_many_points_span_several_triple_blocks():
    pts = np.random.default_rng(5).normal(size=(40, 3))  # C(40, 3) = 9880 triples
    assert hull_volume(pts) == pytest.approx(brute_hull_volume(pts), abs=1e-9)
    _assert_outward_and_watertight(pts, _hull_triangles(pts))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(1e-3, 0.3))
def test_noisy_skeleton_frames_match_brute_oracle(seed, sigma):
    frame = static_pose_positions(1)[0] + np.random.default_rng(seed).normal(0, sigma, (13, 3))
    assert hull_volume(frame) == pytest.approx(brute_hull_volume(frame), abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_random_clouds_match_brute_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(30, 3))
    assert hull_volume(pts) == pytest.approx(brute_hull_volume(pts), abs=1e-9)


def test_degenerate_cases_are_zero():
    assert hull_volume(np.zeros((3, 3))) == 0.0  # too few points
    line = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    assert hull_volume(line) == 0.0
    rng = np.random.default_rng(1)
    planar = np.column_stack([rng.normal(size=(15, 2)), np.zeros(15)])
    assert hull_volume(planar) == 0.0
    assert hull_volume(np.ones((8, 3))) == 0.0  # coincident points
    flat_pose = static_pose_positions(1)[0]
    flat_pose[:, 2] = 0.0  # a 13-joint frame squashed into the x-y plane
    assert hull_volume(flat_pose) == 0.0
    assert _hull_triangles(flat_pose) is None


@pytest.mark.parametrize(
    "points",
    [np.zeros((5, 2)), np.zeros((4, 3, 1)), np.zeros(3), [[0, 0, 0], [1, 0, 0], [0, 1, np.nan], [0, 0, 1]],
     [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.inf]]],
)
def test_bad_input_raises(points):
    with pytest.raises(LmaError):
        hull_volume(points)


def test_facets_are_outward_and_watertight():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(25, 3))
    _assert_outward_and_watertight(pts, _hull_triangles(pts))


def test_cube_facets_are_outward_and_watertight():
    facets = _hull_triangles(CUBE)
    assert len(facets) == 12
    _assert_outward_and_watertight(CUBE, facets)


def test_translation_invariance_of_volume():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    v1 = hull_volume(pts)
    v2 = hull_volume(pts + np.array([10.0, -5.0, 3.0]))
    assert v1 == pytest.approx(v2, rel=1e-9)
