"""Reachable-gradient sets, hulls, normal cones, and singularity detection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scext import (
    EvaluationError,
    InputError,
    ModulusParams,
    convex_hull,
    estimate_constant,
    hull_gap,
    is_singular,
    named_function,
    normal_cone_directions,
    polytope_distance,
    reachable_gradients,
    sample_closure_points,
    supergradient_defect,
)
from scext.funcspace import _REGISTRY
from scext.gradients import ReachableGradientSet, _analytic_samples
from scext.scenarios import hausdorff_to_reference

from conftest import PROBE


def _edge_distance(poly, p) -> float:
    """Distance from p to the polygon boundary (or segment) edges."""
    v = poly.vertices
    if v.shape[0] == 1:
        return float(np.linalg.norm(p - v[0]))
    rings = v if poly.affine_dimension < 2 else np.vstack([v, v[:1]])
    best = math.inf
    for a, b in zip(rings[:-1], rings[1:]):
        ab = b - a
        t = float(np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    return best


class TestReachableSets:
    def test_arc_recovered_for_neg_norm(self, ex1_u_set):
        d = hausdorff_to_reference("left-unit-arc", ex1_u_set.representatives)
        assert d <= 0.05

    def test_two_point_set_for_neg_abs(self, ex2_u_set):
        reps = ex2_u_set.representatives
        assert reps.shape[0] == 2
        dist_up = np.linalg.norm(reps - np.array([0.0, 1.0]), axis=1).min()
        dist_dn = np.linalg.norm(reps - np.array([0.0, -1.0]), axis=1).min()
        assert dist_up <= 0.02 and dist_dn <= 0.02

    def test_segment_filled_for_quartic_example(self, ex3_u_set):
        d = hausdorff_to_reference("vertical-unit-segment", ex3_u_set.representatives)
        assert d <= 0.05

    def test_affine_single_exact_representative(self, half_disk):
        f = named_function(
            "affine", dimension=2, domain=half_disk, params={"p": [0.3, -0.7], "b": 0.1}
        )
        rset = reachable_gradients(f, half_disk, (0.4, 0.1), **PROBE)
        assert rset.representatives.shape == (1, 2)
        assert np.allclose(rset.representatives[0], (0.3, -0.7), atol=1e-12)

    def test_representatives_separated_by_cluster_tolerance(self, ex1_u_set):
        reps = ex1_u_set.representatives
        diff = np.linalg.norm(reps[:, None, :] - reps[None, :, :], axis=2)
        np.fill_diagonal(diff, np.inf)
        assert float(diff.min()) > ex1_u_set.eps_c


def _per_point_gradients(func, pts):
    """Reference: one gradient_many call per point, skipping singular ones."""
    kept, grads = [], []
    for p in pts:
        try:
            grads.append(func.gradient_many(p[None, :])[0])
            kept.append(p)
        except EvaluationError:
            continue
    d = pts.shape[1]
    return np.array(kept).reshape(-1, d), np.array(grads).reshape(-1, d)


class TestAnalyticSamples:
    @pytest.mark.parametrize("identifier", sorted(_REGISTRY))
    @pytest.mark.parametrize("n, singular", [(20_000, False), (2_000, True)])
    def test_batch_matches_single_points(self, identifier, n, singular):
        func = named_function(identifier, dimension=2)
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(n, 2))
        if singular:
            # the origin and the axis x2 = 0 are singular for the creased forms
            pts[[5, 500, 1500]] = [[0.0, 0.0], [0.5, 0.0], [-0.25, 0.0]]
        mask, grads = _analytic_samples(func, pts)
        kept, want = _per_point_gradients(func, pts)
        assert np.array_equal(pts[mask], kept)
        assert np.array_equal(grads, want)


class TestSupergradientDefect:
    def test_hand_values_vanish(self, ex1, ex2, half_disk):
        p0 = ModulusParams(alpha=1.0, C=0.0)
        d1 = supergradient_defect(
            ex1["func"], half_disk, (0.0, 0.0), (-1.0, 0.0), (0.5, 0.0), p0
        )
        assert d1 == 0.0
        d2 = supergradient_defect(
            ex2["func"], half_disk, (0.0, 0.0), (0.0, -1.0), (0.3, 0.4), p0
        )
        assert d2 == 0.0

    def test_y_equal_x_is_zero(self, ex1, half_disk):
        p0 = ModulusParams(alpha=1.0, C=0.0)
        d = supergradient_defect(
            ex1["func"], half_disk, (0.3, 0.2), (-0.8, -0.5), (0.3, 0.2), p0
        )
        assert d == 0.0

    @pytest.mark.parametrize("bundle_name,set_name", [
        ("ex1", "ex1_u_set"), ("ex2", "ex2_u_set"), ("ex3", "ex3_u_set"),
    ])
    def test_one_sided_bound_for_all_representatives(
        self, request, half_disk, unit_ball, bundle_name, set_name
    ):
        bundle = request.getfixturevalue(bundle_name)
        rset = request.getfixturevalue(set_name)
        func = bundle["func"]
        C = estimate_constant(func, half_disk, unit_ball, 1.0, 2000, seed=8) + 0.05
        ys = sample_closure_points(half_disk, unit_ball, 1000, np.random.default_rng(17))
        x0 = np.zeros(2)
        uy = func.evaluate_many(ys)
        ux = func.evaluate_many(x0[None, :])[0]
        gaps = np.linalg.norm(ys - x0, axis=1)
        for p in rset.representatives:
            vals = uy - ux - ys @ p - C * gaps**2
            assert float(vals.max()) <= 5e-3
        # API spot check against the vectorized formula above
        p = rset.representatives[0]
        for y in ys[::200]:
            api = supergradient_defect(
                func, half_disk, x0, p, y, ModulusParams(alpha=1.0, C=C)
            )
            ref = float(
                func.evaluate_many(y[None, :])[0] - ux - p @ y
                - C * np.linalg.norm(y) ** 2
            )
            assert api == pytest.approx(ref, abs=1e-12)


class TestConvexHull:
    def test_two_points_make_a_segment(self):
        poly = convex_hull([(0.0, 1.0), (0.0, -1.0)])
        assert poly.affine_dimension == 1
        assert poly.vertices.shape == (2, 2)

    def test_arc_points_all_extreme_and_ccw(self):
        phi = np.linspace(0.5 * np.pi, 1.5 * np.pi, 32)
        pts = np.column_stack([np.cos(phi), np.sin(phi)])
        poly = convex_hull(pts)
        assert poly.vertices.shape[0] == 32
        ring = np.vstack([poly.vertices, poly.vertices[:1]])
        e = np.diff(ring, axis=0)
        cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
        assert np.all(cross > 0.0)

    def test_interior_point_dropped(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.2)])
        got = {tuple(v) for v in np.round(poly.vertices, 12)}
        assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_collinear_edge_midpoints_dropped(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 1.0)]
        poly = convex_hull(pts)
        got = {tuple(v) for v in np.round(poly.vertices, 12)}
        assert got == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}

    def test_idempotent_on_examples(self, ex1_u_set):
        poly = convex_hull(ex1_u_set.representatives)
        again = convex_hull(poly.vertices)
        assert np.allclose(
            np.sort(poly.vertices, axis=0), np.sort(again.vertices, axis=0), atol=1e-12
        )


@given(
    pts=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=40,
    )
)
def test_hull_idempotent_on_random_clouds(pts):
    poly = convex_hull(pts)
    again = convex_hull(poly.vertices)
    assert poly.affine_dimension == again.affine_dimension
    assert np.allclose(
        np.sort(poly.vertices, axis=0), np.sort(again.vertices, axis=0), atol=1e-9
    )


def _dense_segment_set() -> ReachableGradientSet:
    ts = np.arange(-1.0, 1.0 + 1e-12, 0.01)
    reps = np.column_stack([np.zeros_like(ts), ts])
    return ReachableGradientSet(
        base_point=np.zeros(2),
        representatives=reps,
        r0=0.02, ratio=0.5, k_max=8, eps_c=0.02, m_a=200,
        n_samples=reps.shape[0], methods={},
    )


class TestHullGap:
    def test_arc_set_has_gap_near_origin(self, ex1_u_set):
        cands = hull_gap(ex1_u_set, eps_g=0.01)
        assert cands.shape[0] > 0
        assert float(np.linalg.norm(cands, axis=1).min()) <= 0.02
        poly = convex_hull(ex1_u_set.representatives)
        reps = ex1_u_set.representatives
        for c in cands:
            assert _edge_distance(poly, c) <= 1e-9
            assert float(np.linalg.norm(reps - c, axis=1).min()) > ex1_u_set.eps_c

    def test_filled_segment_has_no_gap(self):
        assert hull_gap(_dense_segment_set(), eps_g=0.01).shape[0] == 0

    def test_singleton_has_no_gap(self):
        single = dataclasses.replace(
            _dense_segment_set(), representatives=np.array([[0.2, -0.4]])
        )
        assert hull_gap(single, eps_g=0.01).shape[0] == 0


class TestNormalCone:
    def test_half_disk_hull_flat_face(self):
        # idealized arc-plus-corners hull: the cone at the face midpoint is
        # spanned by e1 alone
        phi = np.linspace(0.5 * np.pi, 1.5 * np.pi, 64)
        pts = np.column_stack([np.cos(phi), np.sin(phi)])
        poly = convex_hull(pts)
        rays = normal_cone_directions(poly, (0.0, 0.0))
        assert rays.shape[0] >= 1
        for nu in rays:
            assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
            assert np.max(poly.vertices @ nu) <= 1e-9
        assert float(np.linalg.norm(rays - np.array([1.0, 0.0]), axis=1).min()) <= 1e-9

    def test_segment_midpoint_gets_both_perpendiculars(self):
        poly = convex_hull([(0.0, 1.0), (0.0, -1.0)])
        rays = normal_cone_directions(poly, (0.0, 0.0))
        got = {tuple(np.round(r, 9)) for r in rays}
        assert got == {(1.0, 0.0), (-1.0, 0.0)}

    def test_square_vertex_cone(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        rays = normal_cone_directions(poly, (0.0, 0.0))
        got = {tuple(np.round(r, 9)) for r in rays}
        assert (-1.0, 0.0) in got
        assert (0.0, -1.0) in got
        p0 = np.zeros(2)
        for nu in rays:
            assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
            assert float(np.max((poly.vertices - p0) @ nu)) <= 1e-9

    def test_interior_point_has_empty_cone(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        rays = normal_cone_directions(poly, (0.5, 0.5))
        assert rays.shape == (0, 2)

    def test_point_off_the_polytope_rejected(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert polytope_distance(poly, (2.0, 0.0)) > 1e-9
        with pytest.raises(InputError):
            normal_cone_directions(poly, (2.0, 0.0))


class TestIsSingular:
    def test_crease_point_detected(self, ex2, half_disk):
        assert is_singular(ex2["func"], half_disk, (0.5, 0.0), **PROBE)

    def test_smooth_point_not_singular(self, ex2, half_disk):
        assert not is_singular(ex2["func"], half_disk, (0.5, 0.2), **PROBE)

    def test_origin_of_neg_norm_singular(self, ex1, half_disk):
        assert is_singular(ex1["func"], half_disk, (0.0, 0.0), **PROBE)
