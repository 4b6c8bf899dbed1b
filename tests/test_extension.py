"""Envelope construction, gluing, mollification, and their exactness cases."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scext import (
    BallRegion,
    InputError,
    ModulusParams,
    MollifiedApproximant,
    SupportSet,
    build_extension,
    build_support_set,
    constant_bound,
    disk,
    extend,
    glue_global,
    holder_ratio,
    named_function,
    partition_weights,
    summand_differentiability_probe,
)
from scext.extension import _FINE_PER_RADIUS
from scext.scenarios import envelope_neg_abs_x2

from conftest import ball_points

SQRT_HALF = math.sqrt(0.5)


@pytest.fixture(scope="module")
def affine_bundle(unit_ball):
    # the closure covers the whole ball, so the envelope must equal the
    # function at every query point, not just on a sub-region
    dom = disk((0.0, 0.0), 1.0)
    func = named_function(
        "affine", dimension=2, domain=dom, params={"p": [0.3, -0.7], "b": 0.1}
    )
    params = ModulusParams(alpha=1.0, C=0.0)
    support = build_support_set(func, dom, unit_ball, spacing=0.05)
    field = build_extension(func, dom, support, params, coefficient=1.0)
    return {"func": func, "domain": dom, "support": support, "field": field, "params": params}


class TestConstantBound:
    def test_linear_modulus_concave_case(self):
        assert constant_bound(ModulusParams(alpha=1.0, C=0.0)) == 6.0

    def test_fractional_case(self):
        v = constant_bound(ModulusParams(alpha=0.5, C=1.0))
        assert v == pytest.approx(2.0 * 1.5 * (1.0 + 2.0**1.5), abs=1e-12)
        assert v == pytest.approx(11.485281374238571, abs=1e-12)

    def test_degenerate_coefficient(self):
        assert constant_bound(ModulusParams(alpha=1.0, C=-1.0)) == 0.0

    def test_explicit_coefficient_overrides(self):
        assert constant_bound(ModulusParams(alpha=1.0, C=9.0), coefficient=1.0) == 6.0


class TestHolderRatio:
    def test_linear_modulus_gradient_ratio_is_two(self):
        rng = np.random.default_rng(12)
        params = ModulusParams(alpha=1.0, C=0.0)
        for _ in range(50):
            y, x, z = rng.uniform(-1.0, 1.0, (3, 2))
            if np.linalg.norm(x - z) < 1e-9:
                continue
            assert holder_ratio(y, x, z, params, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_base_point_case_gives_coefficient_times_order(self):
        params = ModulusParams(alpha=0.5, C=0.0)
        y = np.array([0.2, -0.1])
        z = np.array([0.7, 0.3])
        assert holder_ratio(y, y, z, params, 1.0) == pytest.approx(1.5, abs=1e-12)
        assert holder_ratio(y, y, z, params, 3.0) == pytest.approx(4.5, abs=1e-12)

    def test_coincident_arguments_rejected(self):
        with pytest.raises(InputError):
            holder_ratio((0.0, 0.0), (0.3, 0.1), (0.3, 0.1), ModulusParams(1.0, 0.0), 1.0)

    def test_random_scan_respects_proven_bound(self):
        params = ModulusParams(alpha=0.5, C=0.0)
        bound = 1.5 * (1.0 + 2.0**1.5)
        pts = ball_points(3 * 2000, seed=77).reshape(-1, 3, 2)
        worst = 0.0
        for y, x, z in pts:
            if np.linalg.norm(x - z) < 1e-12:
                continue
            worst = max(worst, holder_ratio(y, x, z, params, 1.0))
        assert worst <= bound + 1e-9


class TestSupportSet:
    def test_interior_node_carries_analytic_gradient(self, ex1):
        support = ex1["support"]
        at = np.flatnonzero(np.linalg.norm(support.points - [0.5, 0.5], axis=1) < 1e-9)
        assert at.size == 1
        assert np.allclose(
            support.gradients[at[0]], (-SQRT_HALF, -SQRT_HALF), atol=1e-12
        )
        assert support.sources[at[0]] == "smooth"

    def test_boundary_node_gets_limit_gradient(self, ex1):
        support = ex1["support"]
        at = np.flatnonzero(np.linalg.norm(support.points - [0.0, 0.5], axis=1) < 1e-9)
        assert at.size >= 1
        best = min(
            float(np.linalg.norm(support.gradients[i] - [0.0, -1.0])) for i in at
        )
        assert best <= 0.05

    def test_origin_carries_multiple_arc_pairs(self, ex1):
        support = ex1["support"]
        at = np.flatnonzero(np.linalg.norm(support.points, axis=1) < 1e-9)
        assert at.size >= 8
        grads = support.gradients[at]
        assert float(np.abs(np.linalg.norm(grads, axis=1) - 1.0).max()) <= 0.05
        assert float(grads[:, 0].max()) <= 0.05

    def test_every_anchor_in_closure_and_gradient_bounded(self, ex2, half_disk):
        support = ex2["support"]
        assert bool(np.all(half_disk.contains_many(support.points, "closure")))
        assert float(np.linalg.norm(support.gradients, axis=1).max()) <= 1.0 + 0.05

    def test_empty_intersection_rejected(self, half_disk, ex1):
        with pytest.raises(InputError):
            build_support_set(
                ex1["func"], half_disk, BallRegion((-5.0, 0.0), 0.5), spacing=0.1
            )


class TestEnvelope:
    def test_grid_node_value_matches_u(self, ex1):
        v = extend(ex1["field"], (0.5, 0.5))
        assert v == pytest.approx(-SQRT_HALF, abs=1e-6)
        assert v == pytest.approx(-0.7071067811865476, abs=1e-12)

    def test_left_half_plane_closed_form_for_neg_norm(self, ex1):
        # continuation of -|x| beyond the flat face: -|x2| + x1^2
        assert extend(ex1["field"], (-0.5, 0.3)) == pytest.approx(-0.05, abs=0.02)

    def test_left_half_plane_closed_form_for_quartic(self, ex3):
        assert extend(ex3["field"], (-0.2, -0.4)) == pytest.approx(-0.36, abs=0.02)

    def test_affine_reproduced_everywhere(self, affine_bundle):
        field = affine_bundle["field"]
        pts = ball_points(200, seed=5, radius=0.999)
        want = pts @ np.array([0.3, -0.7]) + 0.1
        assert float(np.abs(field.evaluate_many(pts) - want).max()) <= 1e-9

    def test_affine_on_half_disk_exact_on_closure_dominated_outside(self, half_disk, unit_ball):
        func = named_function(
            "affine", dimension=2, domain=half_disk, params={"p": [0.3, -0.7], "b": 0.1}
        )
        support = build_support_set(func, half_disk, unit_ball, spacing=0.05)
        field = build_extension(
            func, half_disk, support, ModulusParams(1.0, 0.0), coefficient=1.0
        )
        pts = ball_points(300, seed=23, radius=0.999)
        inside = half_disk.contains_many(pts, "closure")
        want = pts @ np.array([0.3, -0.7]) + 0.1
        err = field.evaluate_many(pts) - want
        assert float(np.abs(err[inside]).max()) <= 1e-9
        # beyond the closure the envelope sits above the affine plane by the
        # kernel term, so it never dips below it
        assert float(err[~inside].min()) >= -1e-12

    def test_identity_at_support_nodes(self, ex2):
        field = ex2["field"]
        nodes = field.support.node_points()
        u_vals = ex2["func"].evaluate_many(nodes)
        assert float(np.abs(field.evaluate_many(nodes) - u_vals).max()) <= 1e-12
        assert float(np.abs(field.envelope_values(nodes) - u_vals).max()) <= 1e-12

    def test_never_exceeds_any_single_pair_bound(self, ex2):
        field = ex2["field"]
        support = field.support
        pts = ball_points(100, seed=6, radius=0.999)
        vals = field.envelope_values(pts)
        for j in range(0, support.size, 37):
            y, p, uy = support.points[j], support.gradients[j], support.values[j]
            gap = np.linalg.norm(pts - y, axis=1)
            upper = uy + (pts - y) @ p + field.coefficient * gap**2
            assert float((vals - upper).max()) <= 1e-12

    def test_refining_the_support_never_raises_values(self, ex2, half_disk):
        support = ex2["support"]
        half = SupportSet(
            support.points[::2].copy(),
            support.gradients[::2].copy(),
            support.values[::2].copy(),
            list(support.sources[::2]),
            support.ball,
            support.spacing,
        )
        coarse = build_extension(
            ex2["func"], half_disk, half, ex2["params"], coefficient=1.0, prune=False
        )
        fine = build_extension(
            ex2["func"], half_disk, support, ex2["params"], coefficient=1.0, prune=False
        )
        pts = ball_points(300, seed=7, radius=0.999)
        assert float((fine.envelope_values(pts) - coarse.envelope_values(pts)).max()) <= 1e-12

    def test_tiled_scan_matches_plain_scan(self, ex2):
        # queries are grouped by cell, so how a batch is split must not move
        # any value by a single bit
        field = ex2["field"]
        pts = ball_points(5000, seed=8, radius=0.999)
        tiled = field.envelope_values(pts)
        plain = np.concatenate(
            [field.envelope_values(pts[lo : lo + 500]) for lo in range(0, 5000, 500)]
        )
        assert np.array_equal(tiled, plain)

    def test_queries_outside_ball_rejected(self, ex2):
        with pytest.raises(InputError):
            ex2["field"].evaluate_many(np.array([[1.5, 0.0]]))

    def test_pruning_preserves_envelope(self, ex2, half_disk):
        unpruned = build_extension(
            ex2["func"], half_disk, ex2["support"], ex2["params"],
            coefficient=1.0, prune=False,
        )
        pts = ball_points(500, seed=9, radius=0.999)
        a = ex2["field"].envelope_values(pts)
        b = unpruned.envelope_values(pts)
        assert float(np.abs(a - b).max()) <= 1e-12


def _dense_envelope(field, pts):
    """All-pairs minimum with the kernel's per-pair expression for alpha < 1.

    The pairs are padded to a multiple of 8 by repeating the last one, so
    every product runs through gemm with whole column blocks, as the kernel's
    do (see the docstring of scext.extension)."""
    s = field.support
    pad = np.r_[np.arange(s.size), np.full(-s.size % 8, s.size - 1)]
    y, p = s.points[pad], s.gradients[pad]
    offs = s.values[pad] - np.einsum("ij,ij->i", p, y)
    y_sq = np.einsum("ij,ij->i", y, y)
    x_sq = np.einsum("ij,ij->i", pts, pts)
    best = np.full(pts.shape[0], np.inf)
    for lo in range(0, pad.size, 1024):
        yb, pb, ob = y[lo : lo + 1024], p[lo : lo + 1024], offs[lo : lo + 1024]
        d_sq = np.clip(x_sq[:, None] + y_sq[None, lo : lo + 1024] - 2.0 * pts @ yb.T, 0.0, None)
        kernel = d_sq ** (0.5 * (1.0 + field.params.alpha))
        vals = pts @ pb.T + ob[None, :] + field.coefficient * kernel
        best = np.minimum(best, vals.min(axis=1))
    return best


@pytest.fixture(scope="module")
def half_alpha(ex2, half_disk):
    """Example 2's support under the fractional modulus alpha = 0.5."""
    return build_extension(ex2["func"], half_disk, ex2["support"], ModulusParams(0.5, 0.0), 1.0)


def _kernel_queries(field, n, seed):
    """Random ball points (on and off the data region) mixed with points on
    cell corners and cell faces, shuffled so every prefix holds all kinds."""
    rng = np.random.default_rng(seed)
    ticks = np.arange(-12, 13) * field._cell
    corners = np.column_stack([g.ravel() for g in np.meshgrid(ticks, ticks)])
    faces = np.column_stack([rng.choice(ticks, 400), rng.uniform(-1.0, 1.0, 400)])
    faces = np.vstack([faces, faces[:, ::-1]])
    special = np.vstack([corners, faces])
    special = special[np.linalg.norm(special, axis=1) <= 0.999]
    pts = np.vstack([special, ball_points(n - special.shape[0], seed=seed, radius=0.999)])
    return pts[rng.permutation(n)]


def _assert_candidates_sound(ball, y, p, u, alpha, x):
    """Each query's cell candidates hold a pair whose value at the query,
    computed elementwise without BLAS, equals the minimum over all pairs."""
    support = SupportSet(y, p, u, ["smooth"] * u.size, ball, 0.05)
    field = build_extension(
        None, None, support, ModulusParams(alpha, 0.0), coefficient=3.0, prune=False
    )
    offs = u - (y * p).sum(axis=1)
    d_sq = np.clip(
        (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :]
        - 2.0 * (x[:, None, :] * y[None, :, :]).sum(axis=2), 0.0, None
    )
    vals = (x[:, None, :] * p[None, :, :]).sum(axis=2) + offs + 3.0 * d_sq ** (0.5 * (1.0 + alpha))
    keys = np.floor(x / field._cell).astype(np.int64)
    for i in range(x.shape[0]):
        cand = field._candidates(tuple(keys[i]))
        assert vals[i, cand].min() == vals[i].min(), (i, x[i])


class TestEnvelopeKernel:
    @pytest.mark.parametrize("n", [2, 13, 500, 5000])
    def test_fractional_envelope_equals_dense_scan(self, half_alpha, half_disk, n):
        pts = _kernel_queries(half_alpha, 5000, seed=12)[:n]
        if n >= 500:
            assert np.any(~half_disk.contains_many(pts, "closure"))
        assert np.array_equal(half_alpha.envelope_values(pts), _dense_envelope(half_alpha, pts))

    def test_fractional_identity_at_support_nodes(self, half_alpha, ex2):
        # at x = y the expression's |x|^2 + |y|^2 - 2<x, y> is zero only up to
        # about 8 eps |y|^2, which the power 1.5/2 lifts to c*(8 eps)^0.75 ~ 8e-12
        nodes = half_alpha.support.node_points()
        u_vals = ex2["func"].evaluate_many(nodes)
        tol = half_alpha.coefficient * (8.0 * np.finfo(float).eps) ** 0.75
        assert float(np.abs(half_alpha.envelope_values(nodes) - u_vals).max()) <= tol

    def test_fractional_never_exceeds_any_single_pair_bound(self, half_alpha):
        support = half_alpha.support
        pts = ball_points(100, seed=6, radius=0.999)
        vals = half_alpha.envelope_values(pts)
        for j in range(0, support.size, 37):
            y, p, uy = support.points[j], support.gradients[j], support.values[j]
            gap = np.linalg.norm(pts - y, axis=1)
            upper = uy + (pts - y) @ p + half_alpha.coefficient * gap**1.5
            assert float((vals - upper).max()) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cell_candidates_hold_a_dense_minimizer(self, alpha, dim):
        # near-coincident anchors carrying nearly equal gradients, queried at
        # and within 1e-15..1e-6 of the anchors
        rng = np.random.default_rng(31)
        ball = BallRegion((0.25,) * dim, 1.0)
        base = ball.center + rng.uniform(-0.6, 0.6, size=(40, dim))
        y = np.vstack([base, base + 1e-12 * rng.standard_normal(base.shape)])
        p = -y / np.linalg.norm(y, axis=1)[:, None]
        y = np.vstack([y, y])
        p = np.vstack([p, p + 1e-10 * rng.standard_normal(p.shape)])
        steps = np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-6])
        x = y[:, None, :] + steps[None, :, None] * rng.standard_normal((y.shape[0], 5, dim))
        _assert_candidates_sound(ball, y, p, -np.linalg.norm(y, axis=1), alpha, x.reshape(-1, dim))
        # two pairs with p = 0 whose bounds are both tight at a cell corner x
        # (1e-13 inside): x is the cell point nearest to y_near and farthest
        # from y_far.  Pair far is below pair near at x by less than the
        # rounding error of the |x|^2 + |y|^2 - 2<x, y> cancellation at
        # |x - y_near| = t, so the computed minimizer can be either, and only
        # the slack keeps both
        cell = ball.radius / _FINE_PER_RADIUS
        diag = np.ones(dim) / math.sqrt(dim)
        for k in rng.integers(-8, 8, size=(12, dim)):
            x0 = k * cell + 1e-13
            for t in (3e-9, 1e-8, 3e-8):
                v_near = 3.0 * t ** (1.0 + alpha)
                for frac in (0.01, 0.03, 0.1, 0.3):
                    y2 = np.vstack([x0 - t * diag, x0 + 0.3 * diag])
                    u2 = np.array([0.0, v_near * (1.0 - frac) - 3.0 * 0.3 ** (1.0 + alpha)])
                    _assert_candidates_sound(ball, y2, np.zeros_like(y2), u2, alpha, x0[None, :])


class TestGlue:
    def test_two_ball_cover_reproduces_u_in_1d(self):
        from scext import box

        dom = box(center=(0.5,), half_widths=(0.5,))
        func = named_function(
            "quadratic", dimension=1, domain=dom,
            params={"a": -1.0, "b": [1.0], "c": 0.0},
        )
        params = ModulusParams(alpha=1.0, C=-1.99)
        cover = [BallRegion((0.0,), 0.3), BallRegion((1.0,), 0.3)]
        fields = [
            build_extension(
                func, dom, build_support_set(func, dom, b), params, coefficient=0.01
            )
            for b in cover
        ]
        weights = partition_weights(dom, cover)
        glued = glue_global(dom, cover, fields, weights, func=func)
        probes = np.linspace(0.0, 1.0, 501)[:, None]
        want = probes[:, 0] * (1.0 - probes[:, 0])
        assert float(np.abs(glued.evaluate_many(probes) - want).max()) <= 1e-12

    def test_single_ball_cover_equals_local_field(self, affine_bundle):
        cover = [BallRegion((0.0, 0.0), 1.2)]
        func = affine_bundle["func"]
        dom = affine_bundle["domain"]
        support = build_support_set(func, dom, cover[0], spacing=0.1)
        field = build_extension(func, dom, support, affine_bundle["params"], coefficient=1.0)
        weights = partition_weights(dom, cover)
        glued = glue_global(dom, cover, [field], weights, func=func)
        pts = ball_points(200, seed=11, radius=1.1)
        assert float(np.abs(glued.evaluate_many(pts) - field.evaluate_many(pts)).max()) <= 1e-9

    def test_overlap_value_is_the_weighted_mean(self, ex2, half_disk):
        func = ex2["func"]
        params = ex2["params"]
        cover = [BallRegion((0.0, 0.3), 0.5), BallRegion((0.0, -0.3), 0.5)]
        fields = [
            build_extension(
                func, half_disk, build_support_set(func, half_disk, b, spacing=0.05),
                params, coefficient=1.0,
            )
            for b in cover
        ]
        weights = partition_weights(half_disk, cover)
        glued = glue_global(half_disk, cover, fields, weights, func=func)
        pts = np.array([[0.1, 0.0], [0.05, 0.1], [0.02, -0.05]])
        w = np.column_stack([wf(pts) for wf in weights])
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        manual = (
            w[:, 0] * fields[0].evaluate_many(pts)
            + w[:, 1] * fields[1].evaluate_many(pts)
            + w[:, 2] * func.evaluate_many(pts)
        )
        assert np.allclose(glued.evaluate_many(pts), manual, atol=1e-12)

    def test_partition_properties_on_probe_grid(self, half_disk):
        cover = [BallRegion((0.0, 0.3), 0.5), BallRegion((0.0, -0.3), 0.5)]
        weights = partition_weights(half_disk, cover)
        pts = ball_points(500, seed=13, radius=0.78)
        w = np.column_stack([wf(pts) for wf in weights])
        covered = np.zeros(pts.shape[0], dtype=bool)
        for b in cover:
            covered |= np.linalg.norm(pts - b.center, axis=1) < 0.97 * b.radius
        covered |= half_disk.interior_distance(pts) >= 0.01
        assert float(w.min()) >= 0.0
        assert float(w.max()) <= 1.0 + 1e-12
        assert np.allclose(w[covered].sum(axis=1), 1.0, atol=1e-12)
        # each weight vanishes outside its own cover element, exactly
        for j, b in enumerate(cover):
            outside = np.linalg.norm(pts - b.center, axis=1) >= b.radius
            assert np.all(w[outside, j] == 0.0)
        outside_domain = ~half_disk.contains_many(pts, "open")
        assert np.all(w[outside_domain, -1] == 0.0)


class TestMollify:
    def test_affine_base_field_reproduced(self, affine_bundle):
        approx = MollifiedApproximant(affine_bundle["field"], h=10)
        pts = ball_points(100, seed=15, radius=0.49)
        want = pts @ np.array([0.3, -0.7]) + 0.1
        assert float(np.abs(approx.evaluate_many(pts) - want).max()) <= 1e-9

    def test_constant_base_field_reproduced(self):
        dom = disk((0.0, 0.0), 1.0)
        func = named_function("constant", dimension=2, domain=dom, params={"value": 2.5})
        support = build_support_set(func, dom, BallRegion((0.0, 0.0), 1.0), spacing=0.1)
        field = build_extension(func, dom, support, ModulusParams(1.0, 0.0), coefficient=1.0)
        approx = MollifiedApproximant(field, h=10)
        pts = ball_points(50, seed=16, radius=0.49)
        assert float(np.abs(approx.evaluate_many(pts) - 2.5).max()) <= 1e-12

    def test_error_shrinks_like_one_over_h_at_a_crease(self, ex2):
        field = ex2["field"]
        x = np.array([[-0.25, 0.0]])
        exact = field.evaluate_many(x)[0]
        for h in (10, 20, 40):
            approx = MollifiedApproximant(field, h=h)
            assert abs(approx.evaluate_many(x)[0] - exact) <= 2.0 / h

    def test_quadrature_weights_normalized_and_even(self, ex2):
        approx = MollifiedApproximant(ex2["field"], h=10)
        assert float(approx.weights.min()) > 0.0
        assert float(approx.weights.sum()) == 1.0
        assert float(np.linalg.norm(approx.nodes, axis=1).max()) < 1.0
        by_node = {tuple(n): w for n, w in zip(approx.nodes, approx.weights)}
        assert len(by_node) == approx.nodes.shape[0]
        for node, w in by_node.items():
            mirrored = tuple(-c for c in node)
            assert by_node[mirrored] == w
        # evenness kills the linear moment (up to summation-order rounding)
        assert float(np.abs(approx.weights @ approx.nodes).max()) <= 1e-15

    def test_small_h_rejected(self, ex2):
        with pytest.raises(InputError):
            MollifiedApproximant(ex2["field"], h=2)

    def test_evaluation_outside_half_ball_rejected(self, ex2):
        approx = MollifiedApproximant(ex2["field"], h=10)
        with pytest.raises(InputError):
            approx.evaluate_many(np.array([[0.9, 0.0]]))


class _Shim:
    def __init__(self, fn):
        self._fn = fn

    def evaluate_many(self, pts):
        return self._fn(np.atleast_2d(pts))


class TestSummandProbe:
    def test_smooth_sum_with_smooth_parts(self):
        f1 = _Shim(lambda p: -np.abs(p[:, 1]) + p[:, 0] ** 2)
        f2 = _Shim(lambda p: p[:, 0] ** 2)
        assert summand_differentiability_probe(
            [f1, f2], (-0.3, 0.2), h_fd=1e-5, eps_c=0.02
        )

    def test_vacuous_when_sum_is_kinked(self):
        f = _Shim(lambda p: -np.abs(p[:, 1]))
        assert summand_differentiability_probe([f, f], (0.3, 0.0), h_fd=1e-5, eps_c=0.02)

    def test_glued_field_summands_smooth_at_smooth_points(self, ex2, half_disk):
        func = ex2["func"]
        cover = [BallRegion((0.0, 0.3), 0.5), BallRegion((0.0, -0.3), 0.5)]
        fields = [
            build_extension(
                func, half_disk, build_support_set(func, half_disk, b, spacing=0.05),
                ex2["params"], coefficient=1.0,
            )
            for b in cover
        ]
        weights = partition_weights(half_disk, cover)

        def masked_term(w, f):
            # local fields are only evaluable on their own balls, so skip
            # the points their weight already zeroes out
            def term(p):
                p = np.atleast_2d(p)
                wv = w(p)
                out = np.zeros(p.shape[0])
                m = wv > 0.0
                if np.any(m):
                    out[m] = wv[m] * f.evaluate_many(p[m])
                return out

            return _Shim(term)

        parts = [masked_term(w, f) for w, f in zip(weights[:-1], fields)]
        parts.append(_Shim(lambda p, w=weights[-1]: w(p) * func.evaluate_many(p)))
        rng = np.random.default_rng(19)
        n_checked = 0
        while n_checked < 200:
            x = rng.uniform((0.02, -0.45), (0.3, 0.45))
            if abs(x[1]) < 0.05:
                continue  # skip the crease of the glued surface
            assert summand_differentiability_probe(parts, x, h_fd=1e-5, eps_c=0.02)
            n_checked += 1


@given(
    yx=st.floats(-0.9, 0.9), yy=st.floats(-0.9, 0.9),
    xx=st.floats(-0.9, 0.9), xy=st.floats(-0.9, 0.9),
    zx=st.floats(-0.9, 0.9), zy=st.floats(-0.9, 0.9),
    alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
)
def test_holder_ratio_bounded_for_random_triples(yx, yy, xx, xy, zx, zy, alpha):
    x, z = np.array([xx, xy]), np.array([zx, zy])
    if np.linalg.norm(x - z) < 1e-9:
        return
    params = ModulusParams(alpha=alpha, C=0.0)
    bound = (1.0 + alpha) * (1.0 + 2.0 ** (2.0 - alpha))
    assert holder_ratio((yx, yy), x, z, params, 1.0) <= bound + 1e-9
