"""Envelope construction, gluing, mollification, and their exactness cases."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scext import (
    BallRegion,
    DimensionError,
    DomainSpec,
    ExtensionField,
    GlobalExtension,
    InputError,
    ModulusParams,
    MollifiedApproximant,
    SupportSet,
    build_extension,
    build_support_set,
    constant_bound,
    disk,
    glue_global,
    named_function,
    partition_weights,
)
from scext.extension import _BATCH, _FINE_PER_RADIUS, _NEST, _node_index, _pad
from scext.funcspace import FunctionSpec, _stencil
from scext.geometry import boundary_sample, capped_disk, closure_grid
from scext.gradients import _gradient_samples, reachable_gradients
from scext.scenarios import build_scenario, envelope_neg_abs_x2

from conftest import ball_points, holder_ratio

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


def _per_anchor_support(func, domain, ball, spacing, k_max, m_a, eps_c=0.01):
    """Reference: build_support_set with one reachable_gradients call per
    boundary or singular anchor, as first written."""
    nodes = np.vstack([closure_grid(domain, ball, spacing),
                       boundary_sample(domain, ball, spacing)])
    anchors = nodes[_node_index(nodes)[0]]
    interior = domain.contains_many(anchors, "open")
    r0, h_fd = max(spacing, 1e-3 * ball.radius), 1e-5 * spacing
    inner = anchors[interior]
    mask, grads = _gradient_samples(func, inner, domain, h_fd, eps_c)
    pts, gvecs, srcs = [inner[mask]], [grads], ["smooth"] * int(mask.sum())
    for y in np.vstack([anchors[~interior], inner[~mask]]):
        reps = reachable_gradients(
            func, domain, y, r0=r0, k_max=k_max, m_a=m_a, eps_c=eps_c, h_fd=h_fd,
        ).representatives
        pts.append(np.broadcast_to(y, reps.shape).copy())
        gvecs.append(reps)
        srcs.extend(["reachable"] * reps.shape[0])
    return np.vstack(pts), np.vstack(gvecs), srcs


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

    def test_difference_quotient_split_matches_analytic_split(self, half_disk, unit_ball):
        # without a declared gradient the one-sided-quotient filter must send
        # the same anchors to reachable pairs as the closed form's singular
        # set; anchors within a stencil step of the boundary are left out,
        # since their stencils leave the closure
        analytic = named_function("neg-abs-x2", dimension=2, domain=half_disk)
        plain = dataclasses.replace(analytic, _grad=None)
        parts = []
        for f in (analytic, plain):
            support = build_support_set(f, half_disk, unit_ball, spacing=0.1, k_max=3, m_a=16)
            deep = half_disk.interior_distance(support.points) >= 1e-3
            smooth = deep & (np.array(support.sources) == "smooth")
            multi = np.unique(support.points[deep & ~smooth], axis=0)
            parts.append((support.points[smooth], support.gradients[smooth], multi))
        (pa, ga, ma), (pf, gf, mf) = parts
        assert np.array_equal(pa, pf)
        assert np.allclose(ga, gf, atol=1e-6)
        assert np.array_equal(ma, mf)
        assert ma.shape[0] >= 5 and bool(np.all(ma[:, 1] == 0.0))  # the crease

    @pytest.mark.parametrize("identifier, analytic, normal", [
        ("neg-norm", True, (1.0, 0.0)), ("neg-abs-x2", True, (1.0, 0.0)),
        ("neg-abs-x2", False, (1.0, 0.0)),
        ("neg-norm", True, (0.6, 0.8)), ("neg-abs-x2", False, (0.6, 0.8)),
    ], ids=["neg-norm-True", "neg-abs-x2-True", "neg-abs-x2-False",
            "neg-norm-True-tilted", "neg-abs-x2-False-tilted"])
    def test_matches_per_anchor_reachable_gradients(
        self, unit_ball, identifier, analytic, normal
    ):
        # examples 1 and 2, example 2 through difference quotients, and a
        # tilted face, where x . normal is inexact and the batched membership
        # tests must round each point as the per-anchor ones do
        domain = capped_disk(center=(0.0, 0.0), radius=1.0, normal=normal, offset=0.0)
        func = named_function(identifier, dimension=2, domain=domain)
        if not analytic:
            func = dataclasses.replace(func, _grad=None)
        knobs = dict(spacing=0.05, k_max=6, m_a=64)
        support = build_support_set(func, domain, unit_ball, **knobs)
        points, grads, sources = _per_anchor_support(func, domain, unit_ball, **knobs)
        assert np.array_equal(support.points, points)
        assert np.array_equal(support.gradients, grads)
        assert support.sources == sources
        assert sources.count("reachable") > 100

    def test_gradient_calls_do_not_grow_with_the_anchors(
        self, monkeypatch, half_disk, unit_ball
    ):
        # one call for the interior lattice, then at most one per ring and
        # refinement round; a loop over anchors would make one per anchor
        calls = []
        gradient_many = FunctionSpec.gradient_many

        def counted(self, points):
            calls.append(len(points))
            return gradient_many(self, points)

        monkeypatch.setattr(FunctionSpec, "gradient_many", counted)
        func = named_function("neg-norm", dimension=2, domain=half_disk)
        k_max, m_a = 6, 64
        support = build_support_set(
            func, half_disk, unit_ball, spacing=0.02, k_max=k_max, m_a=m_a
        )
        bound = 1 + k_max * (1 + m_a - max(m_a // 2, 8))
        reachable = support.points[np.array(support.sources) == "reachable"]
        assert np.unique(reachable, axis=0).shape[0] > bound
        assert len(calls) <= bound

    def test_empty_intersection_rejected(self, half_disk, ex1):
        with pytest.raises(InputError):
            build_support_set(
                ex1["func"], half_disk, BallRegion((-5.0, 0.0), 0.5), spacing=0.1
            )


class TestEnvelope:
    def test_grid_node_value_matches_u(self, ex1):
        v = ex1["field"].evaluate_many([(0.5, 0.5)])[0]
        assert v == pytest.approx(-SQRT_HALF, abs=1e-6)
        assert v == pytest.approx(-0.7071067811865476, abs=1e-12)

    def test_left_half_plane_closed_form_for_neg_norm(self, ex1):
        # continuation of -|x| beyond the flat face: -|x2| + x1^2
        assert ex1["field"].evaluate_many([(-0.5, 0.3)])[0] == pytest.approx(-0.05, abs=0.02)

    def test_left_half_plane_closed_form_for_quartic(self, ex3):
        assert ex3["field"].evaluate_many([(-0.2, -0.4)])[0] == pytest.approx(-0.36, abs=0.02)

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
        coarse = ExtensionField(half, ex2["params"], 1.0, ex2["func"], half_disk)
        fine = ExtensionField(support, ex2["params"], 1.0, ex2["func"], half_disk)
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

    def test_raw_envelope_rejects_queries_outside_ball(self, unit_ball):
        # the kernel codes a call's fine keys relative to the call's own
        # minimum; points this far out made the product of the key ranges
        # overflow int64, and two of the three cells shared a code
        rng = np.random.default_rng(0)
        y = rng.uniform(-0.9, 0.9, (400, 2))
        p, u = rng.standard_normal((400, 2)), rng.standard_normal(400)
        support = SupportSet(y, p, u, ["smooth"] * 400, unit_ball, 0.05)
        field = ExtensionField(support, ModulusParams(1.0, 0.0), 1.0, None, None)
        x = np.array([[1, 1], [2 * (2**32 + 0.5), 1], [1, 2 * (2**32 - 0.5)]]) / 24
        with pytest.raises(InputError, match="2 query point"):
            field.envelope_values(x)

    def test_pruning_preserves_envelope(self, ex2, half_disk):
        unpruned = ExtensionField(ex2["support"], ex2["params"], 1.0, ex2["func"], half_disk)
        pts = ball_points(500, seed=9, radius=0.999)
        a = ex2["field"].envelope_values(pts)
        b = unpruned.envelope_values(pts)
        assert float(np.abs(a - b).max()) <= 1e-12


def _dense_envelope(field, pts):
    """All-pairs minimum with the kernel's per-pair expressions: x@q_j + b_j
    plus c|x|^2 after the minimum at alpha = 1, the fractional one otherwise.

    The pairs are padded to a multiple of 8 by repeating the last one, so
    every product runs through gemm with whole column blocks, as the kernel's
    do (see the docstring of scext.extension)."""
    s, c = field.support, field.coefficient
    pad = np.r_[np.arange(s.size), np.full(-s.size % 8, s.size - 1)]
    y, p = s.points[pad], s.gradients[pad]
    offs = s.values[pad] - np.einsum("ij,ij->i", p, y)
    y_sq = np.einsum("ij,ij->i", y, y)
    x_sq = np.einsum("ij,ij->i", pts, pts)
    best = np.full(pts.shape[0], np.inf)
    for lo in range(0, pad.size, 1024):
        yb, pb, ob = y[lo : lo + 1024], p[lo : lo + 1024], offs[lo : lo + 1024]
        if field.params.alpha == 1.0:
            vals = pts @ (pb - 2.0 * c * yb).T + (ob + c * y_sq[lo : lo + 1024])[None, :]
        else:
            d_sq = np.clip(x_sq[:, None] + y_sq[None, lo : lo + 1024] - 2.0 * pts @ yb.T, 0.0, None)
            kernel = d_sq ** (0.5 * (1.0 + field.params.alpha))
            vals = pts @ pb.T + ob[None, :] + c * kernel
        best = np.minimum(best, vals.min(axis=1))
    return best + c * x_sq if field.params.alpha == 1.0 else best


def _span_scan(field, x, cand):
    """The kernel's scan of one span of rows x against the padded list cand:
    the rows are padded to whole gemm column blocks when they are at least
    as many as the candidates (pairs-major); plus c|x|^2 at alpha = 1."""
    n = x.shape[0]
    m = n + -n % 8 if n >= cand.size else n
    x = x[np.minimum(np.arange(m), n - 1)]
    x_sq = np.einsum("ij,ij->i", x, x)
    out = np.empty(m)
    field._scan(x, x_sq, 0, m, cand, out)
    return out[:n] + field.coefficient * x_sq[:n] if field.params.alpha == 1.0 else out[:n]


def _stencil_cloud(field, n_centres, h, seed):
    """Mollifier stencils (the 21-point quadrature grid scaled by 1/h) around
    random centres: a few hundred rows per fine cell, so the finer level is
    built where they fall."""
    nodes = MollifiedApproximant(field, h).nodes / h
    centres = ball_points(n_centres, seed=seed, radius=0.9)
    return (centres[:, None, :] + nodes[None, :, :]).reshape(-1, 2)


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
    """Each query's coarse and fine cell candidates, its finer cell's list
    from one bound pass over the fine cell's list (as ``_scan_list`` refines),
    and the refined list ``_scan_list`` returns for a crowding call all hold a
    pair whose value at the query, computed elementwise without BLAS, equals
    the minimum over all pairs.  Cells are keyed as the kernel keys them."""
    support = SupportSet(y, p, u, ["smooth"] * u.size, ball, 0.05)
    field = ExtensionField(support, ModulusParams(alpha, 0.0), 3.0, None, None)
    offs = u - (y * p).sum(axis=1)
    d_sq = np.clip(
        (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :]
        - 2.0 * (x[:, None, :] * y[None, :, :]).sum(axis=2), 0.0, None
    )
    vals = (x[:, None, :] * p[None, :, :]).sum(axis=2) + offs + 3.0 * d_sq ** (0.5 * (1.0 + alpha))
    finer = np.floor(x / field._sizes[2]).astype(np.int64)
    for i in range(x.shape[0]):
        coarse, fine = (tuple((finer[i] // _NEST ** (2 - level)).tolist()) for level in (0, 1))
        cand = field._candidates(1, [fine])[0]
        (sub,) = field._prune_cells(cand, finer[i : i + 1], field._sizes[2])
        refined = field._scan_list(fine, cand, 10**6)
        assert field._unions[fine] is refined
        lists = (field._candidates(0, [coarse])[0], cand, sub, refined)
        for level, listed in enumerate(lists):
            assert vals[i, listed].min() == vals[i].min(), (level, i, x[i])


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("column, value", [
    ("values", np.nan), ("values", np.inf), ("gradients", -np.inf), ("points", np.nan),
])
def test_non_finite_pairs_rejected(unit_ball, alpha, column, value):
    # one bad pair used to surface as a bare numpy error on the first
    # off-data query: no candidate passes a NaN bound, so a cell list is empty
    y = np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]])
    arrays = {"points": y, "gradients": np.zeros((3, 2)), "values": np.zeros(3)}
    arrays[column][1] = value
    support = SupportSet(
        arrays["points"], arrays["gradients"], arrays["values"], ["smooth"] * 3, unit_ball, 0.5
    )
    with pytest.raises(InputError, match="support pair 1 has a non-finite"):
        ExtensionField(support, ModulusParams(alpha, 0.0), 1.0, None, None)


class TestEnvelopeKernel:
    @pytest.mark.parametrize("n", [2, 13, 500, 5000])
    def test_fractional_envelope_equals_dense_scan(self, half_alpha, half_disk, n):
        pts = _kernel_queries(half_alpha, 5000, seed=12)[:n]
        if n >= 500:
            assert np.any(~half_disk.contains_many(pts, "closure"))
        assert np.array_equal(half_alpha.envelope_values(pts), _dense_envelope(half_alpha, pts))

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_short_spans_scan_either_way_like_the_dense_scan(self, alpha, dim):
        # spans of 1-40 rows against lists of 8-512 pairs: a span at least as
        # long as its list is scanned pairs-major, a shorter one rows-major;
        # both give the dense scan's bits, and so does each row alone
        rng = np.random.default_rng(40 + dim)
        ball = BallRegion(np.zeros(dim), 1.0)
        pts = rng.uniform(-0.5, 0.5, (40, dim))
        for k in (8, 9, 100, 333, 512):
            y = rng.uniform(-0.5, 0.5, (k, dim))
            p, u = rng.standard_normal((k, dim)), rng.standard_normal(k)
            support = SupportSet(y, p, u, ["smooth"] * k, ball, 0.1)
            field = ExtensionField(support, ModulusParams(alpha, 0.0), 1.0, None, None)
            dense = _dense_envelope(field, pts)
            cand = _pad(np.arange(k, dtype=np.int32))
            for n in (1, 2, 7, 8, 9, 16, 31, 40):
                assert _span_scan(field, pts[:n], cand).tobytes() == dense[:n].tobytes(), (k, n)
            alone = np.concatenate([_span_scan(field, pts[i : i + 1], cand) for i in range(40)])
            assert alone.tobytes() == dense.tobytes(), k

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
    @pytest.mark.parametrize("dim", [1, 2, 3])
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
        # (1e-13 inside), of a fine cell and then of a finer one: x is the
        # cell point nearest to y_near and farthest from y_far.  Pair far is
        # below pair near at x by less than the rounding error of the |x|^2 +
        # |y|^2 - 2<x, y> cancellation at |x - y_near| = t, so the computed
        # minimizer can be either, and only the slack keeps both
        cell = ball.radius / _FINE_PER_RADIUS
        diag = np.ones(dim) / math.sqrt(dim)
        fine = rng.integers(-8, 8, size=(12, dim)) * cell
        finer = rng.integers(-24, 24, size=(12, dim)) * (cell / _NEST)
        for corner in np.vstack([fine, finer]):
            x0 = corner + 1e-13
            for t in (3e-9, 1e-8, 3e-8):
                v_near = 3.0 * t ** (1.0 + alpha)
                for frac in (0.01, 0.03, 0.1, 0.3):
                    y2 = np.vstack([x0 - t * diag, x0 + 0.3 * diag])
                    u2 = np.array([0.0, v_near * (1.0 - frac) - 3.0 * 0.3 ** (1.0 + alpha)])
                    _assert_candidates_sound(ball, y2, np.zeros_like(y2), u2, alpha, x0[None, :])

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_steep_gradients_keep_a_dense_minimizer(self, alpha):
        # 60 pairs with gradients of size ~10 that differ by O(10), all equal
        # to within 1e-12 at x0: near x0 the slopes decide the minimizer, and
        # the |s_j - s_b|.h term of the bound decides which pairs a cell
        # keeps.  x0 is a generic point, a fine cell corner and (1e-13
        # inside) a finer one, queried from 1e-15 to 1e-2 away
        rng = np.random.default_rng(37)
        ball = BallRegion((0.0, 0.0), 1.0)
        cell = ball.radius / _FINE_PER_RADIUS
        steps = np.repeat(np.logspace(-15, -2, 14), 20)[:, None]
        for x0 in (np.array([0.1, -0.2]), np.array([2.0, 3.0]) * cell,
                   np.array([-4.0, 1.0]) * (cell / _NEST) + 1e-13):
            y = x0 + rng.uniform(-0.3, 0.3, size=(60, 2))
            p = 10.0 * rng.standard_normal((60, 2))
            gap = np.linalg.norm(x0 - y, axis=1)
            u = ((y - x0) * p).sum(axis=1) - 3.0 * gap ** (1.0 + alpha)
            u += 1e-12 * rng.standard_normal(60)
            dirs = rng.standard_normal((steps.size, 2))
            x = x0 + steps * dirs / np.linalg.norm(dirs, axis=1)[:, None]
            _assert_candidates_sound(ball, y, p, u, alpha, np.vstack([x0, x]))

    @pytest.mark.parametrize(
        "example, alpha, limit",
        # half the mean fine list length of the absolute-bound filter, which
        # kept 2,513 pairs of 16,833 (example 1) and 435 of 4,180 (example 2)
        [("ex1", 1.0, 1256.0), ("ex2", 0.5, 217.0)],
    )
    def test_fine_cells_keep_few_candidates(self, request, half_disk, example, alpha, limit):
        bundle = request.getfixturevalue(example)
        support = bundle["support"]
        field = ExtensionField(support, ModulusParams(alpha, 0.0), 1.0, bundle["func"], half_disk)
        field.envelope_values(support.node_points())
        assert field._index[1]
        assert np.mean([cand.size for cand in field._index[1].values()]) <= limit


    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_crowded_cells_equal_dense_scan(self, ex2, half_disk, alpha):
        # dense stencil clouds build refined lists; the values must not
        # depend on them, on the batch, or on which cells earlier calls built
        support, params = ex2["support"], ModulusParams(alpha, 0.0)
        pts = _stencil_cloud(ex2["field"], 40, 20, seed=41)
        field = ExtensionField(support, params, 1.0, ex2["func"], half_disk)
        whole = field.envelope_values(pts)
        assert field._unions, "no fine cell was scanned against a refined list"
        for key, refined in field._unions.items():
            assert np.isin(refined, field._index[1][key]).all()
        assert np.array_equal(whole, _dense_envelope(field, pts))
        perm = np.random.default_rng(42).permutation(pts.shape[0])
        for cold in (True, False):
            f = ExtensionField(support, params, 1.0, ex2["func"], half_disk) if cold else field
            chunks = np.array_split(perm, 29)
            shuffled = np.concatenate([f.envelope_values(pts[idx]) for idx in chunks])
            assert np.array_equal(shuffled, whole[np.concatenate(chunks)])
        single = perm[:300]
        rows = np.concatenate([field.envelope_values(pts[i : i + 1]) for i in single])
        assert np.array_equal(rows, whole[single])

def _dense_prune(support, params, coefficient):
    """Reference pruning: every pair checked against every node, O(K^2).

    Returns the kept mask.  A pair is dropped if it undercuts u at some node
    by more than the tolerance; an anchor that would lose all its pairs keeps
    its least-violating one."""
    Y, P, U = support.points, support.gradients, support.values
    a, c = params.alpha, coefficient
    tol = 5e-13 * max(1.0, float(np.max(np.abs(U))))
    z_sq = np.einsum("ij,ij->i", Y, Y)
    worst = np.empty(Y.shape[0])
    for lo in range(0, Y.shape[0], 1024):
        yb, pb, ub = Y[lo : lo + 1024], P[lo : lo + 1024], U[lo : lo + 1024]
        y_sq = np.einsum("ij,ij->i", yb, yb)
        d_sq = np.clip(z_sq[:, None] + y_sq[None, :] - 2.0 * Y @ yb.T, 0.0, None)
        kernel = d_sq if a == 1.0 else d_sq ** (0.5 * (1.0 + a))
        vals = Y @ pb.T + (ub - np.einsum("ij,ij->i", yb, pb))[None, :] + c * kernel
        worst[lo : lo + 1024] = (U[:, None] - vals).max(axis=0)
    keep = worst <= tol
    _, anchor_ids = np.unique(np.round(Y / 1e-9).astype(np.int64), axis=0, return_inverse=True)
    anchor_ids = anchor_ids.reshape(-1)
    for aid in np.unique(anchor_ids):
        members = np.flatnonzero(anchor_ids == aid)
        if not keep[members].any():
            keep[members[np.argmin(worst[members])]] = True
    return keep


def _assert_kept(field, support, keep):
    kept = field.support
    assert field.n_pruned == int((~keep).sum())
    assert np.array_equal(kept.points, support.points[keep])
    assert np.array_equal(kept.gradients, support.gradients[keep])
    assert np.array_equal(kept.values, support.values[keep])
    assert kept.sources == [s for s, k in zip(support.sources, keep) if k]


@pytest.fixture(scope="module")
def ex1_coarse(ex1, half_disk, unit_ball):
    return build_support_set(ex1["func"], half_disk, unit_ball, spacing=0.02)


class TestPruning:
    @pytest.mark.parametrize(
        "example, alpha", [("ex1", 1.0), ("ex1", 0.5), ("ex3", 1.0), ("ex3", 0.8)]
    )
    def test_kept_pairs_match_dense_check(self, request, ex1_coarse, half_disk, example, alpha):
        bundle = request.getfixturevalue(example)
        support = ex1_coarse if example == "ex1" else bundle["support"]
        params = ModulusParams(alpha, 0.0)
        keep = _dense_prune(support, params, 1.0)
        # sampled reachable gradients undercut u here, so the check has work to do
        assert not keep.all()
        field = build_extension(bundle["func"], half_disk, support, params, coefficient=1.0)
        _assert_kept(field, support, keep)
        pts = _kernel_queries(field, 2000, seed=17)
        assert field.envelope_values(pts).tobytes() == _dense_envelope(field, pts).tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_planted_violations(self, unit_ball, alpha):
        # u = 0 on a 7x7 lattice, one flat pair per node, plus: a steep second
        # pair at node a, which undercuts u at a's left neighbour, and three
        # steep pairs replacing node b's flat one, each undercutting u on b's left
        ticks = 0.1 * np.arange(-3, 4)
        nodes = np.column_stack([g.ravel() for g in np.meshgrid(ticks, ticks)])
        a, b = 10, 31
        flat = np.delete(np.arange(nodes.shape[0]), b)
        y = np.vstack([nodes[flat], nodes[[a, b, b, b]]])
        p = np.vstack([np.zeros((flat.size, 2)), [[3.0, 0.0], [2.0, 0.0], [0.5, 0.0], [1.0, 0.0]]])
        support = SupportSet(y, p, np.zeros(y.shape[0]), ["smooth"] * y.shape[0], unit_ball, 0.1)
        params = ModulusParams(alpha, 0.0)
        keep = _dense_prune(support, params, 1.0)
        field = build_extension(None, None, support, params, coefficient=1.0)
        _assert_kept(field, support, keep)
        # the planted pair goes; b keeps only its least-violating pair, p = (0.5, 0)
        want = np.ones(y.shape[0], dtype=bool)
        want[[flat.size, flat.size + 1, flat.size + 3]] = False
        assert np.array_equal(keep, want)


    def test_kept_field_rebuilds_cells_whose_minimizer_is_pruned(self, unit_ball):
        # u = 0 on a lattice, one flat pair per node, plus a steep pair at a
        # whose values fall fast to its right: it has the smallest centre
        # value of the cells there, so it is their reference pair in the full
        # field, and it undercuts u at their nodes.  The kept field's cells,
        # built after pruning, give the dense minimum over the kept pairs
        ticks = 0.1 * np.arange(-9, 10)
        nodes = np.column_stack([g.ravel() for g in np.meshgrid(ticks, ticks)])
        nodes = nodes[np.linalg.norm(nodes, axis=1) <= 0.95]
        a = int(np.flatnonzero((np.abs(nodes - [-0.5, 0.0]) < 1e-9).all(axis=1))[0])
        y = np.vstack([nodes, nodes[a]])
        p = np.vstack([np.zeros_like(nodes), [-10.0, 0.0]])
        support = SupportSet(y, p, np.zeros(y.shape[0]), ["smooth"] * y.shape[0], unit_ball, 0.1)
        params = ModulusParams(1.0, 0.0)
        keep = _dense_prune(support, params, 1.0)
        assert not keep[-1] and keep[:-1].all()
        field = build_extension(None, None, support, params, coefficient=1.0)
        _assert_kept(field, support, keep)
        pts = np.vstack([ball_points(3000, seed=3, radius=0.999), nodes])
        assert np.array_equal(field.envelope_values(pts), _dense_envelope(field, pts))

class TestNodeEnvelope:
    def test_unpruned_field_keeps_the_node_call_of_its_build(self, affine_bundle):
        # nothing is pruned, so build_extension returns the field whose
        # node envelope it computed, and the extend stage reads that value
        field = affine_bundle["field"]
        assert field.n_pruned == 0 and field._node_env is not None
        want = field.envelope_values(field.support.node_points())
        assert field.node_envelope() is field.node_envelope()
        assert field.node_envelope().tobytes() == want.tobytes()

    def test_pruned_field_computes_its_own(self, ex1):
        field = ex1["field"]
        assert field.n_pruned > 0
        want = field.envelope_values(field.support.node_points())
        assert field.node_envelope().tobytes() == want.tobytes()


# tracemalloc peaks of build_support_set before the support path's working
# set was sized by the work done (numpy 2.4, 2-vCPU x86_64): the ball of the
# affine-sanity scenario's cover, and example1's ball
_PARENT_PEAK_MB = {"cover": 12.81, "example1": 13.85}


class TestWorkingSet:
    def test_no_masked_array_import(self):
        # 1-D np.unique imports numpy.ma on its first call; the kernel's
        # refined lists and the prune's group leaders do without it.  A fresh
        # process: this one may have imported numpy.ma for other tests
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from scext import BallRegion, ModulusParams, build_extension, build_support_set\n"
            "from scext import disk, named_function\n"
            "dom = disk([1.0, 0.0], 1.0)\n"
            "f = named_function('neg-norm', dimension=2, domain=dom)\n"
            "support = build_support_set(f, dom, BallRegion([0.0, 0.0], 0.5), spacing=0.02)\n"
            "field = build_extension(f, dom, support, ModulusParams(1.0, 1.0))\n"
            "field.envelope_values(np.random.default_rng(0).uniform(-0.3, -0.29, (2000, 2)))\n"
            "print(field.n_pruned, len(field._unions), 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        n_pruned, n_refined, loaded = proc.stdout.split()
        assert int(n_pruned) > 0 and int(n_refined) > 0
        assert loaded == "False"

    @pytest.mark.parametrize("ball, bound", [("cover", 0.7), ("example1", 1.0)])
    def test_support_build_peak(self, half_disk, ball, bound):
        if ball == "cover":
            dom = disk((0.0, 0.0), 1.0)
            func = named_function("affine", dimension=2, domain=dom,
                                  params={"p": [0.3, -0.7], "b": 0.1})
            args = (func, dom, BallRegion((0.0, 0.0), 1.2))
        else:
            func = named_function("neg-norm", dimension=2, domain=half_disk)
            args = (func, half_disk, BallRegion((0.0, 0.0), 1.0), 0.01)
        tracemalloc.start()
        try:
            build_support_set(*args)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= bound * _PARENT_PEAK_MB[ball]


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
        glued = glue_global(dom, cover, fields, func=func)
        probes = np.linspace(0.0, 1.0, 501)[:, None]
        want = probes[:, 0] * (1.0 - probes[:, 0])
        assert float(np.abs(glued.evaluate_many(probes) - want).max()) <= 1e-12

    def test_single_ball_cover_equals_local_field(self, affine_bundle):
        cover = [BallRegion((0.0, 0.0), 1.2)]
        func = affine_bundle["func"]
        dom = affine_bundle["domain"]
        support = build_support_set(func, dom, cover[0], spacing=0.1)
        field = build_extension(func, dom, support, affine_bundle["params"], coefficient=1.0)
        glued = glue_global(dom, cover, [field], func=func)
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
        glued = glue_global(half_disk, cover, fields, func=func)
        pts = np.array([[0.1, 0.0], [0.05, 0.1], [0.02, -0.05]])
        w = glued.weights(pts)
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
        w = weights(pts)
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

    def test_cover_ball_of_another_dimension_is_rejected(self, half_disk):
        with pytest.raises(DimensionError):
            partition_weights(half_disk, [BallRegion((0.0,), 0.5)])

    def test_two_ball_cover_in_2d_is_pinned(self, ex2, half_disk):
        # digests of the weight matrix and of the glued values on 1,000
        # seeded points near the overlap cover; the domain weight is live on
        # about half of them and both ball weights on 178
        func = ex2["func"]
        cover = [BallRegion((0.0, 0.3), 0.5), BallRegion((0.0, -0.3), 0.5)]
        fields = [
            build_extension(
                func, half_disk, build_support_set(func, half_disk, b, spacing=0.05),
                ex2["params"], coefficient=1.0,
            )
            for b in cover
        ]
        rng = np.random.default_rng(31)
        cand = rng.uniform((-0.45, -0.75), (0.45, 0.75), size=(3000, 2))
        near = np.zeros(cand.shape[0], dtype=bool)
        for b in cover:
            near |= np.linalg.norm(cand - b.center, axis=1) < 0.95 * b.radius
        pts = cand[near][:1000]
        assert pts.shape == (1000, 2)
        glued = glue_global(half_disk, cover, fields, func=func)
        w = glued.weights(pts)
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "c93bffa74fed8e24fc39cf24ba3d4c4292cf8cc5fc7d4cb19b7a63d110a96106"
        )
        assert hashlib.sha256(glued.evaluate_many(pts).tobytes()).hexdigest() == (
            "b32bc20b5a3ad0282111cf96343031305e97a572c4ac242a7d56f05aa8ae52c7"
        )


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

    @pytest.mark.parametrize("h", [10, 40])
    def test_batches_equal_per_point_stencils(self, request, h):
        # the field takes several points' stencils per call; each field value
        # must be the one the point's stencil gets alone, and the weighted
        # sums run on blocks of 8192 // L points (per-point approx(x) sums one
        # row, which BLAS rounds differently).  Centres near the face x1 = 0
        # give stencils inside, outside, across and within the test margin of
        # the data region's edge (ex1's field is pruned; affine_bundle's data
        # region is its whole ball)
        for name in ("ex1", "ex2", "half_alpha", "affine_bundle"):
            fixture = request.getfixturevalue(name)
            field = fixture if isinstance(fixture, ExtensionField) else fixture["field"]
            approx = MollifiedApproximant(field, h=h)
            rho = float(np.linalg.norm(approx.nodes, axis=1).max()) / h
            gaps = [0.0, 1 / h, 1 / h + 1e-9, 1 / h - 1e-9, rho, rho + 2e-9, rho - 2e-9,
                    rho + 5e-10, rho - 5e-10]
            edge = [[sign * gap, x2] for gap in gaps for sign in (1.0, -1.0)
                    for x2 in (-0.3, 0.0, 0.2)]
            pts = np.vstack([ball_points(500, seed=17, radius=0.49), edge])
            step = 8192 // approx.nodes.shape[0]
            per_point = np.vstack([field.evaluate_many(x + approx.nodes / h) for x in pts])
            want = np.concatenate(
                [per_point[lo : lo + step] @ approx.weights for lo in range(0, pts.shape[0], step)]
            )
            assert np.array_equal(approx.evaluate_many(pts), want), name
            assert np.array_equal(approx.evaluate_many(pts[:step]), want[:step]), name

    def test_only_stencils_at_the_edge_are_tested_row_by_row(self, ex2, monkeypatch):
        # a stencil of radius rho clear of the face x1 = 0 by more than rho
        # plus the margin goes whole to u or to the kernel; one within it,
        # even if all its rows lie on one side, is tested row by row
        field = ex2["field"]
        approx = MollifiedApproximant(field, h=10)
        offsets = approx.nodes / 10
        rho = float(np.linalg.norm(offsets, axis=1).max())
        centres = np.array([[0.3, 0.1], [-0.3, 0.1], [0.0, 0.1], [rho + 5e-10, 0.1],
                            [-rho - 2e-9, 0.1]])
        tested = []
        on_data = field._on_data

        def spy(rows):
            tested.append(rows.copy())
            return on_data(rows)

        monkeypatch.setattr(field, "_on_data", spy)
        got = field.stencil_values(centres, offsets)
        assert len(tested) == 1
        assert np.array_equal(tested[0], (centres[2:4, None] + offsets).reshape(-1, 2))
        for x, row in zip(centres, got):
            assert np.array_equal(row, field.evaluate_many(x + offsets))

    @pytest.mark.parametrize("x1", [0.95, -0.95])
    def test_stencils_leaving_the_ball_are_refused(self, ex2, x1):
        # at x1 = -0.95 the whole stencil is off the closure, yet some rows
        # leave the ball: it must not go to the kernel unchecked
        field = ex2["field"]
        offsets = MollifiedApproximant(field, h=10).nodes / 10
        with pytest.raises(InputError, match="outside the source ball"):
            field.stencil_values(np.array([[0.0, 0.0], [x1, 0.0]]), offsets)

    def test_field_calls_hold_at_most_batch_rows(self, ex2, monkeypatch):
        field = ex2["field"]
        approx = MollifiedApproximant(field, h=10)
        seen = {"stencil": [], "kernel": [], "u": []}

        def spy(what, fn, rows):
            def counted(*args):
                seen[what].append(rows(*args))
                return fn(*args)
            return counted

        monkeypatch.setattr(field, "stencil_values", spy(
            "stencil", field.stencil_values, lambda c, o: c.shape[0] * o.shape[0]))
        monkeypatch.setattr(field, "_min_over_pairs", spy(
            "kernel", field._min_over_pairs, lambda p: p.shape[0]))
        monkeypatch.setattr(field, "func", dataclasses.replace(field.func))
        monkeypatch.setattr(field.func, "evaluate_many", spy(
            "u", field.func.evaluate_many, lambda p: p.shape[0]))
        pts = ball_points(1000, seed=3, radius=0.49)
        approx.evaluate_many(pts)
        assert len(seen["stencil"]) > 1
        assert sum(seen["stencil"]) == pts.shape[0] * approx.nodes.shape[0]
        for what in ("stencil", "kernel", "u"):
            assert 0 < len(seen[what]) <= len(seen["stencil"])
            assert max(seen[what]) <= _BATCH

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

    def test_half_ball_edge_carries_the_boundary_tolerance(self, ex2):
        # the unit field ball halves to radius 0.5, widened by BOUNDARY_TOL
        approx = MollifiedApproximant(ex2["field"], h=10)
        edge = 0.5 * (1.0 + 1e-12) + 1e-12
        assert np.isfinite(approx.evaluate_many(np.array([[edge, 0.0]]))).all()
        with pytest.raises(InputError, match="half-radius ball"):
            approx.evaluate_many(np.array([[np.nextafter(edge, 1.0), 0.0]]))


@pytest.fixture(scope="module")
def affine_glued():
    """The glued field of the affine-sanity scenario, built as its glue stage
    builds it: one cover ball of radius 1.2 around the unit disk."""
    sc = build_scenario("affine-sanity")
    params = ModulusParams(alpha=1.0, C=sc.default_C)
    cover = sc.cover
    fields = [
        build_extension(sc.func, sc.domain, build_support_set(sc.func, sc.domain, b), params)
        for b in cover
    ]
    return glue_global(sc.domain, cover, fields, func=sc.func)


@pytest.fixture(scope="module")
def function_likes(affine_bundle, affine_glued):
    return {
        "FunctionSpec": affine_bundle["func"],
        "ExtensionField": affine_bundle["field"],
        "GlobalExtension": affine_glued,
        "MollifiedApproximant": MollifiedApproximant(affine_bundle["field"], h=10),
    }


class TestFunctionLikes:
    @pytest.mark.parametrize(
        "kind", ["FunctionSpec", "ExtensionField", "GlobalExtension", "MollifiedApproximant"]
    )
    def test_one_call_surface(self, kind, function_likes):
        f = function_likes[kind]
        assert type(f).__name__ == kind
        pts = ball_points(40, seed=19, radius=0.45)
        vals = f.evaluate_many(pts)
        assert isinstance(vals, np.ndarray)
        assert vals.dtype == np.float64 and vals.shape == (40,)
        for x in pts:
            # a lone row gives a float, and the same bits on a repeat call
            one = f.evaluate_many(x[None])[0]
            assert isinstance(one, float)
            assert one == f.evaluate_many(x[None])[0]
        assert isinstance(f.identifier, str)
        dom = f.evaluation_domain
        assert dom is None or isinstance(dom, DomainSpec)
        assert (dom is None) == (kind == "GlobalExtension")

    @pytest.mark.parametrize("x", [(0.5, 0.2), (0.99, 0.0)])
    def test_glued_field_reachable_set_is_the_affine_slope(self, x, affine_glued):
        # the glued field declares no domain, so its central-difference
        # stencils are placed without a domain guard
        assert affine_glued.evaluation_domain is None
        rset = reachable_gradients(affine_glued, affine_glued.domain, x, r0=0.005)
        assert rset.representatives.shape == (1, 2)
        np.testing.assert_allclose(rset.representatives[0], (0.3, -0.7), atol=1e-6)


class _Shim:
    def __init__(self, fn):
        self._fn = fn

    def evaluate_many(self, pts):
        return self._fn(np.atleast_2d(pts))


def _summands_pass_filter(fields: list, x, h_fd: float, eps_c: float) -> bool:
    """If the sum of the fields passes the one-sided-quotient filter at x,
    whether every summand passes too; true when the sum fails it."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    stencil = _stencil(x[None, :], h_fd, centre=True)

    def wobble(vals) -> float:
        fwd = (vals[1 : d + 1] - vals[0]) / h_fd
        bwd = (vals[0] - vals[d + 1 :]) / h_fd
        return float(np.abs(fwd - bwd).max())

    parts = [f.evaluate_many(stencil) for f in fields]
    return wobble(sum(parts)) > eps_c or all(wobble(vals) <= eps_c for vals in parts)


class TestSummandProbe:
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

        def masked_term(j, f):
            # local fields are only evaluable on their own balls, so skip
            # the points their weight already zeroes out
            def term(p):
                p = np.atleast_2d(p)
                wv = weights(p)[:, j]
                out = np.zeros(p.shape[0])
                m = wv > 0.0
                if np.any(m):
                    out[m] = wv[m] * f.evaluate_many(p[m])
                return out

            return _Shim(term)

        parts = [masked_term(j, f) for j, f in enumerate(fields)]
        parts.append(_Shim(lambda p: weights(p)[:, -1] * func.evaluate_many(p)))
        rng = np.random.default_rng(19)
        n_checked = 0
        while n_checked < 200:
            x = rng.uniform((0.02, -0.45), (0.3, 0.45))
            if abs(x[1]) < 0.05:
                continue  # skip the crease of the glued surface
            assert _summands_pass_filter(parts, x, h_fd=1e-5, eps_c=0.02)
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
