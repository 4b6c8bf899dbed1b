"""Propagation condition, direction selection, and singular-arc tracing."""

import dataclasses
import math

import numpy as np
import pytest

from scext import (
    BallRegion,
    DegenerateDirectionError,
    DimensionError,
    ModulusParams,
    build_extension,
    build_support_set,
    check_condition_h,
    named_function,
    propagation_directions,
    select_p0,
    singularity,
    singularity_indicator,
    trace_singular_arc,
)
from scext.geometry import disk
from scext.gradients import DEFAULT_EPS_S

EPS_G = 0.01
EPS_C = 0.02


def _angle_deg(a, b) -> float:
    cosv = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return math.degrees(math.acos(max(-1.0, min(1.0, cosv))))


class TestConditionH:
    def test_arc_set_satisfies_condition(self, ex1_u_set):
        holds, candidates = check_condition_h(ex1_u_set, EPS_G, EPS_C)
        assert holds
        # the chord closing the semicircular hull passes near the origin
        assert float(np.linalg.norm(candidates, axis=1).min()) <= 0.05

    def test_two_point_set_satisfies_condition(self, ex2_u_set):
        holds, candidates = check_condition_h(ex2_u_set, EPS_G, EPS_C)
        assert holds
        # the hull is the vertical unit segment; candidates are its interior
        assert float(np.abs(candidates[:, 0]).max()) <= 1e-9
        assert float(np.abs(candidates[:, 1]).max()) < 1.0

    def test_filled_segment_fails_condition(self, ex3_u_set):
        holds, candidates = check_condition_h(ex3_u_set, EPS_G, EPS_C)
        assert not holds
        assert candidates.shape[0] == 0

    def test_invariant_under_rotation(self, ex1_u_set):
        phi = math.radians(35.0)
        R = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        reps = ex1_u_set.representatives @ R.T
        rotated = dataclasses.replace(
            ex1_u_set, representatives=reps[np.lexsort(reps.T[::-1])]
        )
        holds, cands = check_condition_h(ex1_u_set, EPS_G, EPS_C)
        holds_rot, cands_rot = check_condition_h(rotated, EPS_G, EPS_C)
        assert holds_rot == holds
        mapped = cands @ R.T
        fwd = np.linalg.norm(cands_rot[:, None, :] - mapped[None, :, :], axis=2).min(1)
        bwd = np.linalg.norm(mapped[:, None, :] - cands_rot[None, :, :], axis=2).min(1)
        assert max(float(fwd.max()), float(bwd.max())) <= EPS_G + 1e-9
        theta = propagation_directions(ex1_u_set, select_p0(ex1_u_set, cands))
        theta_rot = propagation_directions(rotated, select_p0(rotated, cands_rot))
        best = min(_angle_deg(t, R @ theta[0]) for t in theta_rot)
        assert best <= 0.5


class TestDirections:
    def test_arc_set_points_left(self, ex1_u_set):
        _, cands = check_condition_h(ex1_u_set, EPS_G, EPS_C)
        p0 = select_p0(ex1_u_set, cands)
        assert float(np.linalg.norm(p0)) <= 0.05
        thetas = propagation_directions(ex1_u_set, p0)
        assert thetas.shape[0] == 1
        assert _angle_deg(thetas[0], (-1.0, 0.0)) <= 1.0
        assert abs(np.linalg.norm(thetas[0]) - 1.0) <= 1e-12

    def test_two_point_set_gives_both_horizontals(self, ex2_u_set):
        _, cands = check_condition_h(ex2_u_set, EPS_G, EPS_C)
        p0 = select_p0(ex2_u_set, cands)
        assert float(np.linalg.norm(p0)) <= 0.05
        thetas = propagation_directions(ex2_u_set, p0)
        got = {tuple(np.round(t, 9)) for t in thetas}
        assert (1.0, 0.0) in got
        assert (-1.0, 0.0) in got

    def test_interior_point_has_no_direction(self, ex1_u_set):
        corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        square = dataclasses.replace(ex1_u_set, representatives=corners)
        with pytest.raises(DegenerateDirectionError):
            propagation_directions(square, (0.0, 0.0))


class TestIndicator:
    def test_crease_jump_detected(self, ex2):
        v = singularity_indicator(ex2["field"], (-0.3, 0.0), rho=0.01)
        assert 1.8 <= v <= 2.1

    def test_smooth_point_quiet(self, ex2):
        assert singularity_indicator(ex2["field"], (-0.3, 0.2), rho=0.01) <= 0.1

    def test_affine_field_is_zero(self, half_disk, unit_ball):
        from scext import ModulusParams, build_extension, build_support_set, named_function

        func = named_function(
            "affine", dimension=2, domain=half_disk, params={"p": [0.2, 0.4], "b": 0.0}
        )
        support = build_support_set(func, half_disk, unit_ball, spacing=0.05)
        field = build_extension(
            func, half_disk, support, ModulusParams(1.0, 0.0), coefficient=1.0
        )
        assert singularity_indicator(field, (0.3, 0.1), rho=0.01) <= 1e-9


class _StubField:
    """A field on a ball given by a closed form; ``form=None`` forbids any
    evaluation."""

    def __init__(self, center, form=None):
        self.ball = BallRegion(center, 1.0)
        self.form = form

    def evaluate_many(self, pts):
        assert self.form is not None, "the field was evaluated"
        return self.form(np.atleast_2d(pts))


def _diagonal_crease(pts):
    return -np.abs(pts[:, 0] - pts[:, 1])


class TestDimensionGuard:
    def test_three_dimensional_ball_rejected_before_evaluation(self):
        field = _StubField((0.0, 0.0, 0.0))
        with pytest.raises(DimensionError):
            singularity_indicator(field, (0.0, 0.0, 0.0), rho=0.01)
        with pytest.raises(DimensionError):
            trace_singular_arc(field, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.05, 0.2)

    def test_indicator_rejects_a_point_of_the_wrong_size(self):
        field = _StubField((0.0, 0.0), _diagonal_crease)
        with pytest.raises(DimensionError):
            singularity_indicator(field, (0.3,), rho=0.01)

    def test_tracer_rejects_a_direction_of_the_wrong_size(self):
        # a one-entry theta used to broadcast to the diagonal, which this
        # field is creased on, and came back as a validated arc
        field = _StubField((0.0, 0.0), _diagonal_crease)
        with pytest.raises(DimensionError):
            trace_singular_arc(field, (0.0, 0.0), (1.0,), 0.05, 0.2)
        with pytest.raises(DimensionError):
            trace_singular_arc(field, (0.0,), (1.0, 1.0), 0.05, 0.2)

    def test_one_dimensional_kink_jump_detected(self):
        field = _StubField((0.0,), lambda pts: -np.abs(pts[:, 0]))
        v = singularity_indicator(field, (0.0,), rho=0.01)
        assert v == pytest.approx(2.0, abs=1e-6)


def _assert_arc_invariants(arc, x0):
    assert np.array_equal(arc.points[0], x0)
    assert arc.s[0] == 0.0
    steps = np.diff(arc.s)
    assert np.all(steps > 0.0)
    assert float(np.linalg.norm(arc.points[1:] - x0, axis=1).min()) > 0.0
    assert float(arc.indicators[1:].min()) > arc.eps_s
    assert float(np.max(arc.residuals[1:4])) <= arc.rho_t
    assert arc.validated
    assert not arc.lost


def _affine_field(ball):
    # on a full-disk domain the envelope is the affine function itself, so
    # every transverse probe reports a zero indicator
    dom = disk((0.0, 0.0), 1.0)
    func = named_function("affine", dimension=2, domain=dom, params={"p": [0.2, 0.4], "b": 0.0})
    support = build_support_set(func, dom, ball, spacing=0.05)
    return build_extension(func, dom, support, ModulusParams(1.0, 0.0), coefficient=1.0)


def _stepwise_arc(field, x0, theta, delta_s, sigma):
    """Reference: the tracer's scan as first written, one indicator call per
    step, stopping at the first step at or below eps_s.  Returns s, points
    and indicators."""
    x0, theta = np.asarray(x0, dtype=float), np.asarray(theta, dtype=float)
    theta = theta / float(np.linalg.norm(theta))
    rho = 0.2 * delta_s
    basis = singularity._transverse_basis(theta)
    offsets = singularity._disc_offsets(3.0 * delta_s, 0.1 * delta_s, basis.shape[0])

    def indicator(centers):
        return singularity._spreads(singularity._indicator_grads(field, centers, rho))

    s_list, pts, inds = [0.0], [x0], [float(indicator(x0[None, :])[0])]
    for i in range(1, int(math.floor(sigma / delta_s + 1e-9)) + 1):
        s_i = i * delta_s
        center = x0 + s_i * theta
        disc = center + offsets @ basis
        values = indicator(disc)
        j = int(np.argmax(values))
        s_list.append(s_i)
        pts.append(disc[j])
        inds.append(float(values[j]))
        if values[j] <= DEFAULT_EPS_S:
            break
    return np.array(s_list), np.array(pts), np.array(inds)


class TestTrace:
    def test_neg_norm_arc_follows_negative_axis(self, ex1):
        x0 = np.zeros(2)
        arc = trace_singular_arc(
            ex1["field"], x0, (-1.0, 0.0), delta_s=0.05, sigma=0.4
        )
        _assert_arc_invariants(arc, x0)
        live = (arc.s >= 0.05) & (arc.s <= 0.4)
        assert np.all(np.abs(arc.points[live, 1]) <= 0.02)
        assert np.all(arc.points[live, 0] < 0.0)

    def test_neg_abs_arc_runs_into_the_interior(self, ex2):
        x0 = np.zeros(2)
        arc = trace_singular_arc(
            ex2["field"], x0, (1.0, 0.0), delta_s=0.05, sigma=0.4
        )
        _assert_arc_invariants(arc, x0)
        live = (arc.s >= 0.05) & (arc.s <= 0.4)
        assert np.all(np.abs(arc.points[live, 1]) <= 0.02)
        assert np.all(arc.points[live, 0] > 0.0)

    def test_quartic_arc_found_without_the_condition(self, ex3, ex3_u_set):
        # the detector rightly reports no hull gap, yet the crease still
        # continues along the negative first axis
        holds, _ = check_condition_h(ex3_u_set, EPS_G, EPS_C)
        assert not holds
        x0 = np.zeros(2)
        arc = trace_singular_arc(
            ex3["field"], x0, (-1.0, 0.0), delta_s=0.05, sigma=0.4
        )
        _assert_arc_invariants(arc, x0)
        live = (arc.s >= 0.05) & (arc.s <= 0.4)
        assert np.all(np.abs(arc.points[live, 1]) <= 0.02)
        assert np.all(arc.points[live, 0] < 0.0)

    def test_smooth_field_loses_the_arc_immediately(self, unit_ball):
        field = _affine_field(unit_ball)
        arc = trace_singular_arc(field, (0.0, 0.0), (-1.0, 0.0), delta_s=0.05, sigma=0.4)
        # the tracer stops at the first sample at or below eps_s and keeps it
        assert arc.lost
        assert arc.s.size == 2
        assert arc.indicators[-1] <= arc.eps_s
        assert not arc.validated

    def test_arc_serializes(self, ex2):
        arc = trace_singular_arc(
            ex2["field"], np.zeros(2), (1.0, 0.0), delta_s=0.05, sigma=0.2
        )
        payload = arc.to_dict()
        assert payload["theta"] == [1.0, 0.0]
        assert len(payload["samples"]) == arc.s.size

    @pytest.mark.parametrize("case, n_samples", [
        ("neg-abs", 9), ("diagonal-crease", 5), ("affine", 2), ("one-dimensional", 2),
    ])
    def test_matches_the_stepwise_scan(self, case, n_samples, ex2, unit_ball):
        # a full arc, one lost in the middle, and two lost at their first
        # step, one of them 1D: the tracer clusters every step at once and
        # cuts the arc at the first lost step, which must give the scan's bytes
        field, x0, theta = {
            "neg-abs": (ex2["field"], (0.0, 0.0), (1.0, 0.0)),
            "diagonal-crease": (_StubField((0.0, 0.0), _diagonal_crease), (0.0, 0.0), (1.0, 0.0)),
            "affine": (_affine_field(unit_ball), (0.0, 0.0), (-1.0, 0.0)),
            "one-dimensional": (
                _StubField((0.0,), lambda pts: -np.abs(pts[:, 0])), (0.0,), (1.0,)
            ),
        }[case]
        arc = trace_singular_arc(field, x0, theta, delta_s=0.05, sigma=0.4)
        s, points, indicators = _stepwise_arc(field, x0, theta, 0.05, 0.4)
        assert arc.s.tobytes() == s.tobytes()
        assert arc.points.shape == points.shape
        assert arc.points.tobytes() == points.tobytes()
        assert arc.indicators.tobytes() == indicators.tobytes()
        assert arc.s.size == n_samples
        assert arc.lost == (n_samples < 9)
