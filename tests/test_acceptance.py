"""End-to-end checks of the library's advertised guarantees.

One test per guarantee; `pytest -v` prints a pass/fail line for each.  All
reference values come from the closed forms of the three worked examples or
from hand arithmetic; tolerances are stated inline next to each assertion.
"""

import math
import time

import numpy as np

from scext import (
    MollifiedApproximant,
    ModulusParams,
    build_extension,
    build_support_set,
    certify,
    check_condition_h,
    constant_bound,
    estimate_constant,
    glue_global,
    holder_ratio,
    named_function,
    partition_weights,
    propagation_directions,
    select_p0,
    trace_singular_arc,
)
from scext.geometry import BallRegion, box, closure_grid, disk

from conftest import PROBE, ball_points

SWEEP_BUDGET_SECONDS = 120.0
ENVELOPE_C = constant_bound(ModulusParams(alpha=1.0, C=0.0), coefficient=1.0)  # 6.0


def _closed_form_envelope_ex1(pts: np.ndarray) -> np.ndarray:
    left = -np.abs(pts[:, 1]) + pts[:, 0] ** 2
    right = -np.linalg.norm(pts, axis=1)
    return np.where(pts[:, 0] < 0.0, left, right)


def _hausdorff(pts_a: np.ndarray, dist_to_b, pts_b: np.ndarray, dist_to_a) -> float:
    return max(float(np.max(dist_to_b(pts_a))), float(np.max(dist_to_a(pts_b))))


def _dist_to_cloud(cloud: np.ndarray):
    def dist(pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts[:, None, :] - cloud[None, :, :], axis=2).min(axis=1)

    return dist


def test_criterion_01_example1_envelope_matches_closed_form(ex1, ball_domain, unit_ball):
    t0 = time.perf_counter()
    grid = closure_grid(ball_domain, unit_ball, 0.02)
    sup = float(
        np.max(np.abs(ex1["field"].evaluate_many(grid) - _closed_form_envelope_ex1(grid)))
    )
    sweep_seconds = time.perf_counter() - t0
    assert sup <= 0.02
    assert ex1["build_seconds"] + sweep_seconds <= SWEEP_BUDGET_SECONDS


def test_criterion_02_envelope_equals_function_at_nodes(ex1, ex2, ex3):
    for bundle in (ex1, ex2, ex3):
        nodes = bundle["field"].support.node_points()
        err = np.abs(
            bundle["field"].evaluate_many(nodes) - bundle["func"].evaluate_many(nodes)
        )
        assert float(np.max(err)) <= 1e-12


def test_criterion_03_envelope_certified_semiconcave(ex1, ex2, ex3, ball_domain, unit_ball):
    params = ModulusParams(alpha=1.0, C=ENVELOPE_C + 0.05)
    for seed, bundle in ((2201, ex1), (2202, ex2), (2203, ex3)):
        cert = certify(bundle["field"], ball_domain, unit_ball, params, 10_000, seed)
        assert cert.passed
        assert len(cert.witnesses) == 0


def test_criterion_04_envelope_preserves_reachable_gradients(
    ex1_env_set, ex2_env_set, ex3_env_set
):
    t = np.linspace(0.5 * math.pi, 1.5 * math.pi, 4096)
    arc = np.column_stack([np.cos(t), np.sin(t)])

    def dist_to_arc(pts):
        r = np.linalg.norm(pts, axis=1)
        ends = np.minimum(
            np.linalg.norm(pts - [0.0, 1.0], axis=1),
            np.linalg.norm(pts - [0.0, -1.0], axis=1),
        )
        return np.where(pts[:, 0] <= 0.0, np.abs(r - 1.0), ends)

    pair = np.array([[0.0, 1.0], [0.0, -1.0]])

    def dist_to_pair(pts):
        return np.minimum(
            np.linalg.norm(pts - pair[0], axis=1), np.linalg.norm(pts - pair[1], axis=1)
        )

    segment = np.column_stack([np.zeros(4096), np.linspace(-1.0, 1.0, 4096)])

    def dist_to_segment(pts):
        over = np.clip(np.abs(pts[:, 1]) - 1.0, 0.0, None)
        return np.hypot(pts[:, 0], over)

    cases = (
        (ex1_env_set, arc, dist_to_arc),
        (ex2_env_set, pair, dist_to_pair),
        (ex3_env_set, segment, dist_to_segment),
    )
    for rset, cloud, dist in cases:
        reps = rset.representatives
        h = _hausdorff(reps, dist, cloud, _dist_to_cloud(reps))
        assert h <= 0.05


def test_criterion_05_condition_detector_matches_examples(
    ex1_u_set, ex2_u_set, ex3_u_set
):
    def angle_deg(a, b):
        cosv = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        return math.degrees(math.acos(max(-1.0, min(1.0, cosv))))

    holds1, cands1 = check_condition_h(ex1_u_set, 0.01, 0.02)
    assert holds1
    thetas1 = propagation_directions(ex1_u_set, select_p0(ex1_u_set, cands1))
    assert min(angle_deg(t, (-1.0, 0.0)) for t in thetas1) <= 5.0

    holds2, cands2 = check_condition_h(ex2_u_set, 0.01, 0.02)
    assert holds2
    thetas2 = propagation_directions(ex2_u_set, select_p0(ex2_u_set, cands2))
    assert min(angle_deg(t, (1.0, 0.0)) for t in thetas2) <= 5.0
    assert min(angle_deg(t, (-1.0, 0.0)) for t in thetas2) <= 5.0

    holds3, cands3 = check_condition_h(ex3_u_set, 0.01, 0.02)
    assert not holds3
    assert cands3.shape[0] == 0


def test_criterion_06_singular_arcs_traced_and_validated(ex1, ex2, ex3):
    def run(bundle, theta):
        return trace_singular_arc(
            bundle["field"], np.zeros(2), theta, delta_s=0.05, sigma=0.4
        )

    arc1 = run(ex1, (-1.0, 0.0))
    live = (arc1.s >= 0.05) & (arc1.s <= 0.4)
    assert np.all(np.abs(arc1.points[live, 1]) <= 0.02)
    assert np.all(arc1.points[live, 0] < 0.0)
    assert float(np.max(arc1.residuals[1:4])) <= 0.25

    arc2 = run(ex2, (1.0, 0.0))
    live = (arc2.s >= 0.05) & (arc2.s <= 0.4)
    assert np.all(np.abs(arc2.points[live, 1]) <= 0.02)
    assert np.all(arc2.points[live, 0] > 0.0)
    assert float(np.max(arc2.residuals[1:4])) <= 0.25

    # the detector says no for this set, yet the crease is still there
    arc3 = run(ex3, (-1.0, 0.0))
    live = (arc3.s >= 0.05) & (arc3.s <= 0.4)
    assert arc3.validated
    assert np.all(arc3.points[live, 0] < 0.0)
    assert float(np.max(arc3.residuals[1:4])) <= 0.25


def test_criterion_07_mollified_approximants_converge(ex2):
    half = BallRegion((0.0, 0.0), 0.5)
    half_domain = disk((0.0, 0.0), 0.5)
    probes = closure_grid(half_domain, half, 0.05)
    base = ex2["field"].evaluate_many(probes)
    params = ModulusParams(alpha=1.0, C=ENVELOPE_C + 0.05)
    sups = []
    for seed, h in ((2301, 10), (2302, 20), (2303, 40)):
        approx = MollifiedApproximant(ex2["field"], h)
        sup = float(np.max(np.abs(approx.evaluate_many(probes) - base)))
        assert sup <= 2.0 / h
        sups.append(sup)
        cert = certify(approx, half_domain, half, params, 10_000, seed)
        assert cert.passed
    assert sups[1] / sups[0] <= 0.6
    assert sups[2] / sups[1] <= 0.6


def fd_hessian_max(func, pts: np.ndarray, step: float) -> float:
    """Largest eigenvalue of the 2nd-order central-difference Hessian."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, d = pts.shape
    eye = np.eye(d)
    rows = [pts]
    for i in range(d):
        rows.extend([pts + step * eye[i], pts - step * eye[i]])
    for i in range(d):
        for j in range(i + 1, d):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    rows.append(pts + step * (si * eye[i] + sj * eye[j]))
    vals = func.evaluate_many(np.vstack(rows))
    blocks = vals.reshape(-1, n)
    f0 = blocks[0]
    H = np.empty((n, d, d))
    k = 1
    for i in range(d):
        fp, fm = blocks[k], blocks[k + 1]
        H[:, i, i] = (fp - 2.0 * f0 + fm) / step**2
        k += 2
    for i in range(d):
        for j in range(i + 1, d):
            fpp, fpm, fmp, fmm = blocks[k], blocks[k + 1], blocks[k + 2], blocks[k + 3]
            H[:, i, j] = H[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
            k += 4
    return float(np.max(np.linalg.eigvalsh(H)))


def test_criterion_08_mollified_hessian_bounded(ex2):
    quarter = BallRegion((0.0, 0.0), 0.25)
    grid = closure_grid(disk(quarter.center, quarter.radius), quarter, 0.05)
    approx = MollifiedApproximant(ex2["field"], 40)
    assert fd_hessian_max(approx, grid, step=1e-3) <= ENVELOPE_C + 0.1


def test_criterion_09_kernel_gradient_holder_bound():
    rng = np.random.default_rng(2401)
    n = 100_000
    for alpha in (0.25, 0.5, 0.75, 1.0):
        bound = (1.0 + alpha) * (1.0 + 2.0 ** (2.0 - alpha)) + 1e-9
        params = ModulusParams(alpha=alpha, C=0.0)
        r = np.sqrt(rng.uniform(0.0, 1.0, (3, n)))
        phi = rng.uniform(0.0, 2.0 * math.pi, (3, n))
        Y, X, Z = (
            np.column_stack([r[i] * np.cos(phi[i]), r[i] * np.sin(phi[i])])
            for i in range(3)
        )
        keep = ~(X == Z).all(axis=1)
        ratios = holder_ratio(Y[keep], X[keep], Z[keep], params, 1.0)
        violations = int((ratios > bound).sum())
        assert violations == 0


def test_criterion_10_affine_and_quadratic_sanity(ball_domain, unit_ball):
    func = named_function(
        "affine", dimension=2, domain=ball_domain, params={"p": [0.3, -0.7], "b": 0.1}
    )
    params = ModulusParams(alpha=1.0, C=0.0)
    support = build_support_set(func, ball_domain, unit_ball, spacing=0.05)
    field = build_extension(func, ball_domain, support, params, coefficient=1.0)
    probes = ball_points(400, seed=19, radius=0.999)
    truth = func.evaluate_many(probes)
    assert float(np.max(np.abs(field.evaluate_many(probes) - truth))) <= 1e-9

    cover = [BallRegion((0.0, 0.0), 1.2)]
    wide_support = build_support_set(func, ball_domain, cover[0], spacing=0.1)
    wide_field = build_extension(func, ball_domain, wide_support, params, coefficient=1.0)
    glued = glue_global(ball_domain, cover, [wide_field], func=func)
    assert float(np.max(np.abs(glued.evaluate_many(probes) - truth))) <= 1e-9

    inner = ball_points(300, seed=23, radius=0.45)
    approx = MollifiedApproximant(field, 10)
    err = np.abs(approx.evaluate_many(inner) - func.evaluate_many(inner))
    assert float(np.max(err)) <= 1e-9

    up = named_function("sq-norm", dimension=2, domain=ball_domain)
    down = named_function("neg-sq-norm", dimension=2, domain=ball_domain)
    c_up = estimate_constant(up, ball_domain, unit_ball, 1.0, 4000, 31)
    c_down = estimate_constant(down, ball_domain, unit_ball, 1.0, 4000, 31)
    assert abs(c_up - 1.0) <= 0.05
    assert abs(c_down + 1.0) <= 0.05


def test_criterion_11_partition_and_one_dimensional_glue():
    dom = box(center=(0.5,), half_widths=(0.5,))
    func = named_function(
        "quadratic", dimension=1, domain=dom, params={"a": -1.0, "b": [1.0], "c": 0.0}
    )
    params = ModulusParams(alpha=1.0, C=-0.99)
    cover = [BallRegion((0.0,), 0.3), BallRegion((1.0,), 0.3)]
    fields = [
        build_extension(func, dom, build_support_set(func, dom, b), params)
        for b in cover
    ]
    weights = partition_weights(dom, cover)
    probes = np.linspace(-0.3, 1.3, 1002)[1:-1][:, None]
    w = weights(probes)
    assert w.shape == (1000, 3)
    assert float(w.min()) >= 0.0
    assert float(w.max()) <= 1.0 + 1e-12
    assert np.all(w[np.abs(probes[:, 0] - 0.0) >= 0.3, 0] == 0.0)
    assert np.all(w[np.abs(probes[:, 0] - 1.0) >= 0.3, 1] == 0.0)
    outside = (probes[:, 0] <= 0.0) | (probes[:, 0] >= 1.0)
    assert np.all(w[outside, 2] == 0.0)
    assert float(np.max(np.abs(w.sum(axis=1) - 1.0))) <= 1e-12

    glued = glue_global(dom, cover, fields, func=func)
    on_domain = probes[(probes[:, 0] >= 0.0) & (probes[:, 0] <= 1.0)]
    want = on_domain[:, 0] * (1.0 - on_domain[:, 0])
    assert float(np.max(np.abs(glued.evaluate_many(on_domain) - want))) <= 1e-9
