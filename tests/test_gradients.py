"""Reachable-gradient sets, hulls, normal cones, and singularity detection."""

import dataclasses
import hashlib
import heapq
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scext import (
    DimensionError,
    InputError,
    IsolationError,
    check_condition_h,
    convex_hull,
    estimate_constant,
    hull_gap,
    named_function,
    normal_cone_directions,
    polytope_distance,
    propagation_directions,
    reachable_gradients,
    sample_closure_points,
    select_p0,
)
from scext import gradients, singularity
from scext.funcspace import _REGISTRY
from scext.gradients import (
    DEFAULT_EPS_S,
    ConvexPolytope,
    ReachableGradientSet,
    _annulus_directions,
    _cluster,
    _distances,
    _gradient_samples,
    _reachable_sets,
    _refine_rings,
)
from scext.scenarios import hausdorff_to_reference

from conftest import COORD, PROBE, traced_peak_mb


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

    @pytest.mark.parametrize("x, error", [
        ((-0.1, 0.0), InputError),  # outside the closure
        (((0.5, 0.0),), InputError),  # not one point
        ((0.5, 0.0, 0.0), DimensionError),
    ])
    def test_base_point_is_checked(self, half_disk, x, error):
        f = named_function("neg-norm", dimension=2, domain=half_disk)
        with pytest.raises(error):
            reachable_gradients(f, half_disk, x, **PROBE)


@st.composite
def _row_pairs(draw):
    """Two arrays of rows of one width d = 1-3 or 8-10, with 0-6 and 1-6
    rows of the coordinates of COORD."""
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 10]))
    a = draw(hnp.arrays(np.float64, (draw(st.integers(0, 6)), d), elements=COORD))
    b = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d), elements=COORD))
    return a, b


@given(_row_pairs())
def test_distances_have_the_bits_of_linalg_norm(ab):
    a, b = ab
    with np.errstate(all="ignore"):
        want = np.linalg.norm(a[:, None] - b[None], axis=-1)
        assert _distances(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 10])
def test_distances_round_as_linalg_norm(d):
    # rows of one scale, where the order of the sums shows in the last bit
    rng = np.random.default_rng(d)
    a, b = rng.standard_normal((300, d)), rng.standard_normal((200, d))
    want = np.linalg.norm(a[:, None] - b[None], axis=-1)
    assert _distances(a, b).tobytes() == want.tobytes()


def _per_point_gradients(func, pts):
    """Reference: one gradient_many call per point, skipping the NaN rows of
    singular ones."""
    kept, grads = [], []
    for p in pts:
        g = func.gradient_many(p[None, :])[0]
        if not np.isnan(g).any():
            grads.append(g)
            kept.append(p)
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
        mask, grads = _gradient_samples(func, pts, None, 1e-7, 0.01)
        kept, want = _per_point_gradients(func, pts)
        assert np.array_equal(pts[mask], kept)
        assert np.array_equal(grads, want)


def _list_cluster(samples, eps_c):
    """Reference: the leader pass with a list of means, as first written."""
    order = np.lexsort(samples.T[::-1])
    pts = samples[order]
    means, counts = [], []
    for p in pts:
        if means:
            d = np.linalg.norm(np.array(means) - p, axis=1)
            j = int(np.argmin(d))
            if d[j] <= 0.5 * eps_c:
                counts[j] += 1
                means[j] = means[j] + (p - means[j]) / counts[j]
                continue
        means.append(p.copy())
        counts.append(1)
    mean_arr = np.array(means)
    count_arr = np.array(counts, dtype=float)
    while mean_arr.shape[0] > 1:
        diff = mean_arr[:, None, :] - mean_arr[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] > eps_c:
            break
        w = count_arr[i] + count_arr[j]
        mean_arr[i] = (count_arr[i] * mean_arr[i] + count_arr[j] * mean_arr[j]) / w
        count_arr[i] = w
        keep = np.ones(mean_arr.shape[0], dtype=bool)
        keep[j] = False
        mean_arr, count_arr = mean_arr[keep], count_arr[keep]
    return mean_arr[np.lexsort(mean_arr.T[::-1])]


# SHA-256 of reachable_gradients(...).representatives on the half disk with
# PROBE, recorded while singular points still raised and were retried one at
# a time and the leader pass kept a list of means
_PINNED_REPRESENTATIVES = {
    ("neg-norm", (0.0, 0.0)):
        "3b72560dfa1521ad252c6a11a6a432b5b8f82331c33bf698a7e61d9bee5cb7ce",
    ("neg-norm", (1.0, 0.0)):
        "bb42e2b6571702578d9dd8029e8a9ff9755a6c4cf3fc735e9b42fce8a8cc325b",
    ("neg-abs-x2", (0.0, 0.0)):
        "637b5e97259482d6885571622b249c0fb4438b263a7be16d32c77e3ffd508863",
    ("neg-abs-x2", (1.0, 0.0)):
        "637b5e97259482d6885571622b249c0fb4438b263a7be16d32c77e3ffd508863",
    ("neg-sqrt-x1p4-x2sq", (0.0, 0.0)):
        "330cb333ee8fe68dc3952e79c4e0c0f5464ef4c6cb4f2164fdfe7f3284dc0a53",
    ("neg-sqrt-x1p4-x2sq", (1.0, 0.0)):
        "4cf35722e9c3abb68f42cec7a27a2651d8414b018686dc97e555224909ec79ac",
}


def _same_bits(got, want) -> bool:
    """Whether two lists of arrays hold the same shapes and bytes."""
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want)
    )


def _straddling_triples(n_triples, half, seed):
    """Groups of three 3D rows L, R, Q in lexicographic order.  |L - R| is
    at most half when summed left to right, sqrt((a*a + b*b) + c*c), and
    above it when summed right to left, or the reverse; Q sits just past R.
    If R joins L, Q joins their mean M: M + (Q - M)/3.  If not, Q joins R
    and L merges with that mean: (L + 2 R')/3.  Only triples where the two
    differ in bits are kept, so a pass that sums the other way ends with
    other bits.  Triple i lies near (10 i, 0, 0), apart from the others."""
    rng = np.random.default_rng(seed)
    triples = []
    while len(triples) < n_triples:
        lead = rng.uniform(-1.0, 1.0, 3) + [10.0 * len(triples), 0.0, 0.0]
        step = rng.normal(size=3)
        step *= half * (1.0 + rng.uniform(-4e-16, 4e-16)) / np.linalg.norm(step)
        step[0] = abs(step[0])
        right = lead + step
        last = right + [0.01 * half, 0.0, 0.0]
        a, b, c = (lead - right).tolist()
        if (math.sqrt((a * a + b * b) + c * c) <= half) == (
            math.sqrt(a * a + (b * b + c * c)) <= half
        ):
            continue
        mean = lead + (right - lead) / 2.0
        joined = mean + (last - mean) / 3.0
        merged = (1.0 * lead + 2.0 * (right + (last - right) / 2.0)) / 3.0
        if joined.tobytes() != merged.tobytes():
            triples.append(np.vstack([lead, right, last]))
    return triples


class TestCluster:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n, eps_c, spread", [
        (1, 0.02, 1.0), (300, 0.02, 1.0), (300, 1.5, 1.0), (2_000, 0.1, 0.05),
    ])
    def test_matches_list_leader_pass(self, d, n, eps_c, spread):
        # spread < 1: samples scattered around five centres, so both the
        # leader pass and the merge loop combine many of them
        rng = np.random.default_rng(10 * d + n)
        centres = rng.uniform(-1.0, 1.0, size=(5, d))
        noise = rng.uniform(-spread, spread, size=(n, d))
        samples = noise if spread == 1.0 else centres[rng.integers(0, 5, n)] + noise
        assert _same_bits(_cluster(samples, [n], eps_c), [_list_cluster(samples, eps_c)])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_with_exact_duplicates(self, d):
        rng = np.random.default_rng(d)
        base = rng.uniform(-1.0, 1.0, size=(40, d))
        samples = base[rng.integers(0, 40, size=500)]
        for eps_c in (1e-9, 0.02, 0.3):
            assert _same_bits(_cluster(samples, [500], eps_c), [_list_cluster(samples, eps_c)])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("offsets, n_reps", [
        # 0 and 0.25 are exactly 0.5*eps_c apart and share a leader, so 0.45
        # starts its own and 0.75 later merges with it
        ([0.0, 0.25, 0.45, 0.75], 1),
        # two rows exactly eps_c apart merge
        ([0.0, 0.5], 1),
        ([0.0, 0.5, 0.5, 1.25, 1.75, 1.75], 2),
        # the mean at 0.5 is exactly 0.5*eps_c behind the row at 0.75 in the
        # first coordinate and still takes it; had it left the scan, 0.75
        # would lead, take 0.76 and merge with 0.5 into other bits
        ([0.5, 0.75, 0.76], 1),
    ])
    def test_matches_at_the_thresholds(self, d, offsets, n_reps):
        # eps_c = 0.5 and the offsets 0.25, 0.5, 0.75, 1.25, 1.75 are exact in binary
        samples = np.zeros((len(offsets), d))
        samples[:, 0] = offsets
        got = _cluster(samples, [len(offsets)], 0.5)
        assert _same_bits(got, [_list_cluster(samples, 0.5)])
        assert got[0].shape[0] == n_reps

    def test_three_dimensional_distances_sum_left_to_right(self):
        # every triple ends with other bits if its distance is summed in the
        # other order; alone in one group the triples go through the scalar
        # sweep, one group each they go through the lockstep
        triples = _straddling_triples(24, 0.25, seed=5)
        one = np.vstack(triples)
        assert _same_bits(_cluster(one, [one.shape[0]], 0.5), [_list_cluster(one, 0.5)])
        got = _cluster(np.vstack(triples), [3] * len(triples), 0.5)
        assert _same_bits(got, [_list_cluster(t, 0.5) for t in triples])

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_tie_goes_to_the_first_mean(self, d):
        # with eps_c = 0.4 the last row is exactly as far from both leaders
        # and joins the first; joining the second, the merge that follows
        # would end with other bits
        tie = np.zeros((3, d))
        tie[:, :2] = [
            [-0.8388462745771096, 0.5878973807068791],
            [-0.7992652486142929, 0.31083019896716235],
            [-0.6805221707258429, 0.46915430281842907],
        ]
        first, second, row = tie
        joined_first = (2.0 * (first + (row - first) / 2.0) + second) / 3.0
        joined_second = (first + 2.0 * (second + (row - second) / 2.0)) / 3.0
        want = _list_cluster(tie, 0.4)
        assert want.tobytes() == joined_first.tobytes() != joined_second.tobytes()
        for sizes in ([3], [3] * 10):
            got = _cluster(np.vstack([tie] * len(sizes)), sizes, 0.4)
            assert _same_bits(got, [want] * len(sizes))

    def test_nan_rows_keep_numpy_argmin(self):
        # a NaN distance is numpy's argmin, so no row joins a NaN mean's
        # group; such a group never goes to the sweep, which would skip it
        rng = np.random.default_rng(12)
        samples = rng.uniform(-1.0, 1.0, size=(300, 2))
        samples[[40, 41, 250], 1] = np.nan
        for sizes in ([300], [150, 150], [20] * 15):
            groups = np.split(samples, np.cumsum(sizes)[:-1])
            got = _cluster(samples, sizes, 0.3)
            assert _same_bits(got, [_list_cluster(g, 0.3) for g in groups])

    @pytest.mark.parametrize("identifier, x", list(_PINNED_REPRESENTATIVES))
    def test_representatives_are_pinned(self, half_disk, identifier, x):
        func = named_function(identifier, dimension=2, domain=half_disk)
        rset = reachable_gradients(func, half_disk, x, **PROBE)
        digest = hashlib.sha256(rset.representatives.tobytes()).hexdigest()
        assert digest == _PINNED_REPRESENTATIVES[identifier, x]


# tracemalloc peaks of _cluster on test_slots_follow_the_means_held's calls
# while every group had mean slots for as many rows as the largest group
# (numpy 2.4, 2-vCPU x86_64)
_PARENT_CLUSTER_PEAK_MB = {"skewed": 4.90, "probes": 3.01}


class TestLockstepCluster:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_groups_match_list_reference(self, d):
        rng = np.random.default_rng(40 + d)
        # eps_c = 0.5: rows exactly 0.5*eps_c and eps_c apart, and a chain of
        # 20 leaders 0.3 apart that merges 11 times down to 9 means
        thresholds, chain = np.zeros((4, d)), np.zeros((20, d))
        thresholds[:, 0] = [0.0, 0.25, 0.45, 0.75]
        chain[:, 0] = 0.3 * np.arange(20)
        base = rng.uniform(-1.0, 1.0, size=(40, d))
        groups = [
            rng.uniform(-1.0, 1.0, size=(1, d)),
            base[rng.integers(0, 40, size=300)],  # exact duplicates
            thresholds,
            chain,
            10.0 * np.arange(6)[:, None] * np.ones(d),  # no merge
            rng.uniform(-1.0, 1.0, size=(400, d)),
            rng.uniform(-1.0, 1.0, size=(2, d)),
        ]
        sizes = [g.shape[0] for g in groups]
        got = _cluster(np.vstack(groups), sizes, 0.5)
        want = [_list_cluster(g, 0.5) for g in groups]
        assert _same_bits(got, want)
        assert want[3].shape[0] == 9 and want[4].shape[0] == 6

    def test_row_order_inside_a_group_does_not_matter(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-1.0, 1.0, size=(500, 2))
        sizes = [120, 380]
        perm = np.concatenate([rng.permutation(120), 120 + rng.permutation(380)])
        assert _same_bits(_cluster(samples, sizes, 0.1), _cluster(samples[perm], sizes, 0.1))

    def test_empty_groups_get_no_representatives(self):
        rows = np.array([[0.0, 0.0], [0.5, 0.5], [0.01, 0.0]])
        got = _cluster(rows, [0, 3, 0], 0.1)
        assert _same_bits(got, [np.empty((0, 2)), _list_cluster(rows, 0.1), np.empty((0, 2))])
        assert _cluster(np.empty((0, 2)), [0, 0], 0.1)[0].shape == (0, 2)
        assert _cluster(np.empty((0, 2)), [], 0.1) == []

    def test_an_inf_row_raises_no_warning(self):
        # 12 groups of 30 rows, one row with an inf coordinate: that group's
        # distances meet inf - inf.  Its means are those the list reference
        # finds with the warning ignored
        rng = np.random.default_rng(5)
        groups = [rng.uniform(-1.0, 1.0, size=(30, 2)) for _ in range(12)]
        groups[3][7, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cluster(np.vstack(groups), [30] * 12, 0.1)
        with np.errstate(invalid="ignore"):
            want = [_list_cluster(g, 0.1) for g in groups]
        assert _same_bits(got, want)
        assert np.isinf(got[3]).any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_long_groups_cross_from_lockstep_to_sweep(self, d, monkeypatch):
        # 60 short groups and 12 long ones of 1,500 to 2,000 rows: the pass
        # runs in lockstep until at most _SWEEP_GROUPS long groups are live,
        # then sweeps them from the means the lockstep left
        rng = np.random.default_rng(60 + d)
        sizes = list(rng.integers(1, 40, 60)) + list(rng.integers(1_500, 2_001, 12))
        centres = rng.uniform(-1.0, 1.0, size=(len(sizes), 5, d))
        groups = [
            c[rng.integers(0, 5, n)] + rng.uniform(-0.05, 0.05, size=(n, d))
            for c, n in zip(centres, sizes)
        ]
        entered = []

        def sweep(rows, means, counts, half):
            entered.append((len(rows), len(means)))
            return sweep_pass(rows, means, counts, half)

        sweep_pass = gradients._sweep
        monkeypatch.setattr(gradients, "_sweep", sweep)
        got = _cluster(np.vstack(groups), sizes, 0.1)
        assert _same_bits(got, [_list_cluster(g, 0.1) for g in groups])
        assert len(entered) == gradients._SWEEP_GROUPS
        assert all(n_rows > 0 and n_means > 0 for n_rows, n_means in entered)

    @staticmethod
    def _spy_slots(monkeypatch):
        """Record, in call order, every widening of the mean slots as
        ("widen", old width, new width) and every swept group as ("sweep",
        its means on entry, its means on exit)."""
        events = []
        widen, sweep = gradients._widen, gradients._sweep

        def spy_widen(means, counts, width):
            events.append(("widen", means.shape[1], width))
            return widen(means, counts, width)

        def spy_sweep(rows, means, counts, half):
            n_in = len(means)
            sweep(rows, means, counts, half)
            events.append(("sweep", n_in, len(means)))

        monkeypatch.setattr(gradients, "_widen", spy_widen)
        monkeypatch.setattr(gradients, "_sweep", spy_sweep)
        return events

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_group_widens_the_slots_in_lockstep(self, d, monkeypatch):
        # 12 groups of 80 rows stay live to the end, so no group is swept.
        # The first is a chain of leaders 0.3 apart (eps_c = 0.5), 80 means
        # before the merge; the others hold a few means each
        rng = np.random.default_rng(80 + d)
        chain = np.zeros((80, d))
        chain[:, 0] = 0.3 * np.arange(80)
        centres = rng.uniform(-1.0, 1.0, size=(11, 3, d))
        groups = [chain[rng.permutation(80)]] + [
            c[rng.integers(0, 3, 80)] + rng.uniform(-0.05, 0.05, size=(80, d)) for c in centres
        ]
        events = self._spy_slots(monkeypatch)
        got = _cluster(np.vstack(groups), [80] * 12, 0.5)
        assert _same_bits(got, [_list_cluster(g, 0.5) for g in groups])
        assert events and all(e[0] == "widen" for e in events)
        assert events[0][1] < 80 == events[-1][2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_swept_group_widens_the_slots(self, d, monkeypatch):
        # 20 groups of 10 rows keep the pass in lockstep for 10 rows; then
        # two groups of 200 rows are swept.  The chain of leaders 0.3 apart
        # enters the sweep with 10 means and leaves it with 200
        rng = np.random.default_rng(90 + d)
        chain = np.zeros((200, d))
        chain[:, 0] = 0.3 * np.arange(200)
        centres = rng.uniform(-1.0, 1.0, size=(21, 3, d))
        groups = [
            c[rng.integers(0, 3, n)] + rng.uniform(-0.05, 0.05, size=(n, d))
            for c, n in zip(centres, [10] * 20 + [200])
        ] + [chain[rng.permutation(200)]]
        events = self._spy_slots(monkeypatch)
        got = _cluster(np.vstack(groups), [g.shape[0] for g in groups], 0.5)
        assert _same_bits(got, [_list_cluster(g, 0.5) for g in groups])
        assert [e[0] for e in events] == ["sweep", "sweep", "widen"]
        assert events[1] == ("sweep", 10, 200) and events[2][1:] == (32, 200)

    @pytest.mark.parametrize("call, bound", [("skewed", 0.5), ("probes", 0.85)])
    def test_slots_follow_the_means_held(self, call, bound):
        # "skewed": 281 groups of 47 to 199 rows, one of 318 (a support
        # call's shape), two clusters each; "probes": 1,221 groups of 24 rows,
        # three clusters each (the tracer's probe balls).  The parent
        # peak is the tracemalloc peak when every group had as many mean
        # slots as the largest group has rows, and the rows were copied
        # into such slots too
        rng = np.random.default_rng(281 if call == "skewed" else 1221)
        if call == "skewed":
            sizes, eps_c, n_centres = np.append(rng.integers(47, 200, 280), 318), 0.01, 2
        else:
            sizes, eps_c, n_centres = np.full(1221, 24), 0.02, 3
        centres = rng.uniform(-1.0, 1.0, size=(sizes.size, n_centres, 2))
        samples = np.vstack([
            c[rng.integers(0, n_centres, n)] + rng.uniform(-0.004, 0.004, (n, 2))
            for c, n in zip(centres, sizes)
        ])
        peak = traced_peak_mb(_cluster, samples, sizes, eps_c)
        assert peak <= bound * _PARENT_CLUSTER_PEAK_MB[call]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("entries", [None, 64])
    def test_merges_fill_every_bucket(self, d, entries, monkeypatch):
        # chains of n leaders 0.3 apart with eps_c = 0.5: every row leads and
        # the merges run in the buckets K = 2 to 64, each holding both of its
        # ends; 64 entries per round also splits every bucket into chunks
        if entries is not None:
            monkeypatch.setattr(gradients, "_MERGE_ENTRIES", entries)
        rng = np.random.default_rng(70 + d)
        groups = []
        for n in [2, 3, 4, 5, 8, 9, 16, 17, 32, 33] * 2:
            chain = np.zeros((n, d))
            chain[:, 0] = 0.3 * np.arange(n)
            chain[:, 1:] = rng.uniform(-0.05, 0.05, size=(n, d - 1))
            groups.append(chain[rng.permutation(n)])
        groups = [groups[i] for i in rng.permutation(len(groups))]
        got = _cluster(np.vstack(groups), [g.shape[0] for g in groups], 0.5)
        want = [_list_cluster(g, 0.5) for g in groups]
        assert _same_bits(got, want)
        assert all(w.shape[0] < g.shape[0] for g, w in zip(groups, want))


def _box_group(rng, n, centre, diag):
    """n rows in the box [centre, centre + w], |w| = diag: two opposite
    corners and n - 2 rows inside, shuffled."""
    w = rng.uniform(0.5, 1.0, centre.size)
    w *= diag / np.linalg.norm(w)
    rows = centre + rng.uniform(0.0, 1.0, (n, centre.size)) * w
    rows[:2] = centre, centre + w
    return rows[rng.permutation(n)]


def _one_mean_limit(rows, half):
    """The box diagonal of rows and the most a group of them may have and
    still take ``_cluster``'s one-mean path: 0.5*eps_c less the margin."""
    n, d = rows.shape
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    top = float(np.maximum(np.abs(lo), np.abs(hi)).max())
    margin = 16.0 * d * (n + d) * np.finfo(float).eps * (top + half)
    return float(np.linalg.norm(hi - lo)), half - margin, margin


class TestOneMeanGroups:
    @staticmethod
    def _spy_one_mean(monkeypatch):
        """Record the sizes of the groups ``_cluster`` gives one mean."""
        sizes = []
        running = gradients._running_means

        def spy(pts, first, n):
            sizes.extend(n.tolist())
            return running(pts, first, n)

        monkeypatch.setattr(gradients, "_running_means", spy)
        return sizes

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_list_reference_at_the_margin(self, d, scale, monkeypatch):
        # one call of four groups of 40 to 43 rows, whose box diagonals are
        # half a margin under the limit, half a margin over it (both under
        # 0.5*eps_c), just over 0.5*eps_c, and 1.5*eps_c
        rng = np.random.default_rng(int(7 * d + scale))
        eps_c, half = 0.02, 0.01
        groups = []
        for n, case in [(40, "under"), (41, "over"), (42, "past half"), (43, "wide")]:
            centre = scale * rng.uniform(-1.0, 1.0, d)
            _, limit, margin = _one_mean_limit(_box_group(rng, n, centre, half), half)
            diag = {"under": limit - 0.5 * margin, "over": limit + 0.5 * margin,
                    "past half": half * (1.0 + 1e-6), "wide": 3.0 * half}[case]
            rows = _box_group(rng, n, centre, diag)
            got_diag, got_limit, _ = _one_mean_limit(rows, half)
            assert (got_diag <= got_limit) == (case == "under")
            assert (got_diag <= half) == (case in ("under", "over"))
            groups.append(rows)
        one_mean = self._spy_one_mean(monkeypatch)
        got = _cluster(np.vstack(groups), [g.shape[0] for g in groups], eps_c)
        assert _same_bits(got, [_list_cluster(g, eps_c) for g in groups])
        assert one_mean == [40]
        assert got[0].shape == got[1].shape == (1, d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_non_finite_row_takes_the_leader_pass(self, d, monkeypatch):
        # tight boxes of 30 rows, one with a NaN coordinate in one row: only
        # the clean one has one mean
        rng = np.random.default_rng(50 + d)
        groups = [_box_group(rng, 30, rng.uniform(-1.0, 1.0, d), 0.001) for _ in range(2)]
        groups[1][7, -1] = np.nan
        one_mean = self._spy_one_mean(monkeypatch)
        for sizes in ([30, 30], [60]):
            one_mean.clear()
            samples = np.vstack(groups)
            parts = np.split(samples, np.cumsum(sizes)[:-1])
            got = _cluster(samples, sizes, 0.02)
            assert _same_bits(got, [_list_cluster(g, 0.02) for g in parts])
            assert one_mean == ([30] if len(sizes) == 2 else [])
        assert _cluster(groups[0], [30], 0.02)[0].shape == (1, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_calls_match_list_reference(self, d, monkeypatch):
        # one call of 150 groups of 0 to 80 rows: empty groups, single rows,
        # tight boxes of one mean at magnitudes up to 1e6, and groups around
        # two or three centres; the lockstep of each path retires groups as
        # they run out of rows
        rng = np.random.default_rng(20 + d)
        groups = []
        for _ in range(150):
            n = int(rng.integers(0, 81))
            kind = rng.integers(0, 3)
            centre = 10.0 ** rng.integers(0, 7) * rng.uniform(-1.0, 1.0, d)
            if kind == 0 or n < 2:
                rows = _box_group(rng, max(n, 2), centre, rng.uniform(0.0, 0.004))[:n]
            else:
                centres = centre + rng.uniform(-1.0, 1.0, (int(kind) + 1, d))
                rows = centres[rng.integers(0, kind + 1, n)] + rng.uniform(-0.003, 0.003, (n, d))
            groups.append(rows)
        one_mean = self._spy_one_mean(monkeypatch)
        sizes = [g.shape[0] for g in groups]
        got = _cluster(np.vstack(groups), sizes, 0.01)
        assert _same_bits(got, [_list_cluster(g, 0.01) if g.shape[0] else np.empty((0, d))
                                for g in groups])
        assert 30 < len(one_mean) and sum(s > 0 for s in sizes) - len(one_mean) > 30


def _sequential_refine_ring(domain, x, r, base_pts, base_grads, budget, eps_c, sampler):
    """Reference: one ring at a time, one midpoint per gradient call, as
    first written."""
    if x.size != 2 or base_pts.shape[0] < 2 or budget <= 0:
        return base_grads
    rel = base_pts - x
    angle = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.argsort(angle)
    n = order.size
    phi = np.empty(n + budget)
    grads = np.empty((n + budget, 2))
    phi[:n], grads[:n] = angle[order], base_grads[order]
    heap = []

    def push(a, b):
        jump = float(np.linalg.norm(grads[a] - grads[b]))
        width = phi[b] - phi[a]
        if jump > eps_c and width > 1e-7:
            heapq.heappush(heap, (-jump, phi[a], phi[b], a, b))

    for i in range(n - 1):
        push(i, i + 1)
    while heap and budget > 0:
        _, _, _, a, b = heapq.heappop(heap)
        mid_phi = 0.5 * (phi[a] + phi[b])
        cand = x + r * np.array([math.cos(mid_phi), math.sin(mid_phi)])
        budget -= 1
        if not domain.contains_many(cand[None], "open")[0]:
            continue
        ok, g = sampler(cand[None, :])
        if not ok[0]:
            continue
        phi[n], grads[n] = mid_phi, g[0]
        push(a, n)
        push(n, b)
        n += 1
    return grads[:n]


def _refine_both(func, domain):
    """Rings around seven anchors of the half disk, refined in lockstep and
    one at a time: (lockstep grads, their rings, the ring index passed in,
    the sequential result and the base samples, per ring)."""
    eps_c, h_fd, m_a, base = 0.01, 1e-7, 64, 32
    anchors = np.array([
        [0.0, 0.0], [0.0, 0.01], [0.004, -0.003], [0.3, 0.0], [0.0, -0.5],
        [0.6, 0.2], [0.05, 0.0],
    ])
    radii = [0.02 * 0.5**k for k in range(4)]

    def sampler(pts):
        return _gradient_samples(func, pts, domain, h_fd, eps_c)

    want, centres, ring_r, ring, pts, grads = [], [], [], [], [], []
    for x in anchors:
        for k, r in enumerate(radii):
            cand = x + r * _annulus_directions(2, base, k)
            cand = cand[domain.contains_many(cand, "open")]
            ok, g = sampler(cand)
            want.append(_sequential_refine_ring(
                domain, x, r, cand[ok], g, m_a - base, eps_c, sampler
            ))
            ring.extend([len(centres)] * int(ok.sum()))
            centres.append(x)
            ring_r.append(r)
            pts.append(cand[ok])
            grads.append(g)
    ring = np.array(ring)
    got, got_ring = _refine_rings(
        domain, np.array(centres), np.array(ring_r), ring,
        np.vstack(pts), np.vstack(grads), m_a - base, eps_c, sampler,
    )
    return got, got_ring, ring, want, pts


class TestLockstepRefinement:
    @pytest.mark.parametrize("identifier, analytic", [
        ("neg-norm", True), ("neg-abs-x2", True), ("neg-abs-x2", False),
        ("neg-sqrt-x1p4-x2sq", True),
    ])
    def test_rings_match_sequential_refinement(self, half_disk, identifier, analytic):
        func = named_function(identifier, dimension=2, domain=half_disk)
        if not analytic:
            func = dataclasses.replace(func, _grad=None)
        got, got_ring, _, want, pts = _refine_both(func, half_disk)
        for h, ref in enumerate(want):
            assert np.array_equal(got[got_ring == h], ref)
        refined = [h for h, ref in enumerate(want) if ref.shape[0] > pts[h].shape[0]]
        assert len(refined) >= 4

    @pytest.mark.parametrize("analytic", [True, False])
    def test_rings_without_gaps_return_in_angular_order(self, half_disk, analytic):
        # an affine u has one gradient everywhere, so no ring has a gap to
        # refine: the rings come back at once, sorted by angle
        func = named_function("affine", dimension=2, domain=half_disk,
                              params={"p": [0.3, -0.7], "b": 0.1})
        if not analytic:
            func = dataclasses.replace(func, _grad=None)
        got, got_ring, ring, want, pts = _refine_both(func, half_disk)
        assert got_ring is ring
        for h, ref in enumerate(want):
            assert ref.shape[0] == pts[h].shape[0]
            assert got[got_ring == h].tobytes() == ref.tobytes()

    def test_isolated_anchor_inside_a_batch(self, half_disk):
        func = named_function("neg-norm", dimension=2, domain=half_disk)
        # rings around the two far anchors miss the domain altogether
        anchors = np.array([[0.0, 0.5], [3.0, 0.0], [0.5, 0.0], [0.0, 4.0]])
        with pytest.raises(IsolationError, match=r"near \[3\.0, 0\.0\] within radius 0\.02"):
            _reachable_sets(func, half_disk, anchors, 0.02, 4, 64, 0.02, 1e-7)


class TestSupergradientDefect:
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

    @pytest.mark.parametrize(
        "pts",
        [
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        ],
        ids=["coplanar", "full-rank"],
    )
    def test_three_dimensional_points_rejected(self, pts):
        with pytest.raises(DimensionError):
            convex_hull(pts)


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


def _brute_force_hull(pts) -> set:
    """Vertices of the 2D hull in exact arithmetic, O(n^3): the ends of every
    edge ab with no point to its right and every point on its line inside
    the closed segment [a, b]."""
    q = sorted({(Fraction(x), Fraction(y)) for x, y in pts})
    out = set()
    for a in q:
        for b in q:
            if a == b:
                continue
            ok = True
            for c in q:
                cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                dot_a = (c[0] - a[0]) * (b[0] - a[0]) + (c[1] - a[1]) * (b[1] - a[1])
                dot_b = (c[0] - b[0]) * (a[0] - b[0]) + (c[1] - b[1]) * (a[1] - b[1])
                if cross < 0 or (cross == 0 and (dot_a < 0 or dot_b < 0)):
                    ok = False
                    break
            if ok:
                out |= {a, b}
    return {(float(x), float(y)) for x, y in out}


def _hull_point_sets():
    rng = np.random.default_rng(21)
    sets = [rng.uniform(-1.0, 1.0, (n, 2)) for n in (3, 4, 7, 12, 25) for _ in range(4)]
    sets += [np.round(rng.uniform(-1.0, 1.0, (n, 2)), 1)
             for n in (6, 15, 30) for _ in range(4)]
    # collinear points on every edge of a square, interior points, duplicates
    t, o = np.linspace(0.0, 1.0, 5), np.zeros(5)
    square = np.vstack([np.column_stack(c) for c in ((t, o), (o + 1, t), (t, o + 1), (o, t))])
    sets.append(np.vstack([square, square[::3], [[0.5, 0.5], [0.25, 0.75]]]))
    arc = np.linspace(0.0, np.pi, 9)
    sets.append(np.vstack([np.column_stack([np.cos(arc), np.sin(arc)]), [[0.0, 0.0]] * 3]))
    return sets


class TestMonotoneChain:
    @pytest.mark.parametrize("pts", _hull_point_sets())
    def test_matches_brute_force_hull(self, pts):
        poly = convex_hull(pts)
        assert poly.affine_dimension == 2
        v = poly.vertices
        assert {tuple(r) for r in v.tolist()} == _brute_force_hull(pts.tolist())
        assert len({tuple(r) for r in v.tolist()}) == v.shape[0]
        # counter-clockwise, and no vertex collinear with its neighbours
        q = [(Fraction(x), Fraction(y)) for x, y in v.tolist()]
        for o, a, b in zip(q, q[1:] + q[:1], q[2:] + q[:2]):
            assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0
        # the cycle starts at the lexicographically smallest point
        assert np.array_equal(v[0], pts[np.lexsort((pts[:, 1], pts[:, 0]))[0]])
        assert max(polytope_distance(poly, p) for p in pts) <= 1e-12


def _row_set(rays):
    return rays[np.lexsort(rays.T[::-1])]


def test_cycle_start_does_not_change_the_selection(ex1_u_set, monkeypatch):
    """check_condition_h, select_p0 and the propagation directions give the
    same bits from every rotation of example 1's vertex cycle, and every
    vertex is refused whichever vertex starts the cycle."""
    poly = convex_hull(ex1_u_set.representatives)
    holds, cands = check_condition_h(ex1_u_set, 0.01, DEFAULT_EPS_S)
    p0 = select_p0(ex1_u_set, cands)
    thetas = propagation_directions(ex1_u_set, p0)
    k = poly.vertices.shape[0]
    assert holds and k > 3
    for shift in range(1, k):
        rolled = ConvexPolytope(np.roll(poly.vertices, shift, axis=0), 2)
        monkeypatch.setattr(gradients, "convex_hull", lambda reps: rolled)
        monkeypatch.setattr(singularity, "convex_hull", lambda reps: rolled)
        holds_r, cands_r = check_condition_h(ex1_u_set, 0.01, DEFAULT_EPS_S)
        assert holds_r and np.array_equal(_row_set(cands_r), _row_set(cands))
        assert np.array_equal(select_p0(ex1_u_set, cands_r), p0)
        thetas_r = propagation_directions(ex1_u_set, p0)
        assert np.array_equal(_row_set(thetas_r), _row_set(thetas))
        # the vertex that now starts the cycle, and its neighbours
        for i in (-shift - 1, -shift, 1 - shift):
            with pytest.raises(InputError):
                normal_cone_directions(rolled, poly.vertices[i % k])


@pytest.mark.parametrize("name", ["ex1_u_set", "ex2_u_set"])
def test_condition_h_never_selects_a_vertex(name, request):
    """The p0 that condition (H) selects lies off every hull vertex by more
    than DEFAULT_EPS_S, so its normal cone is the normal of one edge."""
    rset = request.getfixturevalue(name)
    holds, cands = check_condition_h(rset, 0.01, DEFAULT_EPS_S)
    assert holds
    p0 = select_p0(rset, cands)
    vertices = convex_hull(rset.representatives).vertices
    assert float(np.linalg.norm(vertices - p0, axis=1).min()) > DEFAULT_EPS_S


def _random_convex_polygon(rng) -> np.ndarray:
    while True:
        poly = convex_hull(rng.uniform(-1.0, 1.0, (int(rng.integers(3, 12)), 2)))
        if poly.affine_dimension == 2:
            return poly.vertices


def test_edge_point_cone_is_the_edge_normal():
    """A point strictly inside an edge of a random convex polygon gets one
    unit ray, the edge's outward normal, with the same bits whatever vertex
    starts the cycle."""
    rng = np.random.default_rng(20261021)
    for _ in range(40):
        v = _random_convex_polygon(rng)
        k = v.shape[0]
        i = int(rng.integers(k))
        a, b = v[i], v[(i + 1) % k]
        p0 = a + rng.uniform(0.01, 0.99) * (b - a)
        rays = normal_cone_directions(ConvexPolytope(v, 2), p0)
        assert rays.shape == (1, 2)
        nu = rays[0]
        assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
        assert float(np.max((v - p0) @ nu)) <= 1e-9
        for shift in range(1, k):
            rolled = ConvexPolytope(np.roll(v, shift, axis=0), 2)
            assert normal_cone_directions(rolled, p0).tobytes() == rays.tobytes()


def _dense_segment_set() -> ReachableGradientSet:
    ts = np.arange(-1.0, 1.0 + 1e-12, 0.01)
    reps = np.column_stack([np.zeros_like(ts), ts])
    return ReachableGradientSet(
        base_point=np.zeros(2),
        representatives=reps,
        r0=0.02, k_max=8, eps_c=0.02, m_a=200,
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

    def test_one_dimensional_two_point_set_has_no_gap(self):
        # in R^1 the hull's boundary is its two ends, both representatives
        pair = dataclasses.replace(
            _dense_segment_set(), base_point=np.zeros(1),
            representatives=np.array([[-1.0], [1.0]]),
        )
        assert hull_gap(pair, eps_g=0.01).shape == (0, 1)

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
        # a vertex lies in the reachable set, so condition (H) never asks
        # for its cone; it is refused, as is a point within 1e-9 of it
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        for p0 in [(0.0, 0.0), (1.0, 1.0), (5e-10, 0.0)]:
            with pytest.raises(InputError):
                normal_cone_directions(poly, p0)

    def test_interior_point_has_empty_cone(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        rays = normal_cone_directions(poly, (0.5, 0.5))
        assert rays.shape == (0, 2)

    def test_point_off_the_polytope_rejected(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert polytope_distance(poly, (2.0, 0.0)) > 1e-9
        with pytest.raises(InputError):
            normal_cone_directions(poly, (2.0, 0.0))

    def test_one_dimensional_segment_cones_are_pinned(self):
        poly = convex_hull([(0.0,), (1.0,)])
        for end in [(0.0,), (1.0,)]:
            with pytest.raises(InputError):
                normal_cone_directions(poly, end)
        assert normal_cone_directions(poly, (0.5,)).shape == (0, 1)

    def test_single_point_cones_are_pinned(self):
        # the one point of the hull is its vertex
        for point in [(0.3,), (0.3, -0.2)]:
            with pytest.raises(InputError):
                normal_cone_directions(convex_hull([point]), point)

    def test_distance_rejects_a_point_of_the_wrong_size(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        with pytest.raises(DimensionError):
            polytope_distance(poly, (0.5,))

    def test_normal_cone_rejects_a_point_of_the_wrong_size(self):
        poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        with pytest.raises(DimensionError):
            normal_cone_directions(poly, (0.0, 0.0, 0.0))


class TestIsSingular:
    """A point is singular when its reachable gradients spread wider than
    DEFAULT_EPS_S."""

    def test_crease_point_detected(self, ex2, half_disk):
        rset = reachable_gradients(ex2["func"], half_disk, (0.5, 0.0), **PROBE)
        assert rset.diameter() > DEFAULT_EPS_S

    def test_smooth_point_not_singular(self, ex2, half_disk):
        rset = reachable_gradients(ex2["func"], half_disk, (0.5, 0.2), **PROBE)
        assert not rset.diameter() > DEFAULT_EPS_S

    def test_origin_of_neg_norm_singular(self, ex1, half_disk):
        rset = reachable_gradients(ex1["func"], half_disk, (0.0, 0.0), **PROBE)
        assert rset.diameter() > DEFAULT_EPS_S
