"""Domain membership, grids, and boundary sampling on the named domains."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scext import (
    BallRegion,
    DimensionError,
    SamplingError,
    boundary_sample,
    box,
    capped_disk,
    closure_grid,
    disk,
    half_space,
    sample_closure_points,
)
from scext.funcspace import _abs_max
from scext.geometry import _KINDS, _SLICE, _by_columns, _column_norms
from scext.semiconcavity import _sample_triples

from conftest import COORD, ball_points


def _reference_sampler(domain, region, count, rng):
    """The per-point rejection loop the batched sampler must reproduce: one
    draw of ``dimension`` doubles per candidate, kept when it lies in
    closure(domain) & ball, with a budget of max(10_000, 1000*count) draws."""
    dim = domain.dimension
    lo = region.center - region.radius
    hi = region.center + region.radius
    out = np.empty((count, dim))
    got = 0
    tries = 0
    budget = max(10_000, 1000 * count)
    while got < count:
        if tries >= budget:
            raise SamplingError(f"drew {got}/{count} admissible points")
        cand = rng.uniform(lo, hi)
        tries += 1
        row = cand[None, :]
        if domain.contains_many(row, "closure")[0] and region.contains_many(row)[0]:
            out[got] = cand
            got += 1
    return out


# one test domain per kind, tilted off the axes where the dimension allows;
# a kind missing here fails the tests parametrized over _KINDS
_DOMAINS = {
    "disk": lambda c, n: disk(c, 0.8),
    "box": lambda c, n: box(c, 0.7 - 0.1 * np.arange(c.size)),
    "half-space": lambda c, n: half_space(n, -0.2),
    "capped-disk": lambda c, n: capped_disk(c, 0.8, n, 0.05),
}


def _domain(kind, d):
    return _DOMAINS[kind](np.linspace(0.1, -0.1, d), np.linspace(1.0, 0.4, d))


_BOUNDARY_DIGESTS = {
    ("disk", 1): "3da1827a1ba2c93acc4b97ed715195581066dff7a1b29de19f8585fa2e934065",
    ("box", 1): "83b68bbfe33db44a7f30342c5bb159ef92f65889b218da5a7f289f2672223edd",
    ("half-space", 1): "bb029bb87ab7528b50677aeec1bb96d22034724da0b18a6254cd34d2e57072b3",
    ("capped-disk", 1): "ff909d5f0a6b25bb45a0a0ed974098d1af1349abba57d8a9f9703e2bd496ef8c",
    ("disk", 2): "b6f4f8344466febb371ea8d8aca32efc5652aa668ff058f00133fef35b1d9bfc",
    ("box", 2): "b9b0ba720edfb279a969bf12fb527510bcf55d236c33a98161f24a1222c49aac",
    ("half-space", 2): "999acb38a185a33015a71c640971cec28bcdb5c0a35e6b56abd935a953639f1f",
    ("capped-disk", 2): "94ebb8e8d72558b00e8e6399a3a6517a392994da7bd3c87384e1d02b49a8abf0",
    ("disk", 3): "75e73e8c75f8a80de095303805a5c2ae398649d0c9ed8ded147d07ed8158b713",
    ("box", 3): "8da72533e540d91b91a456a58c1322a9ca93e8c574aeb184ffc2db371821c7f0",
    ("half-space", 3): "43ad3ba28beecf9be86a23e992dabe4b659d4d5fb3109f9fe9806906a80ce084",
    ("capped-disk", 3): "c4bbf65ced4c1dd0f6a1e2ad176b5c2219a0753d9f34e1097b20394e04d94b65",
}


class TestContains:
    def test_interior_point_of_half_disk(self, half_disk):
        assert half_disk.contains_many([(0.5, 0.0)], "open")[0]

    def test_flat_face_is_boundary(self, half_disk):
        assert half_disk.contains_many([(0.0, 0.5)], "boundary")[0]

    def test_left_half_plane_outside_closure(self, half_disk):
        assert not half_disk.contains_many([(-0.1, 0.0)], "closure")[0]

    def test_arc_is_boundary(self, half_disk):
        p = (math.cos(0.3), math.sin(0.3))
        assert half_disk.contains_many([p], "boundary")[0]
        assert not half_disk.contains_many([p], "open")[0]

    def test_dimension_mismatch_rejected(self, half_disk):
        with pytest.raises(DimensionError):
            half_disk.contains_many([(0.5, 0.0, 0.0)], "open")[0]

    def test_other_kinds(self):
        b = box(center=(0.5,), half_widths=(0.5,))
        assert b.contains_many([(0.25,)], "open")[0]
        assert b.contains_many([(1.0,)], "boundary")[0]
        h = half_space(normal=(0.0, 1.0), offset=-0.5)
        assert h.contains_many([(3.0, 0.0)], "open")[0]
        assert h.contains_many([(3.0, -0.5)], "boundary")[0]
        assert not h.contains_many([(0.0, -1.0)], "closure")[0]
        d = disk((1.0, 1.0), 2.0)
        assert d.contains_many([(1.0, 2.9)], "open")[0]


    @pytest.mark.parametrize("domain", [
        half_space(normal=(0.6, 0.8), offset=0.0),
        capped_disk(center=(0.0, 0.0), radius=1.0, normal=(0.6, 0.8), offset=0.0),
        half_space(normal=(0.48, 0.64, 0.6), offset=0.1),
    ], ids=["half-space", "capped-disk", "half-space-3d"])
    def test_tilted_face_does_not_depend_on_the_batch(self, domain):
        # points on a tilted face up to rounding: each must be open or not
        # whatever other points share its batch
        rng = np.random.default_rng(3)
        n, d = domain.normal, domain.dimension
        tangents = rng.standard_normal((20_001, d))
        tangents -= (tangents @ n)[:, None] * n
        pts = 0.5 * tangents / np.linalg.norm(tangents, axis=1)[:, None] + domain.offset * n
        whole = domain.contains_many(pts, "open")
        assert 0 < whole.sum() < whole.size
        cuts = np.cumsum(rng.integers(1, 40, size=pts.shape[0]))
        parts = [domain.contains_many(c, "open") for c in np.split(pts, cuts) if len(c)]
        assert np.array_equal(np.concatenate(parts), whole)


def _rowwise_worst(domain, pts):
    """max_i g_i as the rows were reduced before the column form: the disk
    constraint through np.linalg.norm(axis=1), the maximum through
    max(axis=1) over the stacked constraint columns."""
    cols = []
    if domain.kind in ("disk", "capped-disk"):
        cols.append(np.linalg.norm(pts - domain.center, axis=1) - domain.radius)
    if domain.kind == "box":
        g = np.abs(pts - domain.center) - domain.half_widths
        cols.extend(g[:, j] for j in range(domain.dimension))
    if domain.kind in ("half-space", "capped-disk"):
        proj = sum(pts[:, j] * domain.normal[j] for j in range(domain.dimension))
        cols.append(domain.offset - proj)
    return np.column_stack(cols).max(axis=1)


class TestColumnMembership:
    """The column-by-column membership tests give the row reductions' bits."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_row_reductions_bit_for_bit(self, kind, d):
        domain = _domain(kind, d)
        pts = np.random.default_rng(11).uniform(-1.2, 1.2, size=(1_000_000, d))
        worst = _rowwise_worst(domain, pts)
        assert np.array_equal(domain._worst(pts).view(np.int64), worst.view(np.int64))
        assert np.array_equal(
            domain.interior_distance(pts).view(np.int64),
            np.clip(-worst, 0.0, None).view(np.int64),
        )

    @pytest.mark.parametrize("kind", _KINDS)
    def test_slices_give_each_row_its_own_bits(self, kind):
        # one row past a whole slice: the last row is a slice of its own
        domain = _domain(kind, 3)
        pts = np.random.default_rng(13).uniform(-1.2, 1.2, size=(_SLICE + 1, 3))
        alone = np.concatenate([domain._worst(pts[i : i + 1]) for i in range(pts.shape[0])])
        assert domain._worst(pts).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_norms_match_linalg_norm_bit_for_bit(self, d):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((1_000_000, d)) * rng.uniform(1e-3, 1e3, size=(1, d))
        want = np.linalg.norm(v, axis=1)
        assert np.array_equal(_column_norms(v).view(np.int64), want.view(np.int64))
        region = BallRegion(np.zeros(d), 1.0)
        assert np.array_equal(
            region.contains_many(v), want <= region.radius * (1.0 + 1e-12) + 1e-12
        )


@st.composite
def _row_blocks(draw):
    """(rows, d) or (a, b, d) arrays, d = 1-3 or 8-10, rows mixing the
    coordinates of COORD."""
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 10]))
    lead = draw(st.sampled_from([(17,), (1,), (3, 5)]))
    return draw(hnp.arrays(np.float64, lead + (d,), elements=COORD))


class TestByColumns:
    @given(_row_blocks())
    def test_equals_the_numpy_reduction_bit_for_bit(self, v):
        with np.errstate(all="ignore"):
            for op in (np.add, np.minimum, np.maximum):
                assert _by_columns(op, v).tobytes() == op.reduce(v, axis=-1).tobytes()
            squares = v * v
            assert _by_columns(np.add, squares).tobytes() == np.add.reduce(squares, axis=-1).tobytes()
            assert _column_norms(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()
            assert _abs_max(v).tobytes() == np.abs(v).max(axis=-1).tobytes()
        for mask in (np.isnan(v), np.isfinite(v), v > 0.0):
            assert np.array_equal(_by_columns(np.logical_or, mask), mask.any(axis=-1))
            assert np.array_equal(_by_columns(np.logical_and, mask), mask.all(axis=-1))


class TestSegmentInClosure:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_closure_is_convex(self, kind, d):
        # every closure is convex (geometry module docstring), so the triple
        # sampler's segments stay in it: every probe of a segment between
        # closure points, boundary points included, must lie in the closure
        domain, region = _domain(kind, d), BallRegion(np.zeros(d), 1.0)
        rng = np.random.default_rng(11)
        pool = np.vstack([
            sample_closure_points(domain, region, 300, rng),
            boundary_sample(domain, region, 0.1),
        ])
        i, j = rng.integers(0, pool.shape[0], size=(2, 1000))
        t = np.linspace(0.0, 1.0, 256)[None, :, None]
        probes = pool[i][:, None, :] + t * (pool[j] - pool[i])[:, None, :]
        assert bool(np.all(domain.contains_many(probes.reshape(-1, d), "closure")))


class TestClosureGrid:
    def test_contains_expected_nodes(self, half_disk, unit_ball):
        grid = closure_grid(half_disk, unit_ball, 0.5)
        rows = {tuple(r) for r in np.round(grid, 12)}
        assert (0.5, 0.0) in rows
        assert (0.0, 0.5) in rows
        assert all(x1 >= 0.0 for x1, _ in rows)
        assert all(x1 * x1 + x2 * x2 <= 1.0 + 1e-12 for x1, x2 in rows)

    def test_every_node_in_closure(self, half_disk, unit_ball):
        grid = closure_grid(half_disk, unit_ball, 0.07)
        assert half_disk.contains_many(grid, "closure").all()

    def test_huge_spacing_keeps_only_members(self, half_disk, unit_ball):
        grid = closure_grid(half_disk, unit_ball, 5.0)
        assert 1 <= grid.shape[0] <= 4
        assert half_disk.contains_many(grid, "closure").all()

    def test_covering_radius(self, half_disk, unit_ball):
        # brute-force oracle: every point of the closure has a grid node
        # within half the lattice diagonal times two
        grid = closure_grid(half_disk, unit_ball, 0.5)
        pts = ball_points(4000, seed=101)
        keep = half_disk.contains_many(pts, "closure")
        pts = pts[keep][:1000]
        assert pts.shape[0] == 1000
        dists = np.linalg.norm(pts[:, None, :] - grid[None, :, :], axis=2).min(axis=1)
        assert float(dists.max()) <= 0.5 * math.sqrt(2.0)


class TestBoundarySample:
    def test_half_disk_face_and_arc(self, half_disk, unit_ball):
        pts = boundary_sample(half_disk, unit_ball, 0.1)
        on_face = pts[np.abs(pts[:, 0]) <= 1e-12]
        assert np.count_nonzero(np.abs(on_face[:, 1]) < 1.0) >= 10
        on_arc = pts[np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-12]
        assert on_arc.shape[0] >= 10
        assert float(on_arc[:, 0].min()) >= 0.0

    def test_disk_spacing_gives_eight_points(self, unit_ball):
        pts = boundary_sample(disk((0.0, 0.0), 1.0), unit_ball, 2.0 * math.pi / 8.0)
        assert pts.shape[0] == 8

    def test_every_point_on_boundary(self, half_disk, unit_ball):
        pts = boundary_sample(half_disk, unit_ball, 0.13)
        assert half_disk.contains_many(pts, "boundary").all()

    def test_capped_ball_emits_each_point_once(self):
        # the last ring of the flat face is the rim of the cap
        dom = capped_disk((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 0.3)
        pts = dom.boundary_points(BallRegion((0.0, 0.0, 0.0), 2.0), 0.1)
        assert np.unique(pts, axis=0).shape[0] == pts.shape[0] == 771
        rim = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - math.sqrt(1.0 - 0.3**2)) <= 1e-12
        assert np.count_nonzero(rim & (np.abs(pts[:, 2] - 0.3) <= 1e-12)) > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_boundary_points_are_pinned(self, kind, d):
        # SHA-256 of each sample's bytes, recorded before the point-set
        # builders were shared: the 2D box walks a closed polygon, half-spaces
        # lay a plane patch, and 3D disks and caps sample a Fibonacci sphere
        c = np.linspace(0.1, -0.1, d)
        pts = boundary_sample(_domain(kind, d), BallRegion(c, 1.0), 0.1)
        digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()
        assert digest == _BOUNDARY_DIGESTS[kind, d]


class TestSampler:
    def test_draw_stream_is_a_prefix(self, half_disk, unit_ball):
        a = sample_closure_points(half_disk, unit_ball, 50, np.random.default_rng(5))
        b = sample_closure_points(half_disk, unit_ball, 200, np.random.default_rng(5))
        assert np.array_equal(a, b[:50])

    def test_dimension_mismatch_rejected(self, half_disk):
        region = BallRegion((0.0, 0.0, 0.0), 1.0)
        with pytest.raises(DimensionError, match="region and domain dimensions differ"):
            sample_closure_points(half_disk, region, 10, np.random.default_rng(0))

    def test_samples_lie_in_closure(self, half_disk, unit_ball):
        pts = sample_closure_points(half_disk, unit_ball, 100, np.random.default_rng(9))
        assert half_disk.contains_many(pts, "closure").all()

    @staticmethod
    def _assert_matches_reference(domain, region, seed):
        for count in (1, 7, 500, 8192):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_closure_points(domain, region, count, got_rng)
            want = _reference_sampler(domain, region, count, ref_rng)
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_per_point_loop(self, kind, d):
        self._assert_matches_reference(_domain(kind, d), BallRegion(np.zeros(d), 1.0), 7)

    def test_matches_per_point_loop_at_low_acceptance(self):
        # the ball meets the unit disk in a lens of about 8% of its bounding box
        self._assert_matches_reference(disk((0.0, 0.0), 1.0), BallRegion((1.6, 0.0), 1.0), 8)

    def test_budget_exhausted_after_the_same_draws(self):
        domain, region = disk((0.0, 0.0), 1.0), BallRegion((5.0, 0.0), 1.0)
        for count in (1, 20):
            got_rng, ref_rng = np.random.default_rng(123), np.random.default_rng(123)
            with pytest.raises(SamplingError):
                sample_closure_points(domain, region, count, got_rng)
            with pytest.raises(SamplingError):
                _reference_sampler(domain, region, count, ref_rng)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_triple_stream_is_pinned(self, half_disk, unit_ball):
        # SHA-256 of (X, Y, lambda) recorded before the sampler was batched;
        # certificates carry SAMPLER_VERSION, which names this stream
        X, Y, lam = _sample_triples(half_disk, unit_ball, 10_000, np.random.default_rng(8))
        digest = hashlib.sha256()
        for a in (X, Y, lam):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == (
            "5207ad32d5104402c2a04deedf545d76fcc0e8761c25d6dce07987c4ca9b29ee"
        )


@given(
    cx=st.floats(-0.5, 0.5),
    cy=st.floats(-0.5, 0.5),
    radius=st.floats(0.3, 1.5),
    spacing=st.floats(0.05, 0.4),
)
def test_grid_membership_holds_for_random_capped_disks(cx, cy, radius, spacing):
    dom = capped_disk(center=(cx, cy), radius=radius, normal=(1.0, 0.0), offset=cx)
    region = BallRegion((cx, cy), radius)
    grid = closure_grid(dom, region, spacing)
    if grid.shape[0]:
        assert bool(np.all(dom.contains_many(grid, "closure")))
    bnd = boundary_sample(dom, region, spacing)
    if bnd.shape[0]:
        assert bool(np.all(dom.contains_many(bnd, "boundary")))
