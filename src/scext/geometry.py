"""Analytic domains, ball regions, and point queries.

Domains are intersections of closed-form constraints (disk, axis-aligned
box, half-space, and a half-space-capped disk).  Membership is decided
exactly from the defining inequalities, with a thin band tolerance only
for telling boundary from interior.  Boundary points are generated
parametrically on the defining surfaces, never by band filtering.

Invariant: every closure is convex.  The closure of each kind is
{max_i g_i <= BOUNDARY_TOL} with every constraint g_i convex: |x - c| - r
(disk) is a norm minus a constant, |x_j - c_j| - w_j (one per box face pair)
is the absolute value of an affine map minus a constant, and offset - n.x
(half-space) is affine; the capped disk combines the disk and half-space
constraints.  A sublevel set of a maximum of convex functions is convex, so
a segment lies in the closure exactly when both of its endpoints do.  A new
kind must keep this invariant.

Every g_i is also 1-Lipschitz (a norm of x - c, one coordinate of it, or a
unit normal's projection, each less a constant), and so is their maximum:
a point within distance r of x has max_i g_i within r of its value at x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, SamplingError

# Band half-width used to split closure into interior and boundary.
BOUNDARY_TOL = 1e-12

_KINDS = ("disk", "box", "half-space", "capped-disk")

# Smallest candidate batch of the closure sampler.
_MIN_BATCH = 1024
_SLICE = 8192  # rows per membership-test slice


def _vec(x, dim: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise InputError(f"expected a point, got array of shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionError(f"expected dimension {dim}, got {v.size}")
    return v


def _finite(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise InputError(f"{what} must be finite, got {v.tolist()}")
    return v


def _by_columns(op: np.ufunc, v: np.ndarray) -> np.ndarray:
    """op.reduce(v, axis=-1), bit for bit, taken one column at a time.

    numpy reduces a short contiguous axis row by row, at 8-15 times the cost
    of the same work done column by column along the long axis.  It adds an
    axis shorter than 8 from left to right, as this loop does, starting from
    the identity (so a row of -0.0 sums to 0.0); min and max taken left to
    right pick the entry numpy picks, -0.0 against 0.0 included, and any and
    all are exact.  From 8 coordinates on numpy sums pairwise, so such rows
    go to op.reduce.
    """
    if v.shape[-1] >= 8:
        return op.reduce(v, axis=-1)
    out = v[..., 0].copy() if op.identity is None else op(op.identity, v[..., 0])
    for j in range(1, v.shape[-1]):
        op(out, v[..., j], out=out)
    return out


def _column_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1), bit for bit (``_by_columns``)."""
    return np.sqrt(_by_columns(np.add, v * v))


@dataclass(frozen=True, eq=False)
class BallRegion:
    """Closed ball used to localize every construction."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite(_vec(self.center), "ball center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < math.inf:
            raise InputError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.size

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = _column_norms(pts - self.center)
        return d <= self.radius * (1.0 + 1e-12) + BOUNDARY_TOL


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """One of the named analytic domain kinds.

    ``normal`` is the inward unit normal of the half-space constraint
    (the kept side is ``normal . x > offset``).
    """

    kind: str
    dimension: int
    center: np.ndarray | None = None
    radius: float | None = None
    half_widths: np.ndarray | None = None
    normal: np.ndarray | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown domain kind {self.kind!r}; expected one of {_KINDS}")
        if self.dimension not in (1, 2, 3):
            raise DimensionError(f"domain dimension must be 1, 2 or 3, got {self.dimension}")
        if self.kind in ("disk", "box", "capped-disk"):
            center = _finite(_vec(self.center, self.dimension), "domain center")
            object.__setattr__(self, "center", center)
        if self.kind in ("disk", "capped-disk"):
            r = float(self.radius)
            if not 0.0 < r < math.inf:
                raise InputError(f"disk radius must be positive and finite, got {r}")
            object.__setattr__(self, "radius", r)
        if self.kind == "box":
            w = _finite(_vec(self.half_widths, self.dimension), "box half-widths")
            if not np.all(w > 0.0):
                raise InputError("box half-widths must be positive")
            object.__setattr__(self, "half_widths", w)
        if self.kind in ("half-space", "capped-disk"):
            n = _finite(_vec(self.normal, self.dimension), "half-space normal")
            nn = np.linalg.norm(n)
            if nn == 0.0:
                raise InputError("half-space normal must be nonzero")
            object.__setattr__(self, "normal", n / nn)
            offset = float(self.offset)
            if not math.isfinite(offset):
                raise InputError(f"half-space offset must be finite, got {offset}")
            object.__setattr__(self, "offset", offset)

    # -- membership -------------------------------------------------------

    def _worst(self, pts: np.ndarray) -> np.ndarray:
        """Per-point max_i g_i over the constraint values g_i; the open domain
        is {max_i g_i < 0}.  Computed column by column, so every row gets the
        bits it gets alone, and _SLICE rows at a time."""
        out = np.empty(pts.shape[0])
        for lo in range(0, pts.shape[0], _SLICE):
            rows, cols = pts[lo : lo + _SLICE], []
            if self.kind in ("disk", "capped-disk"):
                cols.append(_column_norms(rows - self.center) - self.radius)
            if self.kind == "box":
                g = np.abs(rows - self.center) - self.half_widths
                cols.extend(g[:, j] for j in range(self.dimension))
            if self.kind in ("half-space", "capped-disk"):
                # a coordinate sum, not ``rows @ normal``: BLAS rounds that by
                # batch shape, so a point one rounding from a tilted face could
                # be open in one batch and not in another
                proj = sum(rows[:, j] * self.normal[j] for j in range(self.dimension))
                cols.append(self.offset - proj)
            out[lo : lo + _SLICE] = functools.reduce(np.maximum, cols)
        return out

    def contains_many(self, points, where: str = "closure") -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise DimensionError(
                f"points have dimension {pts.shape[1]}, domain has {self.dimension}"
            )
        worst = self._worst(pts)
        if where == "open":
            return worst < 0.0
        if where == "closure":
            return worst <= BOUNDARY_TOL
        if where == "boundary":
            return (worst <= BOUNDARY_TOL) & (worst >= -BOUNDARY_TOL)
        raise InputError(f"where must be 'open', 'closure' or 'boundary', got {where!r}")

    def interior_distance(self, points) -> np.ndarray:
        """Distance to the boundary for interior points, clipped to 0 outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.clip(-self._worst(pts), 0.0, None)

    # -- boundary parametrizations ----------------------------------------

    def boundary_points(self, region: BallRegion, spacing: float) -> np.ndarray:
        if not spacing > 0.0:
            raise InputError("spacing must be positive")
        if region.dimension != self.dimension:
            raise DimensionError("region and domain dimensions differ")
        if self.dimension == 1:
            pts = self._boundary_1d()
        elif self.dimension == 2:
            pts = self._boundary_2d(region, spacing)
        else:
            pts = self._boundary_3d(region, spacing)
        if pts.shape[0]:
            pts = pts[region.contains_many(pts)]
        return pts

    def _boundary_1d(self) -> np.ndarray:
        if self.kind == "disk":
            c, r = self.center[0], self.radius
            pts = [[c - r], [c + r]]
        elif self.kind == "box":
            c, w = self.center[0], self.half_widths[0]
            pts = [[c - w], [c + w]]
        elif self.kind == "half-space":
            pts = [[self.offset * self.normal[0]]]
        else:  # capped-disk: interval cut by a ray
            c, r = self.center[0], self.radius
            n, b = self.normal[0], self.offset
            pts = [[x] for x in (c - r, c + r) if n * x >= b - BOUNDARY_TOL]
            cut = b * n
            if abs(cut - c) <= r + BOUNDARY_TOL:
                pts.append([cut])
        return np.array(pts, dtype=float)

    def _circle_arc(self, lo: float, hi: float, spacing: float, closed: bool) -> np.ndarray:
        arc_len = (hi - lo) * self.radius
        m = max(4, int(math.ceil(arc_len / spacing)))
        if closed:
            phi = lo + (hi - lo) * np.arange(m) / m
        else:
            phi = np.linspace(lo, hi, m + 1)
        ring = np.column_stack([np.cos(phi), np.sin(phi)])
        return self.center + self.radius * ring

    def _boundary_2d(self, region: BallRegion, spacing: float) -> np.ndarray:
        if self.kind == "disk":
            return self._circle_arc(0.0, 2.0 * math.pi, spacing, closed=True)
        if self.kind == "box":
            c, w = self.center, self.half_widths
            corners = np.array(
                [c + [-w[0], -w[1]], c + [w[0], -w[1]], c + [w[0], w[1]], c + [-w[0], w[1]]]
            )
            return _polygon_walk(corners, spacing)
        if self.kind == "half-space":
            return self._plane_patch(region, spacing)
        # capped-disk: circular arc where the cap keeps it, plus the flat face.
        n, b = self.normal, self.offset
        d = b - float(n @ self.center)  # signed distance plane-to-center, along n
        chunks = []
        if abs(d) <= self.radius:
            phi_n = math.atan2(n[1], n[0])
            half = math.acos(max(-1.0, min(1.0, d / self.radius)))
            chunks.append(self._circle_arc(phi_n - half, phi_n + half, spacing, closed=False))
            mid = self.center + d * n
            t = _axis_ticks(math.sqrt(max(0.0, self.radius**2 - d**2)), spacing)
            chunks.append(mid + t[:, None] * np.array([-n[1], n[0]]))
        else:
            chunks.append(self._circle_arc(0.0, 2.0 * math.pi, spacing, closed=True))
        return np.vstack(chunks)

    def _plane_patch(self, region: BallRegion, spacing: float) -> np.ndarray:
        """Grid on {normal . x = offset} around the region center projection."""
        n = self.normal
        base = region.center + (self.offset - float(n @ region.center)) * n
        t = _axis_ticks(region.radius + spacing, spacing)
        if self.dimension == 2:
            tang = np.array([-n[1], n[0]])
            return base + t[:, None] * tang
        u = _any_orthonormal(n)
        v = np.cross(n, u)
        tt, ss = np.meshgrid(t, t, indexing="ij")
        return base + tt.reshape(-1, 1) * u + ss.reshape(-1, 1) * v

    def _boundary_3d(self, region: BallRegion, spacing: float) -> np.ndarray:
        if self.kind == "half-space":
            return self._plane_patch(region, spacing)
        if self.kind == "box":
            c, w = self.center, self.half_widths
            faces = []
            for axis in range(3):
                others = [a for a in range(3) if a != axis]
                g1 = _axis_ticks(w[others[0]], spacing)
                g2 = _axis_ticks(w[others[1]], spacing)
                tt, ss = np.meshgrid(g1, g2, indexing="ij")
                for side in (-1.0, 1.0):
                    pts = np.empty((tt.size, 3))
                    pts[:, axis] = c[axis] + side * w[axis]
                    pts[:, others[0]] = c[others[0]] + tt.ravel()
                    pts[:, others[1]] = c[others[1]] + ss.ravel()
                    faces.append(pts)
            return np.vstack(faces)
        count = max(8, int(math.ceil(4.0 * math.pi * self.radius**2 / spacing**2)))
        sphere = self.center + self.radius * _fibonacci_sphere(count)
        if self.kind == "disk":
            return sphere
        # capped ball: spherical cap plus flat disk face.
        n, b = self.normal, self.offset
        d = b - float(n @ self.center)
        keep = sphere @ n >= b - BOUNDARY_TOL
        chunks = [sphere[keep]]
        if abs(d) <= self.radius:
            mid = self.center + d * n
            face_r = math.sqrt(max(0.0, self.radius**2 - d**2))
            u = _any_orthonormal(n)
            v = np.cross(n, u)
            chunks.append(mid[None, :])
            # the last tick is face_r exactly (linspace ends on its endpoint),
            # so the last ring is the rim of the cap
            ticks = _axis_ticks(face_r, spacing)
            for rho in ticks[ticks > 0]:
                m = max(4, int(math.ceil(2.0 * math.pi * rho / spacing)))
                phi = 2.0 * math.pi * np.arange(m) / m
                ring = mid + rho * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v)
                chunks.append(ring)
        return np.vstack(chunks)


def _axis_ticks(half_width: float, spacing: float) -> np.ndarray:
    """ceil(2 half_width / spacing) equal steps over [-half_width, half_width],
    both ends included."""
    m = max(1, int(math.ceil(2.0 * half_width / spacing)))
    return np.linspace(-half_width, half_width, m + 1)


def _polygon_walk(vertices: np.ndarray, spacing: float) -> np.ndarray:
    """Points along the closed polygon through the rows of ``vertices``, each
    edge a -> b in ceil(|b - a| / spacing) equal steps from a, b excluded."""
    chunks = []
    k = vertices.shape[0]
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        m = max(1, int(math.ceil(np.linalg.norm(b - a) / spacing)))
        t = np.arange(m) / m
        chunks.append(a + t[:, None] * (b - a))
    return np.vstack(chunks)


def _any_orthonormal(n: np.ndarray) -> np.ndarray:
    k = int(np.argmin(np.abs(n)))
    e = np.zeros_like(n)
    e[k] = 1.0
    u = e - (e @ n) * n
    return u / np.linalg.norm(u)


def _fibonacci_sphere(count: int, shift: float = 0.0) -> np.ndarray:
    """``count`` unit vectors on the golden-angle spiral, point i at height
    1 - 2 (i + 0.5 + shift) / count."""
    i = np.arange(count) + 0.5 + shift
    z = 1.0 - 2.0 * i / count
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


# -- constructors -----------------------------------------------------------


def disk(center, radius: float) -> DomainSpec:
    c = _vec(center)
    return DomainSpec(kind="disk", dimension=c.size, center=c, radius=radius)


def box(center, half_widths) -> DomainSpec:
    c = _vec(center)
    return DomainSpec(kind="box", dimension=c.size, center=c, half_widths=half_widths)


def half_space(normal, offset: float) -> DomainSpec:
    """Open side {normal . x > offset}; the normal points into the domain."""
    n = _vec(normal)
    return DomainSpec(kind="half-space", dimension=n.size, normal=n, offset=offset)


def capped_disk(center, radius: float, normal, offset: float) -> DomainSpec:
    """Disk cut by a half-space, e.g. {x1 > 0, |x| < 1} for normal e1, offset 0."""
    c = _vec(center)
    return DomainSpec(
        kind="capped-disk",
        dimension=c.size,
        center=c,
        radius=radius,
        normal=normal,
        offset=offset,
    )


# -- operations -----------------------------------------------------------


def closure_grid(domain: DomainSpec, region: BallRegion, spacing: float) -> np.ndarray:
    """Lattice of pitch ``spacing`` anchored at the region center, restricted
    to closure(domain) intersected with the closed ball."""
    if not spacing > 0.0:
        raise InputError("spacing must be positive")
    if region.dimension != domain.dimension:
        raise DimensionError("region and domain dimensions differ")
    k = int(math.floor(region.radius / spacing + 1e-9))
    ticks = np.arange(-k, k + 1) * spacing
    axes = [region.center[j] + ticks for j in range(domain.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    keep = domain.contains_many(pts, "closure") & region.contains_many(pts)
    return pts[keep]


def _ball_lattice(ball: BallRegion, spacing: float) -> np.ndarray:
    """Lattice of pitch ``spacing`` over the whole closed ball, rows in
    lexicographic order: ``closure_grid`` ravels an 'ij' mesh of ascending
    axes, and its mask keeps that order."""
    return closure_grid(disk(ball.center, ball.radius), ball, spacing)


def boundary_sample(domain: DomainSpec, region: BallRegion, spacing: float) -> np.ndarray:
    """Parametric sample of (boundary of domain) intersected with the region ball."""
    pts = domain.boundary_points(region, spacing)
    if pts.shape[0] == 0:
        return pts.reshape(0, domain.dimension)
    # Generated parametrically; every point must sit in the boundary band.
    ok = domain.contains_many(pts, "boundary")
    return pts[ok]


def sample_closure_points(
    domain: DomainSpec,
    region: BallRegion,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rejection-sample ``count`` points of closure(domain) & ball.

    Candidates are drawn uniformly from the ball's bounding box, one point
    (``dimension`` doubles) per draw.  The draw sequence is a prefix: the
    first k points for a given generator state are independent of ``count``,
    and the generator ends just past the draw that gave the last point.
    After max(10_000, 1000*count) draws without ``count`` points, a
    SamplingError reports a ball that barely meets the domain.
    """
    if region.dimension != domain.dimension:
        raise DimensionError("region and domain dimensions differ")
    dim = domain.dimension
    lo = region.center - region.radius
    hi = region.center + region.radius
    out = np.empty((count, dim))
    got = 0
    tries = 0
    budget = max(10_000, 1000 * count)
    while got < count:
        if tries >= budget:
            raise SamplingError(
                f"drew {got}/{count} admissible points in the retry budget; "
                f"the region ball may barely intersect the domain"
            )
        need = count - got
        # about twice the points still needed, so memory stays O(count)
        size = min(budget - tries, max(2 * need, _MIN_BATCH))
        state = rng.bit_generator.state
        cand = rng.uniform(lo, hi, size=(size, dim))
        ok = domain.contains_many(cand, "closure") & region.contains_many(cand)
        hits = np.flatnonzero(ok)
        if hits.size >= need:
            # rewind, and redraw only the draws up to the last point taken
            size = int(hits[need - 1]) + 1
            rng.bit_generator.state = state
            rng.uniform(lo, hi, size=(size, dim))
            hits = hits[:need]
        out[got : got + hits.size] = cand[hits]
        got += hits.size
        tries += size
    return out
