"""Reachable-gradient sets, convex hulls, normal cones, singularity tests.

The reachable set at x is estimated by sampling gradients on shrinking
annuli around x inside the open domain, keeping only points that look
differentiable, and compressing the pooled samples to representatives that
are pairwise more than eps_c apart.  Hulls and normal cones then feed the
propagation-direction selection.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (
    DimensionError,
    HypothesisError,
    InputError,
    IsolationError,
)
from .funcspace import declared_domain, evaluate_many
from .geometry import DomainSpec, segment_in_closure
from .semiconcavity import ModulusParams

DEFAULT_RATIO = 0.5
DEFAULT_K_MAX = 8
DEFAULT_M_A = 200
DEFAULT_EPS_C = 0.02
DEFAULT_EPS_S = 0.05
# h_fd as a fraction of r0: small enough that the one-sided-quotient filter
# still passes points where the field merely bends at O(1/r**2) curvature.
DEFAULT_FD_FRACTION = 5e-6

_GOLDEN = 0.6180339887498949


def _diameter(reps: np.ndarray) -> float:
    """Largest distance between two rows of reps; 0 for fewer than two."""
    if reps.shape[0] < 2:
        return 0.0
    diff = reps[:, None, :] - reps[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())


@dataclass(eq=False)
class ReachableGradientSet:
    """Cluster means of gradient samples taken on annuli around base_point."""

    base_point: np.ndarray
    representatives: np.ndarray  # (k, d), lexicographically sorted
    r0: float
    ratio: float
    k_max: int
    eps_c: float
    m_a: int
    n_samples: int
    methods: dict

    def diameter(self) -> float:
        return _diameter(self.representatives)

    def to_dict(self) -> dict:
        return {
            "base_point": self.base_point.tolist(),
            "representatives": self.representatives.tolist(),
            "r0": self.r0,
            "ratio": self.ratio,
            "k_max": self.k_max,
            "eps_c": self.eps_c,
            "m_a": self.m_a,
            "n_samples": self.n_samples,
            "methods": dict(self.methods),
            "diameter": self.diameter(),
        }


# -- gradient sampling -------------------------------------------------------


def _annulus_candidates(x: np.ndarray, r: float, m: int, k: int) -> np.ndarray:
    """Deterministic direction set on the sphere of radius r around x."""
    d = x.size
    if d == 1:
        return x + r * np.array([[-1.0], [1.0]])
    if d == 2:
        phi = 2.0 * math.pi * (np.arange(m) + math.modf(k * _GOLDEN)[0]) / m
        return x + r * np.column_stack([np.cos(phi), np.sin(phi)])
    i = np.arange(m) + 0.5 + math.modf(k * _GOLDEN)[0]
    z = 1.0 - 2.0 * i / m
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return x + r * dirs


def _gradient_samples(
    func, pts: np.ndarray, fd_domain: DomainSpec | None, h_fd: float, eps_c: float
):
    """Mask of the pts that look differentiable, and the gradients there.

    A closed-form gradient marks a point singular by a NaN row.  Without one,
    the central-difference gradient counts where the one-sided quotients
    agree within eps_c and the whole stencil lies in the closure of
    fd_domain (when there is one).
    """
    m, d = pts.shape
    if getattr(func, "has_gradient", False):
        grads = func.gradient_many(pts)
        mask = ~np.isnan(grads).any(axis=1)
        return mask, grads[mask]
    mask = np.zeros(m, dtype=bool)
    eye = h_fd * np.eye(d)
    # rows: [p, p+h e_1, p-h e_1, p+h e_2, ...] per point
    rows = np.concatenate(
        [pts[:, None, :], pts[:, None, :] + eye[None], pts[:, None, :] - eye[None]],
        axis=1,
    ).reshape(m * (2 * d + 1), d)
    if fd_domain is not None:
        ok_rows = fd_domain.contains_many(rows, "closure").reshape(m, 2 * d + 1)
        fit = ok_rows.all(axis=1)
    else:
        fit = np.ones(m, dtype=bool)
    if not fit.any():
        return mask, np.empty((0, d))
    rows = rows.reshape(m, 2 * d + 1, d)[fit].reshape(-1, d)
    vals = evaluate_many(func, rows).reshape(-1, 2 * d + 1)
    u0 = vals[:, 0]
    fwd = (vals[:, 1 : d + 1] - u0[:, None]) / h_fd
    bwd = (u0[:, None] - vals[:, d + 1 :]) / h_fd
    smooth = np.abs(fwd - bwd).max(axis=1) <= eps_c
    mask[np.flatnonzero(fit)[smooth]] = True
    return mask, 0.5 * (fwd + bwd)[smooth]


def _refine_ring(domain, x, r, base_pts, base_grads, budget, eps_c, sampler):
    """Bisect angular gaps whose gradient jump exceeds eps_c (2D only).

    The reachable set can be a continuum traversed very unevenly in angle;
    uniform rings miss narrow angular windows, so spend the leftover budget
    where the gradient field moves fastest.  Returns the base gradients in
    angular order followed by those at the accepted midpoints.
    """
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
        if not domain.contains(cand, "open"):
            continue
        ok, g = sampler(cand[None, :])
        if not ok[0]:
            continue
        phi[n], grads[n] = mid_phi, g[0]
        push(a, n)
        push(n, b)
        n += 1
    return grads[:n]


def _cluster(samples: np.ndarray, eps_c: float):
    """Leader pass over lexicographically sorted samples, then merge the
    closest means until all are pairwise more than eps_c apart."""
    order = np.lexsort(samples.T[::-1])
    pts = samples[order]
    means = np.empty_like(pts)
    counts = np.zeros(pts.shape[0])
    k = 0
    for p in pts:
        if k:
            d = np.linalg.norm(means[:k] - p, axis=1)
            j = int(np.argmin(d))
            if d[j] <= 0.5 * eps_c:
                counts[j] += 1
                means[j] = means[j] + (p - means[j]) / counts[j]
                continue
        means[k] = p
        counts[k] = 1
        k += 1
    mean_arr, count_arr = means[:k], counts[:k]
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
    final = mean_arr[np.lexsort(mean_arr.T[::-1])]
    return final


def reachable_gradients(
    func,
    domain: DomainSpec,
    x,
    r0: float,
    ratio: float = DEFAULT_RATIO,
    k_max: int = DEFAULT_K_MAX,
    m_a: int = DEFAULT_M_A,
    eps_c: float = DEFAULT_EPS_C,
    h_fd: float | None = None,
) -> ReachableGradientSet:
    """Estimate the set of gradient limits at x from inside the open domain.

    Each annulus r_{k+1} <= |y - x| <= r_k contributes at most m_a sample
    points on the sphere of radius r_k.  Closed-form gradients are used when
    the function declares them (every point where the form is not singular,
    i.e. where it returns no NaN row, is a differentiability point);
    otherwise central differences guarded by the one-sided-quotient filter,
    with stencils kept inside the function's declared domain.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not r0 > 0.0:
        raise InputError("r0 must be positive")
    if not 0.0 < ratio < 1.0:
        raise InputError("ratio must lie in (0, 1)")
    if not domain.contains(x, "closure"):
        raise InputError("base point must lie in the closure of the domain")
    if h_fd is None:
        h_fd = DEFAULT_FD_FRACTION * r0
    analytic = getattr(func, "has_gradient", False)
    fd_domain = declared_domain(func)

    def sampler(pts):
        return _gradient_samples(func, pts, fd_domain, h_fd, eps_c)

    all_grads = []
    n_samples = 0
    method_key = "analytic" if analytic else f"central-difference({h_fd:g})"
    methods = {method_key: 0}
    for k in range(k_max):
        r = r0 * ratio**k
        base_budget = m_a if x.size != 2 else max(m_a // 2, 8)
        cand = _annulus_candidates(x, r, base_budget, k)
        cand = cand[domain.contains_many(cand, "open")]
        mask, grads = sampler(cand)
        grads = _refine_ring(
            domain, x, r, cand[mask], grads, m_a - base_budget, eps_c, sampler
        )
        if grads.shape[0]:
            all_grads.append(grads)
            n_samples += grads.shape[0]
            methods[method_key] += grads.shape[0]
    if not all_grads:
        raise IsolationError(
            f"no admissible differentiability point near {x.tolist()} "
            f"within radius {r0:g}"
        )
    reps = _cluster(np.vstack(all_grads), eps_c)
    return ReachableGradientSet(
        base_point=x,
        representatives=reps,
        r0=float(r0),
        ratio=float(ratio),
        k_max=int(k_max),
        eps_c=float(eps_c),
        m_a=int(m_a),
        n_samples=n_samples,
        methods=methods,
    )


def supergradient_defect(
    func,
    domain: DomainSpec,
    x,
    p,
    y,
    params: ModulusParams,
) -> float:
    """u(y) - u(x) - <p, y-x> - C|y-x|^(1+alpha); nonpositive when p is a
    reachable gradient at x and C is a valid constant."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not segment_in_closure(domain, x, y):
        raise HypothesisError("segment [x, y] leaves the closure of the domain")
    gap = float(np.linalg.norm(y - x))
    vals = evaluate_many(func, np.vstack([y, x]))
    return float(vals[0] - vals[1] - p @ (y - x) - params.C * gap ** (1.0 + params.alpha))


# -- convex hulls ------------------------------------------------------------


@dataclass(eq=False)
class ConvexPolytope:
    """Extreme points of a hull; 2D full-dimensional vertices are CCW."""

    vertices: np.ndarray  # (k, d)
    affine_dimension: int

    @property
    def ambient_dimension(self) -> int:
        return self.vertices.shape[1]

    def to_dict(self) -> dict:
        return {
            "vertices": self.vertices.tolist(),
            "affine_dimension": self.affine_dimension,
        }


def _affine_frame(pts: np.ndarray):
    """Affine dimension with an orthonormal basis of the affine hull."""
    center = pts.mean(axis=0)
    rel = pts - center
    if rel.shape[0] == 1:
        return 0, center, np.empty((0, pts.shape[1]))
    _, s, vt = np.linalg.svd(rel, full_matrices=False)
    scale = max(s[0], 1.0) if s.size else 1.0
    rank = int(np.sum(s > 1e-9 * scale))
    return rank, center, vt[:rank]


def convex_hull(vectors) -> ConvexPolytope:
    pts = np.atleast_2d(np.asarray(vectors, dtype=float))
    if pts.shape[0] == 0:
        raise InputError("convex hull of an empty set")
    d = pts.shape[1]
    if d > 3:
        raise DimensionError("hulls are supported in dimension <= 3 only")
    rank, center, basis = _affine_frame(pts)
    if rank == 0:
        return ConvexPolytope(center[None, :], 0)
    if rank == 1:
        t = (pts - center) @ basis[0]
        return ConvexPolytope(np.vstack([pts[np.argmin(t)], pts[np.argmax(t)]]), 1)
    if rank == 2 and d == 2:
        hull = ConvexHull(pts)
        return ConvexPolytope(pts[hull.vertices], 2)  # scipy orders 2D CCW
    if rank == 2:  # planar set in 3D: hull in the plane, mapped back
        plane = (pts - center) @ basis.T
        hull = ConvexHull(plane)
        return ConvexPolytope(center + plane[hull.vertices] @ basis, 2)
    hull = ConvexHull(pts)
    return ConvexPolytope(pts[hull.vertices], 3)


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_triangle_distance(p, a, b, c) -> float:
    # Ericson, Real-Time Collision Detection, closest point on triangle.
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = float(ab @ ap), float(ac @ ap)
    if d1 <= 0.0 and d2 <= 0.0:
        return float(np.linalg.norm(p - a))
    bp = p - b
    d3, d4 = float(ab @ bp), float(ac @ bp)
    if d3 >= 0.0 and d4 <= d3:
        return float(np.linalg.norm(p - b))
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 <= d1 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return float(np.linalg.norm(p - (a + t * ab)))
    cp = p - c
    d5, d6 = float(ab @ cp), float(ac @ cp)
    if d6 >= 0.0 and d5 <= d6:
        return float(np.linalg.norm(p - c))
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 <= d2 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return float(np.linalg.norm(p - (a + t * ac)))
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return float(np.linalg.norm(p - (b + t * (c - b))))
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return float(np.linalg.norm(p - (a + v * ab + w * ac)))


def polytope_distance(poly: ConvexPolytope, p) -> float:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = poly.vertices
    if poly.affine_dimension == 0:
        return float(np.linalg.norm(p - v[0]))
    if poly.affine_dimension == 1:
        return _point_segment_distance(p, v[0], v[1])
    if poly.ambient_dimension == 2:
        k = v.shape[0]
        inside = True
        best = math.inf
        for i in range(k):
            a, b = v[i], v[(i + 1) % k]
            e = b - a
            if e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0]) < 0.0:
                inside = False
            best = min(best, _point_segment_distance(p, a, b))
        return 0.0 if inside else best
    if poly.affine_dimension == 2:  # planar polygon in 3D
        rank, center, basis = _affine_frame(v)
        off = float(np.linalg.norm((p - center) - basis.T @ (basis @ (p - center))))
        flat = ConvexPolytope((v - center) @ basis.T, 2)
        in_plane = polytope_distance(flat, basis @ (p - center))
        return math.hypot(off, in_plane)
    hull = ConvexHull(v)
    signed = hull.equations[:, :-1] @ p + hull.equations[:, -1]
    if float(signed.max()) <= 1e-12:
        return 0.0
    best = math.inf
    for simplex in hull.simplices:
        a, b, c = v[simplex[0]], v[simplex[1]], v[simplex[2]]
        best = min(best, _point_triangle_distance(p, a, b, c))
    return best


# -- hull boundary gap and normal cones --------------------------------------


def _boundary_samples(poly: ConvexPolytope, spacing: float) -> np.ndarray:
    """Topological boundary of the hull; affine-deficient hulls count whole."""
    v = poly.vertices
    d = poly.ambient_dimension
    if poly.affine_dimension == 0:
        return np.empty((0, d))
    if poly.affine_dimension == 1:
        a, b = v[0], v[1]
        n = max(1, int(math.ceil(np.linalg.norm(b - a) / spacing)))
        t = np.linspace(0.0, 1.0, n + 1)
        return a + t[:, None] * (b - a)
    if poly.affine_dimension == 2 and d == 2:
        chunks = []
        k = v.shape[0]
        for i in range(k):
            a, b = v[i], v[(i + 1) % k]
            n = max(1, int(math.ceil(np.linalg.norm(b - a) / spacing)))
            t = np.arange(n) / n
            chunks.append(a + t[:, None] * (b - a))
        return np.vstack(chunks)
    if poly.affine_dimension == 2:  # flat polygon in 3D: the whole sheet
        rank, center, basis = _affine_frame(v)
        flat = (v - center) @ basis.T
        hull = ConvexHull(flat)
        lo, hi = flat.min(axis=0), flat.max(axis=0)
        g1 = np.arange(lo[0], hi[0] + spacing, spacing)
        g2 = np.arange(lo[1], hi[1] + spacing, spacing)
        tt, ss = np.meshgrid(g1, g2, indexing="ij")
        grid = np.column_stack([tt.ravel(), ss.ravel()])
        keep = (hull.equations[:, :2] @ grid.T + hull.equations[:, 2:]) <= 1e-9
        return center + grid[keep.all(axis=0)] @ basis
    chunks = []
    hull = ConvexHull(v)
    for simplex in hull.simplices:
        a, b, c = v[simplex[0]], v[simplex[1]], v[simplex[2]]
        n = max(
            1,
            int(
                math.ceil(
                    max(np.linalg.norm(b - a), np.linalg.norm(c - a)) / spacing
                )
            ),
        )
        for i in range(n + 1):
            for j in range(n + 1 - i):
                chunks.append(a + (i / n) * (b - a) + (j / n) * (c - a))
    return np.array(chunks)


def hull_gap(
    grads: ReachableGradientSet,
    eps_g: float,
    min_gap: float | None = None,
) -> np.ndarray:
    """Boundary points of co(representatives) farther than min_gap from every
    representative.  Empty output reads as: the hull boundary adds nothing,
    the propagation condition is numerically false."""
    if not eps_g > 0.0:
        raise InputError("eps_g must be positive")
    gap = grads.eps_c if min_gap is None else float(min_gap)
    reps = grads.representatives
    poly = convex_hull(reps)
    bnd = _boundary_samples(poly, eps_g)
    if bnd.shape[0] == 0:
        return bnd
    dist = np.linalg.norm(bnd[:, None, :] - reps[None, :, :], axis=2).min(axis=1)
    return bnd[dist > gap]


def _sector_rays(n1: np.ndarray, n2: np.ndarray, n_dirs: int) -> np.ndarray:
    a1 = math.atan2(n1[1], n1[0])
    a2 = math.atan2(n2[1], n2[0])
    sweep = (a2 - a1) % (2.0 * math.pi)
    if sweep > math.pi:  # take the short way round: normal cones open < pi
        a1, a2 = a2, a1
        sweep = 2.0 * math.pi - sweep
    count = max(2, min(n_dirs, 2 + int(sweep / 0.2)))
    ang = a1 + sweep * np.linspace(0.0, 1.0, count)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def normal_cone_directions(poly: ConvexPolytope, p0, n_dirs: int = 8) -> np.ndarray:
    """Unit generators of {nu : <nu, q - p0> <= 0 for all vertices q}.

    Interior points get an empty output (the cone is {0}).  Propagation
    directions are theta = -nu for the returned rays.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if n_dirs < 1:
        raise InputError("n_dirs must be positive")
    if polytope_distance(poly, p0) > 1e-9:
        raise InputError("p0 does not lie on the polytope")
    v = poly.vertices
    d = poly.ambient_dimension
    if poly.affine_dimension == 0:
        return _even_directions(d, min(n_dirs, 8))
    if poly.affine_dimension == 1 and d == 2:
        a, b = v[0], v[1]
        u = (b - a) / np.linalg.norm(b - a)
        perp = np.array([-u[1], u[0]])
        rays = [perp, -perp]
        if np.linalg.norm(p0 - a) <= 1e-9:
            rays.append(-u)
        elif np.linalg.norm(p0 - b) <= 1e-9:
            rays.append(u)
        return _dedupe_rays(np.array(rays), n_dirs)
    if d == 2:
        k = v.shape[0]
        active = []
        for i in range(k):
            a, b = v[i], v[(i + 1) % k]
            if _point_segment_distance(p0, a, b) <= 1e-9:
                e = b - a
                n = np.array([e[1], -e[0]])
                active.append(n / np.linalg.norm(n))
        if not active:
            return np.empty((0, 2))
        if len(active) == 1:
            return np.array(active)
        return _dedupe_rays(_sector_rays(active[0], active[1], n_dirs), n_dirs)
    if poly.affine_dimension == 3:
        hull = ConvexHull(v)
        signed = hull.equations[:, :-1] @ p0 + hull.equations[:, -1]
        normals = hull.equations[np.abs(signed) <= 1e-9, :-1]
        if normals.shape[0] == 0:
            return np.empty((0, 3))
        normals = normals / np.linalg.norm(normals, axis=1)[:, None]
        return _dedupe_rays(normals, n_dirs)
    # degenerate 3D shapes: sample the cone's unit sphere trace
    return _sampled_cone(v, p0, n_dirs)


def _even_directions(d: int, count: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])[:count]
    if d == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _sampled_cone(vertices: np.ndarray, p0: np.ndarray, n_dirs: int) -> np.ndarray:
    cand = _even_directions(vertices.shape[1], 4096)
    ok = (cand @ (vertices - p0).T).max(axis=1) <= 1e-9
    rays = cand[ok]
    if rays.shape[0] <= n_dirs:
        return rays
    picked = [rays[0]]
    for rseq in rays[1:]:
        if len(picked) >= n_dirs:
            break
        if min(float(np.linalg.norm(rseq - q)) for q in picked) > 0.5:
            picked.append(rseq)
    return np.array(picked)


def _dedupe_rays(rays: np.ndarray, n_dirs: int) -> np.ndarray:
    out: list[np.ndarray] = []
    for r in rays:
        if all(float(np.linalg.norm(r - q)) > 1e-12 for q in out):
            out.append(r)
        if len(out) >= n_dirs:
            break
    return np.array(out)


def is_singular(
    func,
    domain: DomainSpec,
    x,
    eps_s: float = DEFAULT_EPS_S,
    **probe,
) -> bool:
    """True when the reachable-gradient representatives spread wider than eps_s."""
    rset = reachable_gradients(func, domain, x, **probe)
    return rset.diameter() > eps_s
