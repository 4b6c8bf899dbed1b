"""Reachable-gradient sets, convex hulls, normal cones, singularity tests.

The reachable set at x is estimated by sampling gradients on shrinking
annuli around x inside the open domain, keeping only points that look
differentiable, and compressing the pooled samples to representatives that
are pairwise more than eps_c apart.  Hulls and normal cones then feed the
propagation-direction selection; they are built in dimension <= 2 only and
raise DimensionError otherwise, while the reachable sets work in any
dimension the domains support.

Reachable sets are estimated for many base points in lockstep
(``_reachable_sets``): the rings of all of them are sampled in one gradient
call, their angular gaps refined with one call per round, and their samples
clustered in one leader pass over all groups (``_cluster``, which the tracer
also uses for all disc centres of a step).  Every value is computed by the
expression that serves one base point alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionError,
    HypothesisError,
    InputError,
    IsolationError,
)
from .funcspace import _stencil
from .geometry import DomainSpec, _vec, segment_in_closure
from .semiconcavity import ModulusParams

DEFAULT_RATIO = 0.5
DEFAULT_K_MAX = 8
DEFAULT_M_A = 200
DEFAULT_EPS_C = 0.02
DEFAULT_EPS_S = 0.05
# h_fd as a fraction of r0: small enough that the one-sided-quotient filter
# still passes points where the field merely bends at O(1/r**2) curvature.
DEFAULT_FD_FRACTION = 5e-6
_N_DIRS = 8  # most normal-cone generators returned

_GOLDEN = 0.6180339887498949


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of distances between rows, with the bits of
    np.linalg.norm(a[:, None] - b[None], axis=-1)."""
    return np.sqrt(np.add.reduce((a[:, None] - b[None]) ** 2, axis=-1))


def _diameter(reps: np.ndarray) -> float:
    """Largest distance between two rows of reps; 0 for fewer than two."""
    if reps.shape[0] < 2:
        return 0.0
    return float(_distances(reps, reps).max())


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


def _annulus_directions(d: int, m: int, k: int) -> np.ndarray:
    """Deterministic unit directions of ring k (m of them; two in 1D)."""
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if d == 2:
        phi = 2.0 * math.pi * (np.arange(m) + math.modf(k * _GOLDEN)[0]) / m
        return np.column_stack([np.cos(phi), np.sin(phi)])
    i = np.arange(m) + 0.5 + math.modf(k * _GOLDEN)[0]
    z = 1.0 - 2.0 * i / m
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


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
    rows = _stencil(pts, h_fd, centre=True)
    if fd_domain is not None:
        ok_rows = fd_domain.contains_many(rows, "closure").reshape(m, 2 * d + 1)
        fit = ok_rows.all(axis=1)
    else:
        fit = np.ones(m, dtype=bool)
    if not fit.any():
        return mask, np.empty((0, d))
    rows = rows.reshape(m, 2 * d + 1, d)[fit].reshape(-1, d)
    vals = func.evaluate_many(rows).reshape(-1, 2 * d + 1)
    u0 = vals[:, 0]
    fwd = (vals[:, 1 : d + 1] - u0[:, None]) / h_fd
    bwd = (u0[:, None] - vals[:, d + 1 :]) / h_fd
    smooth = np.abs(fwd - bwd).max(axis=1) <= eps_c
    mask[np.flatnonzero(fit)[smooth]] = True
    return mask, 0.5 * (fwd + bwd)[smooth]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, rounded as for that row alone (a BLAS dot
    product, which vecdot, new in numpy 2.0, calls row by row)."""
    return np.sqrt(np.vecdot(v, v))


def _refine_rings(domain, centres, radii, ring, pts, grads, budget, eps_c, sampler):
    """Bisect angular gaps whose gradient jump exceeds eps_c, on every ring
    at once (2D only).

    The reachable set can be a continuum traversed very unevenly in angle;
    uniform rings miss narrow angular windows, so each ring spends up to
    budget more samples where its gradient field moves fastest.  Ring h has
    centre centres[h] and radius radii[h]; its samples are the rows of pts and
    grads with ring == h, grouped by ring.  Every ring keeps its own heap of
    gaps, keyed (-jump, phi_a, phi_b, a, b), and pops it in the order it
    would alone; a round pops the top gap of every ring with budget left and
    tests and samples all the midpoints at once.  Returns (grads, ring): each
    ring's base gradients in angular order followed by those at its accepted
    midpoints.
    """
    if pts.shape[1] != 2 or budget <= 0:
        return grads, ring
    n_rings = centres.shape[0]
    count = np.bincount(ring, minlength=n_rings)
    rel = pts - centres[ring]
    angle = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.lexsort((angle, ring))
    angle, grads = angle[order], grads[order]
    slot = np.arange(ring.size) - (np.cumsum(count) - count)[ring]
    phi = np.empty((n_rings, int(count.max(initial=0)) + budget))
    ring_grads = np.empty(phi.shape + (2,))
    phi[ring, slot], ring_grads[ring, slot] = angle, grads

    heaps = [[] for _ in range(n_rings)]
    jump = _row_norms(grads[:-1] - grads[1:])
    width = angle[1:] - angle[:-1]
    gap = np.flatnonzero((ring[:-1] == ring[1:]) & (jump > eps_c) & (width > 1e-7))
    for i in gap.tolist():
        heaps[ring[i]].append((-jump[i], angle[i], angle[i + 1], slot[i], slot[i] + 1))
    for heap in heaps:
        heapq.heapify(heap)

    left = np.full(n_rings, budget)
    live = [h for h in range(n_rings) if heaps[h]]
    while live:
        top = [heapq.heappop(heaps[h]) for h in live]
        h = np.array(live)
        left[h] -= 1
        a = np.array([t[3] for t in top])
        b = np.array([t[4] for t in top])
        mid = 0.5 * (phi[h, a] + phi[h, b])
        unit = np.array([(math.cos(t), math.sin(t)) for t in mid.tolist()])
        cand = centres[h] + radii[h][:, None] * unit
        inside = np.flatnonzero(domain.contains_many(cand, "open"))
        ok, g = sampler(cand[inside])
        acc = inside[ok]
        h, a, b, mid = h[acc], a[acc], b[acc], mid[acc]
        n = count[h]
        phi[h, n], ring_grads[h, n] = mid, g
        jump_a = _row_norms(ring_grads[h, a] - g)
        jump_b = _row_norms(g - ring_grads[h, b])
        width_a = mid - phi[h, a]
        width_b = phi[h, b] - mid
        for i, hi in enumerate(h.tolist()):
            if jump_a[i] > eps_c and width_a[i] > 1e-7:
                heapq.heappush(heaps[hi], (-jump_a[i], phi[hi, a[i]], mid[i], a[i], n[i]))
            if jump_b[i] > eps_c and width_b[i] > 1e-7:
                heapq.heappush(heaps[hi], (-jump_b[i], mid[i], phi[hi, b[i]], n[i], b[i]))
        count[h] += 1
        live = [hi for hi in live if left[hi] > 0 and heaps[hi]]
    kept = np.arange(phi.shape[1]) < count[:, None]
    return ring_grads[kept], np.repeat(np.arange(n_rings), count)


def _merge_closest(means: np.ndarray, counts: np.ndarray, eps_c: float) -> np.ndarray:
    """Merge the closest pair of means, count-weighted, until all are pairwise
    more than eps_c apart.  Merged-away slots stay in place at distance inf,
    so the row-major argmin picks the pair the compacted matrix would."""
    k = means.shape[0]
    dist = _distances(means, means)
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(k, dtype=bool)
    for _ in range(k - 1):
        i, j = divmod(int(np.argmin(dist)), k)
        if dist[i, j] > eps_c:
            break
        w = counts[i] + counts[j]
        means[i] = (counts[i] * means[i] + counts[j] * means[j]) / w
        counts[i] = w
        alive[j] = False
        row = _distances(means[i : i + 1], means)[0]
        row[~alive] = np.inf
        row[i] = np.inf
        dist[i], dist[:, i] = row, row
        dist[j], dist[:, j] = np.inf, np.inf
    return means[alive]


def _cluster(samples: np.ndarray, sizes, eps_c: float) -> list[np.ndarray]:
    """Representatives of consecutive groups of samples, all groups at once.

    The rows of samples form groups of the given sizes.  Each group gets a
    leader pass over its lexicographically sorted rows: a row joins the
    nearest running mean (first minimum) within 0.5*eps_c or starts a new
    one.  The pass runs one sample index at a time over every group that
    still has samples; groups go by decreasing size so those are a prefix.
    Then each group merges its closest means until all are more than eps_c
    apart.  Returns one lexicographically sorted (k, d) array per group.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n_groups, d = sizes.size, samples.shape[1]
    group = np.repeat(np.arange(n_groups), sizes)
    pts = samples[np.lexsort((*samples.T[::-1], group))]
    by_size = np.argsort(-sizes, kind="stable")
    rank = np.empty(n_groups, dtype=np.intp)
    rank[by_size] = np.arange(n_groups)
    slot = np.arange(group.size) - (np.cumsum(sizes) - sizes)[group]
    n_max = int(sizes.max(initial=0))
    padded = np.empty((n_groups, n_max, d))
    padded[rank[group], slot] = pts
    n_live = (sizes[:, None] > np.arange(n_max)).sum(axis=0)
    means = np.zeros_like(padded)  # unused slots enter the masked distances
    counts = np.zeros((n_groups, n_max))
    k = np.zeros(n_groups, dtype=np.intp)
    for t in range(n_max):
        live = int(n_live[t])
        p = padded[:live, t]
        k_live = k[:live]
        top = int(k_live.max())
        join = np.zeros(live, dtype=bool)
        if top:
            diff = means[:live, :top] - p[:, None, :]
            dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
            dist[np.arange(top) >= k_live[:, None]] = np.inf
            j = np.argmin(dist, axis=1)
            join = dist[np.arange(live), j] <= 0.5 * eps_c
            g, j = np.flatnonzero(join), j[join]
            counts[g, j] += 1
            means[g, j] = means[g, j] + (p[g] - means[g, j]) / counts[g, j][:, None]
        g = np.flatnonzero(~join)
        means[g, k[g]] = p[g]
        counts[g, k[g]] = 1
        k[g] += 1
    reps = [None] * n_groups
    for r, g in enumerate(by_size.tolist()):
        m = _merge_closest(means[r, : k[r]], counts[r, : k[r]], eps_c)
        reps[g] = m[np.lexsort(m.T[::-1])]
    return reps


def _reachable_sets(func, domain, anchors, r0, ratio, k_max, m_a, eps_c, h_fd):
    """Reachable-gradient representatives at every anchor, in lockstep.

    Ring k of every anchor has radius r0*ratio**k; all rings' candidates are
    tested with one contains_many and sampled with one gradient call, their
    gaps refined together (``_refine_rings``), and each anchor's pooled
    samples, ring by ring, clustered as one group of ``_cluster``.  Returns
    the representatives and the number of samples per anchor; an anchor
    without samples raises IsolationError (the first one in anchor order).
    """
    n, d = anchors.shape
    fd_domain = func.evaluation_domain

    def sampler(pts):
        return _gradient_samples(func, pts, fd_domain, h_fd, eps_c)

    base_budget = m_a if d != 2 else max(m_a // 2, 8)
    radii = [r0 * ratio**k for k in range(k_max)]
    offsets = np.array(
        [r * _annulus_directions(d, base_budget, k) for k, r in enumerate(radii)]
    ).reshape(k_max, 2 if d == 1 else base_budget, d)
    cand = (anchors[:, None, None, :] + offsets[None]).reshape(-1, d)
    ring = np.repeat(np.arange(n * k_max), offsets.shape[1])
    inside = np.flatnonzero(domain.contains_many(cand, "open"))
    ok, grads = sampler(cand[inside])
    taken = inside[ok]
    grads, ring = _refine_rings(
        domain, np.repeat(anchors, k_max, axis=0), np.tile(radii, n),
        ring[taken], cand[taken], grads, m_a - base_budget, eps_c, sampler,
    )
    sizes = np.bincount(ring // k_max, minlength=n)
    if not sizes.all():
        x = anchors[int(np.argmin(sizes))]
        raise IsolationError(
            f"no admissible differentiability point near {x.tolist()} "
            f"within radius {r0:g}"
        )
    return _cluster(grads, sizes, eps_c), sizes


def reachable_gradients(
    func,
    domain: DomainSpec,
    x,
    r0: float,
    k_max: int = DEFAULT_K_MAX,
    m_a: int = DEFAULT_M_A,
    eps_c: float = DEFAULT_EPS_C,
    h_fd: float | None = None,
) -> ReachableGradientSet:
    """Estimate the set of gradient limits at x from inside the open domain.

    Each annulus r_{k+1} <= |y - x| <= r_k, r_k = r0*DEFAULT_RATIO**k,
    contributes at most m_a sample points on the sphere of radius r_k.
    Closed-form gradients are used when
    the function declares them (every point where the form is not singular,
    i.e. where it returns no NaN row, is a differentiability point);
    otherwise central differences guarded by the one-sided-quotient filter,
    with stencils kept inside the function's declared domain.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not r0 > 0.0:
        raise InputError("r0 must be positive")
    if not domain.contains(x, "closure"):
        raise InputError("base point must lie in the closure of the domain")
    if h_fd is None:
        h_fd = DEFAULT_FD_FRACTION * r0
    reps, sizes = _reachable_sets(
        func, domain, x[None, :], r0, DEFAULT_RATIO, k_max, m_a, eps_c, h_fd
    )
    analytic = getattr(func, "has_gradient", False)
    method_key = "analytic" if analytic else f"central-difference({h_fd:g})"
    n_samples = int(sizes[0])
    return ReachableGradientSet(
        base_point=x,
        representatives=reps[0],
        r0=float(r0),
        ratio=DEFAULT_RATIO,
        k_max=int(k_max),
        eps_c=float(eps_c),
        m_a=int(m_a),
        n_samples=n_samples,
        methods={method_key: n_samples},
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
    p = _vec(p, domain.dimension)
    if not segment_in_closure(domain, x, y):
        raise HypothesisError("segment [x, y] leaves the closure of the domain")
    gap = float(np.linalg.norm(y - x))
    vals = func.evaluate_many(np.vstack([y, x]))
    return float(vals[0] - vals[1] - p @ (y - x) - params.C * gap ** (1.0 + params.alpha))


# -- convex hulls ------------------------------------------------------------


@dataclass(eq=False)
class ConvexPolytope:
    """Extreme points of a hull; 2D full-dimensional vertices are CCW
    (``convex_hull`` states where the cycle starts)."""

    vertices: np.ndarray  # (k, d)
    affine_dimension: int

    @property
    def ambient_dimension(self) -> int:
        return self.vertices.shape[1]


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


# Shewchuk's bound on the rounding error of a 2D orientation determinant
_CCW_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _cross(o, a, b) -> float:
    """z-component of (a - o) x (b - o), positive when o, a, b turn left,
    with the sign of the exact value: where rounding could flip the sign,
    the sign alone is computed in rational arithmetic and returned."""
    left = (a[0] - o[0]) * (b[1] - o[1])
    right = (a[1] - o[1]) * (b[0] - o[0])
    det = left - right
    if abs(det) > _CCW_BOUND * (abs(left) + abs(right)):
        return det
    o, a, b = ([Fraction(t) for t in v] for v in (o, a, b))
    exact = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return float((exact > 0) - (exact < 0))


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    """Indices of the 2D hull vertices by Andrew's monotone chain."""
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    rows = pts.tolist()
    chains = []
    for seq in (order, order[::-1]):  # lower chain, then upper chain
        chain: list[int] = []
        for i in seq:
            while len(chain) > 1 and _cross(rows[chain[-2]], rows[chain[-1]], rows[i]) <= 0:
                chain.pop()
            chain.append(i)
        chains.append(chain[:-1])  # each chain's last point starts the other
    return np.array(chains[0] + chains[1])


def convex_hull(vectors) -> ConvexPolytope:
    """Hull of the rows of vectors (dimension <= 2), as its extreme points.

    A full-dimensional 2D hull lists its vertices counter-clockwise, starting
    at the lexicographically smallest point (least x1, then least x2).  A
    point on an edge between two vertices (a zero cross product, decided in
    exact arithmetic) is not a vertex, and duplicate points count once.  A
    segment lists its two ends, the extremes along the affine hull's
    direction, and a single point the mean of its copies.
    """
    pts = np.atleast_2d(np.asarray(vectors, dtype=float))
    if pts.shape[0] == 0:
        raise InputError("convex hull of an empty set")
    if pts.shape[1] > 2:
        raise DimensionError("hulls are supported in dimension <= 2 only")
    rank, center, basis = _affine_frame(pts)
    if rank == 0:
        return ConvexPolytope(center[None, :], 0)
    if rank == 1:
        t = (pts - center) @ basis[0]
        return ConvexPolytope(np.vstack([pts[np.argmin(t)], pts[np.argmax(t)]]), 1)
    return ConvexPolytope(pts[_monotone_chain(pts)], 2)


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def polytope_distance(poly: ConvexPolytope, p) -> float:
    p = _vec(p, poly.ambient_dimension)
    v = poly.vertices
    if poly.affine_dimension == 0:
        return float(np.linalg.norm(p - v[0]))
    if poly.affine_dimension == 1:
        return _point_segment_distance(p, v[0], v[1])
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
    chunks = []
    k = v.shape[0]
    for i in range(k):
        a, b = v[i], v[(i + 1) % k]
        n = max(1, int(math.ceil(np.linalg.norm(b - a) / spacing)))
        t = np.arange(n) / n
        chunks.append(a + t[:, None] * (b - a))
    return np.vstack(chunks)


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
    return bnd[_distances(bnd, reps).min(axis=1) > gap]


def _sector_rays(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    a1 = math.atan2(n1[1], n1[0])
    a2 = math.atan2(n2[1], n2[0])
    sweep = (a2 - a1) % (2.0 * math.pi)
    if sweep > math.pi:  # take the short way round: normal cones open < pi
        a1, a2 = a2, a1
        sweep = 2.0 * math.pi - sweep
    count = max(2, min(_N_DIRS, 2 + int(sweep / 0.2)))
    ang = a1 + sweep * np.linspace(0.0, 1.0, count)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def normal_cone_directions(poly: ConvexPolytope, p0) -> np.ndarray:
    """At most _N_DIRS unit generators of {nu : <nu, q - p0> <= 0 for all
    vertices q}.

    Interior points get an empty output (the cone is {0}).  Propagation
    directions are theta = -nu for the returned rays.
    """
    d = poly.ambient_dimension
    p0 = _vec(p0, d)
    if polytope_distance(poly, p0) > 1e-9:
        raise InputError("p0 does not lie on the polytope")
    v = poly.vertices
    if poly.affine_dimension == 0:
        return _even_directions(d, _N_DIRS)
    if poly.affine_dimension == 1:
        a, b = v[0], v[1]
        u = (b - a) / np.linalg.norm(b - a)
        # the perpendiculars in 2D; a 1D segment has none
        rays = [np.array([-u[1], u[0]]), np.array([u[1], -u[0]])] if d == 2 else []
        if np.linalg.norm(p0 - a) <= 1e-9:
            rays.append(-u)
        elif np.linalg.norm(p0 - b) <= 1e-9:
            rays.append(u)
        return _dedupe_rays(np.array(rays).reshape(-1, d))
    k = v.shape[0]
    near = [_point_segment_distance(p0, v[i], v[(i + 1) % k]) <= 1e-9 for i in range(k)]
    if not any(near):
        return np.empty((0, 2))
    # edge i runs from v[i] to v[i+1]; the edges near p0 form one run of the
    # cycle, read from its first edge whatever vertex the cycle starts at
    start = near.index(False) if not all(near) else 0
    run = [(start + j) % k for j in range(k) if near[(start + j) % k]]
    normals = []
    for i in (run[0], run[-1]):
        e = v[(i + 1) % k] - v[i]
        n = np.array([e[1], -e[0]])
        normals.append(n / np.linalg.norm(n))
    if len(run) == 1:
        return np.array(normals[:1])
    return _dedupe_rays(_sector_rays(normals[0], normals[1]))


def _even_directions(d: int, count: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])[:count]
    ang = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _dedupe_rays(rays: np.ndarray) -> np.ndarray:
    out: list[np.ndarray] = []
    for r in rays:
        if all(float(np.linalg.norm(r - q)) > 1e-12 for q in out):
            out.append(r)
    return np.array(out).reshape(-1, rays.shape[1])


def is_singular(func, domain: DomainSpec, x, **probe) -> bool:
    """True when the reachable-gradient representatives spread wider than
    DEFAULT_EPS_S; ``probe`` holds the reachable_gradients keywords."""
    rset = reachable_gradients(func, domain, x, **probe)
    return rset.diameter() > DEFAULT_EPS_S
