"""Reachable-gradient sets, convex hulls and normal cones.

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
clustered in one ``_cluster`` call over all groups, which the tracer also
uses for every probe ball of an arc.  ``_cluster`` gives each group that
fits a box of diagonal 0.5*eps_c, less a rounding margin, its one running
mean in a lockstep of its own.  Over the other groups it runs the leader
pass in lockstep while many are live and finishes the last few long ones in
Python floats, then merges close means of all groups in lockstep.  It reads
each group's rows where the sort left them, and gives every group as many
mean slots as the most means any group holds.  Every value is computed by
the expression that serves one base point alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, InputError, IsolationError
from .funcspace import _stencil
from .geometry import (
    DomainSpec, _by_columns, _column_norms, _fibonacci_sphere, _polygon_walk, _vec,
)

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
_EPS = float(np.finfo(float).eps)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of distances between rows, with the bits of
    np.linalg.norm(a[:, None] - b[None], axis=-1): squares summed into one
    such matrix coordinate by coordinate (``_by_columns``), without the
    difference tensor, which rows of 8 or more coordinates still take."""
    if a.shape[1] >= 8:
        return _column_norms(a[:, None] - b[None])
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        e = np.subtract.outer(a[:, j], b[:, j])
        out += np.multiply(e, e, out=e)
    return np.sqrt(out, out=out)


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
            "ratio": DEFAULT_RATIO,
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
    return _fibonacci_sphere(m, math.modf(k * _GOLDEN)[0])


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
        mask = ~_by_columns(np.logical_or, np.isnan(grads))
        return mask, grads[mask]
    mask = np.zeros(m, dtype=bool)
    rows = _stencil(pts, h_fd, centre=True)
    if fd_domain is not None:
        ok_rows = fd_domain.contains_many(rows, "closure").reshape(m, 2 * d + 1)
        fit = _by_columns(np.logical_and, ok_rows)
    else:
        fit = np.ones(m, dtype=bool)
    if not fit.any():
        return mask, np.empty((0, d))
    rows = rows.reshape(m, 2 * d + 1, d)[fit].reshape(-1, d)
    vals = func.evaluate_many(rows).reshape(-1, 2 * d + 1)
    u0 = vals[:, 0]
    fwd = (vals[:, 1 : d + 1] - u0[:, None]) / h_fd
    bwd = (u0[:, None] - vals[:, d + 1 :]) / h_fd
    smooth = _by_columns(np.maximum, np.abs(fwd - bwd)) <= eps_c
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
    grads with ring == h, sorted by ring.  Every ring with a gap keeps its own
    heap of gaps, keyed (-jump, phi_a, phi_b, a, b), and pops it in the order
    it would alone; a round pops the top gap of every ring with budget left
    and tests and samples all the midpoints at once.  Returns (grads, ring):
    each ring's base gradients in angular order followed by those at its
    accepted midpoints.  With no gap on any ring that is the sorted input,
    returned at once; otherwise only the rings with a gap get angle and
    gradient slots and a heap, and the output is written in one pass.
    """
    if pts.shape[1] != 2 or budget <= 0:
        return grads, ring
    n_rings = centres.shape[0]
    angle = np.arctan2(*(pts - centres[ring]).T[::-1])  # arctan2(y, x) of each offset
    order = np.lexsort((angle, ring))
    angle, grads = angle[order], grads[order]
    jump = _row_norms(grads[:-1] - grads[1:])
    width = angle[1:] - angle[:-1]
    gap = np.flatnonzero((ring[:-1] == ring[1:]) & (jump > eps_c) & (width > 1e-7))
    if not gap.size:
        return grads, ring
    count = np.bincount(ring, minlength=n_rings)
    slot = np.arange(ring.size) - (np.cumsum(count) - count)[ring]
    # row l of the slots and heaps is live[l], the l-th ring with a gap; sample i's is row[i]
    has_gap = np.bincount(ring[gap], minlength=n_rings) > 0
    live, row, own = np.flatnonzero(has_gap), (np.cumsum(has_gap) - 1)[ring], has_gap[ring]
    n = count[live]
    phi = np.empty((live.size, int(n.max()) + budget))
    ring_grads = np.empty(phi.shape + (2,))
    phi[row[own], slot[own]], ring_grads[row[own], slot[own]] = angle[own], grads[own]

    heaps = [[] for _ in range(live.size)]
    for i in gap.tolist():
        heaps[row[i]].append((-jump[i], angle[i], angle[i + 1], slot[i], slot[i] + 1))
    for heap in heaps:
        heapq.heapify(heap)

    left = np.full(live.size, budget)
    active = list(range(live.size))
    while active:
        top = [heapq.heappop(heaps[h]) for h in active]
        h = np.array(active)
        left[h] -= 1
        a = np.array([t[3] for t in top])
        b = np.array([t[4] for t in top])
        mid = 0.5 * (phi[h, a] + phi[h, b])
        unit = np.array([(math.cos(t), math.sin(t)) for t in mid.tolist()])
        cand = centres[live[h]] + radii[live[h]][:, None] * unit
        inside = np.flatnonzero(domain.contains_many(cand, "open"))
        ok, g = sampler(cand[inside])
        acc = inside[ok]
        h, a, b, mid = h[acc], a[acc], b[acc], mid[acc]
        k = n[h]
        phi[h, k], ring_grads[h, k] = mid, g
        jump_a = _row_norms(ring_grads[h, a] - g)
        jump_b = _row_norms(g - ring_grads[h, b])
        width_a = mid - phi[h, a]
        width_b = phi[h, b] - mid
        for i, hi in enumerate(h.tolist()):
            if jump_a[i] > eps_c and width_a[i] > 1e-7:
                heapq.heappush(heaps[hi], (-jump_a[i], phi[hi, a[i]], mid[i], a[i], k[i]))
            if jump_b[i] > eps_c and width_b[i] > 1e-7:
                heapq.heappush(heaps[hi], (-jump_b[i], mid[i], phi[hi, b[i]], k[i], b[i]))
        n[h] += 1
        active = [hi for hi in active if left[hi] > 0 and heaps[hi]]
    count[live] = n
    start = np.cumsum(count) - count
    out = np.empty((int(count.sum()), 2))
    out[start[ring] + slot] = grads
    h, k = np.nonzero(np.arange(phi.shape[1]) < n[:, None])  # its base rows again, and more
    out[start[live[h]] + k] = ring_grads[h, k]
    return out, np.repeat(np.arange(n_rings), count)


# Live groups at or below which the leader pass finishes each group alone
# (``_sweep``).  A lockstep round costs about twenty numpy calls however few
# groups it serves, a swept row a few float distances per mean in reach.  On
# the benchmark workloads' cluster calls (2-core x86-64, numpy 2.4), all
# calls of a run took 47 / 82 / 13 ms (alpha-half / example1 / affine-glue)
# when switching at 8 live groups, within 2 % of that at 1 or 32, against
# 77 / 144 / 13 ms never switching and 92 / 83 / 46 ms sweeping every group.
_SWEEP_GROUPS = 8
# Most distance entries (groups x K x K) one merge round holds.
_MERGE_ENTRIES = 1 << 18


def _sweep(rows: list, means: list, counts: list, half: float) -> None:
    """Finish one group's leader pass in Python floats, extending means and
    counts (lists of the group's running means and their counts) in place.

    rows are the group's remaining rows, lexicographically sorted.  Each row
    joins the nearest mean (first minimum) within half or starts a new one,
    with the lockstep's expressions: a distance is sqrt((e0*e0 + e1*e1) + ...),
    summed left to right as numpy's add.reduce sums an axis shorter than 8,
    and a joined mean moves to m + (p - m)/count.  The first coordinates of
    the rows never decrease, so a mean whose first coordinate trails the
    row's by more than reach is farther than half from this row and every
    later one (the computed distance is at least the computed first
    difference up to a few roundings, which reach covers, and reach keeps
    the square clear of underflow); it leaves the scan for good.
    """
    reach = max(half * (1.0 + 2.0**-40), 1e-150)
    tail = range(1, len(rows[0]))
    scan = list(range(len(means)))
    for p in rows:
        p0 = p[0]
        best, jb, stale = math.inf, -1, False
        for j in scan:
            m = means[j]
            e = m[0] - p0
            if e < -reach:
                stale = True
                continue
            s = e * e
            for c in tail:
                e = m[c] - p[c]
                s += e * e
            dist = math.sqrt(s)
            if dist < best:
                best, jb = dist, j
        if stale:
            scan = [j for j in scan if means[j][0] - p0 >= -reach]
        if best <= half:
            counts[jb] += 1.0
            w = counts[jb]
            means[jb] = [mc + (pc - mc) / w for mc, pc in zip(means[jb], p)]
        else:
            scan.append(len(means))
            means.append(p)
            counts.append(1.0)


def _widen(means: np.ndarray, counts: np.ndarray, width: int):
    """means and counts with width mean slots per group, the new ones at inf
    and 0."""
    extra = width - means.shape[1]
    return (np.pad(means, ((0, 0), (0, extra), (0, 0)), constant_values=np.inf),
            np.pad(counts, ((0, 0), (0, extra))))


def _merge(means: np.ndarray, counts: np.ndarray, k: np.ndarray, eps_c: float) -> np.ndarray:
    """Merge the closest pair of means of every group, count-weighted, until
    each group's means are pairwise more than eps_c apart; updates means in
    place and returns the mask of the means left.  Group g holds the first
    k[g] rows of means[g].

    The groups go in lockstep, bucketed by k rounded up to a power of two K.
    A round takes each group's row-major argmin over its (K, K) distances,
    where merged-away and unused slots sit at inf, so it picks the pair that
    group's compacted matrix alone would, and updates the means and
    distances by the expressions of a single group.
    """
    width = means.shape[1]
    alive = np.arange(width) < k[:, None]
    for e in range(1, int(k.max(initial=1) - 1).bit_length() + 1):
        ids = np.flatnonzero((k > 1 << (e - 1)) & (k <= 1 << e))
        K = min(1 << e, width)
        step = max(1, _MERGE_ENTRIES // (K * K))
        for lo in range(0, ids.size, step):
            g = ids[lo : lo + step]
            m, c, a = means[g, :K], counts[g, :K], alive[g, :K]
            m[~a] = 0.0  # unused slots hold inf: keep inf - inf out of the differences
            dist = _column_norms(m[:, :, None] - m[:, None])
            dist[~(a[:, :, None] & a[:, None])] = np.inf
            dist[:, np.arange(K), np.arange(K)] = np.inf
            while True:
                flat = dist.reshape(g.size, -1)
                ij = flat.argmin(axis=1)
                go = ~(flat[np.arange(g.size), ij] > eps_c)
                if not go.all():
                    done = g[~go]
                    means[done, :K], alive[done, :K] = m[~go], a[~go]
                    if not go.any():
                        break
                    g, m, c, a, dist, ij = g[go], m[go], c[go], a[go], dist[go], ij[go]
                n = np.arange(g.size)
                i, j = np.divmod(ij, K)
                ci, cj = c[n, i], c[n, j]
                w = ci + cj
                m[n, i] = (ci[:, None] * m[n, i] + cj[:, None] * m[n, j]) / w[:, None]
                c[n, i] = w
                a[n, j] = False
                row = _column_norms(m[n, i][:, None] - m)
                row[~a] = np.inf
                row[n, i] = np.inf
                dist[n, i], dist[n, :, i] = row, row
                dist[n, j], dist[n, :, j] = np.inf, np.inf
    return alive


def _cluster(samples: np.ndarray, sizes, eps_c: float) -> list[np.ndarray]:
    """Representatives of consecutive groups of samples, all groups at once.

    The rows of samples form groups of the given sizes.  Each group gets a
    leader pass over its lexicographically sorted rows: a row joins the
    nearest running mean (first minimum) within 0.5*eps_c or starts a new
    one.  A group whose bounding box is at most 0.5*eps_c across, less a
    margin for the rounding of the box, of the distances and of the running
    mean (which leaves the box by count roundings at most), keeps one mean:
    ``_running_means`` computes m + (p - m)/count for all such groups in
    lockstep.  The pass over the others runs one sample index at a time over
    every group that still has samples, reading each one's row at its
    first-row offset in the sorted samples; groups go by decreasing size so
    those are a prefix.  Every group has the same number of mean slots, inf
    until a mean fills one: min(largest group, 32) at first, doubled when a
    live group's means fill them, or as many as a swept group's means
    (``_widen``).  So they follow the most means any group holds.  Once at
    most _SWEEP_GROUPS groups are live, each finishes alone in Python floats
    (``_sweep``), unless one of them has a non-finite row (numpy's argmin
    returns the first NaN distance, the sweep would skip it).  Then every
    group merges its closest means until all are more than eps_c apart
    (``_merge``).  A group's representatives depend on its own rows only,
    and have the same bits whichever path computes them.  Returns one
    lexicographically sorted (k, d) array per group.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n_groups, d = sizes.size, samples.shape[1]
    pts = samples[np.lexsort((*samples.T[::-1], np.repeat(np.arange(n_groups), sizes)))]
    first, half = np.cumsum(sizes) - sizes, 0.5 * eps_c
    # each nonempty group's bounding box, non-finite where a row is
    full = np.flatnonzero(sizes)
    lo, hi = (op.reduceat(pts, first[full], axis=0) if full.size else np.empty((0, d))
              for op in (np.minimum, np.maximum))
    with np.errstate(invalid="ignore"):  # inf - inf where a row is inf
        width, top = hi - lo, _by_columns(np.maximum, np.maximum(np.abs(lo), np.abs(hi)))
    one, bad = np.zeros(n_groups, dtype=bool), np.zeros(n_groups, dtype=bool)
    one[full] = _column_norms(width) + 16.0 * d * (sizes[full] + d) * _EPS * (top + half) <= half
    bad[full] = ~_by_columns(np.logical_and, np.isfinite(width))
    by_size = np.argsort(-sizes, kind="stable")  # each path takes its groups by decreasing size
    ones, multi = by_size[one[by_size]], by_size[~one[by_size]]
    # a bad group's inf row meets inf - inf in the leader pass and the merge;
    # argmin takes the NaN distance first, as the docstring says
    with np.errstate(invalid="ignore"):
        leaders = _leader_pass(pts, first[multi], sizes[multi], bad[multi], eps_c)
    parts = [*_running_means(pts, first[ones], sizes[ones])[:, None], *leaders]
    return [parts[r] for r in np.argsort(np.concatenate([ones, multi])).tolist()]


def _running_means(pts: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The running mean of each group's rows pts[first:first + size], in
    lockstep over the groups, which go by decreasing size."""
    means = pts[first]
    for t in range(1, int(sizes.max(initial=0))):
        m = means[: np.searchsorted(-sizes, -t)]  # the groups with more than t rows
        m += (pts[first[: m.shape[0]] + t] - m) / float(t + 1)
    return means


def _leader_pass(pts, first, sizes, bad, eps_c: float) -> list[np.ndarray]:
    """``_cluster``'s leader pass and merge for groups by decreasing size,
    of rows pts[first:first + size]; bad marks a group with a non-finite row."""
    n_groups, d = sizes.size, pts.shape[1]
    n_max = int(sizes.max(initial=0))
    n_live = np.searchsorted(-sizes, -np.arange(n_max))  # groups with more rows than t
    means = np.full((n_groups, min(n_max, 32), d), np.inf)
    counts = np.zeros(means.shape[:2])
    k = np.zeros(n_groups, dtype=np.intp)
    half = 0.5 * eps_c
    stop = min(_SWEEP_GROUPS, int(np.flatnonzero(bad).min(initial=n_groups)))
    t = 0
    while t < n_max and n_live[t] > stop:
        live = int(n_live[t])
        p = pts[first[:live] + t]
        top = int(k[:live].max())
        if top == means.shape[1]:
            means, counts = _widen(means, counts, min(2 * top, n_max))
        join = np.zeros(live, dtype=bool)
        if top:
            dist = _column_norms(means[:live, :top] - p[:, None, :])
            j = np.argmin(dist, axis=1)
            join = dist[np.arange(live), j] <= half
            g, j = np.flatnonzero(join), j[join]
            counts[g, j] += 1
            means[g, j] = means[g, j] + (p[g] - means[g, j]) / counts[g, j][:, None]
        g = np.flatnonzero(~join)
        means[g, k[g]] = p[g]
        counts[g, k[g]] = 1
        k[g] += 1
        t += 1
    for r in range(int(n_live[t]) if t < n_max else 0):
        m, c = means[r, : k[r]].tolist(), counts[r, : k[r]].tolist()
        _sweep(pts[first[r] + t : first[r] + sizes[r]].tolist(), m, c, half)
        k[r] = len(m)
        if k[r] > means.shape[1]:
            means, counts = _widen(means, counts, int(k[r]))
        means[r, : k[r]], counts[r, : k[r]] = m, c
    alive = _merge(means, counts, k, eps_c)
    reps = means[alive]
    reps = reps[np.lexsort((*reps.T[::-1], np.nonzero(alive)[0]))]
    ends = np.cumsum(alive.sum(axis=1)).tolist()
    return [reps[a:b] for a, b in zip([0] + ends, ends)]


def _reachable_sets(func, domain, anchors, r0, k_max, m_a, eps_c, h_fd):
    """Reachable-gradient representatives at every anchor, in lockstep.

    Ring k of every anchor has radius r0*DEFAULT_RATIO**k; all rings'
    candidates are tested with one contains_many and sampled with one
    gradient call, their gaps refined together (``_refine_rings``), and each
    anchor's pooled samples, ring by ring, clustered as one group of
    ``_cluster``.  Every ring has as many candidates, laid out ring by ring,
    so a sample's ring is its candidate index // that number.  Returns the
    representatives and the number of samples per anchor; an anchor without
    samples raises IsolationError (the first one in anchor order).
    """
    n, d = anchors.shape
    fd_domain = func.evaluation_domain

    def sampler(pts):
        return _gradient_samples(func, pts, fd_domain, h_fd, eps_c)

    base_budget = m_a if d != 2 else max(m_a // 2, 8)
    radii = [r0 * DEFAULT_RATIO**k for k in range(k_max)]
    offsets = np.array(
        [r * _annulus_directions(d, base_budget, k) for k, r in enumerate(radii)]
    ).reshape(k_max, 2 if d == 1 else base_budget, d)
    cand = (anchors[:, None, None, :] + offsets[None]).reshape(-1, d)
    inside = np.flatnonzero(domain.contains_many(cand, "open"))
    cand = cand[inside]
    ok, grads = sampler(cand)
    grads, ring = _refine_rings(
        domain, np.repeat(anchors, k_max, axis=0), np.tile(radii, n),
        inside[ok] // offsets.shape[1], cand[ok], grads, m_a - base_budget, eps_c, sampler,
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
    x = _vec(x, domain.dimension)
    if not r0 > 0.0:
        raise InputError("r0 must be positive")
    if not domain.contains_many(x[None], "closure")[0]:
        raise InputError("base point must lie in the closure of the domain")
    if h_fd is None:
        h_fd = DEFAULT_FD_FRACTION * r0
    reps, sizes = _reachable_sets(func, domain, x[None, :], r0, k_max, m_a, eps_c, h_fd)
    analytic = getattr(func, "has_gradient", False)
    method_key = "analytic" if analytic else f"central-difference({h_fd:g})"
    n_samples = int(sizes[0])
    return ReachableGradientSet(
        base_point=x,
        representatives=reps[0],
        r0=float(r0),
        k_max=int(k_max),
        eps_c=float(eps_c),
        m_a=int(m_a),
        n_samples=n_samples,
        methods={method_key: n_samples},
    )


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
    return _polygon_walk(v, spacing)


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
