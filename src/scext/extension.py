"""Extension envelopes, glued covers, and mollified approximants.

The local extension of u from A-bar = closure(domain) & ball is the lower
envelope over support pairs (y, p)

    E(x) = min_y [ u(y) + <p, x - y> + coefficient * |x - y|**(1+alpha) ],

which agrees with u on A-bar and stays fractionally semiconcave on the whole
ball with constant coefficient*(1+alpha)*(1+2**(2-alpha)).  Local fields can
be glued over a finite ball cover with a smooth partition of unity, and
mollified into smooth approximants with the same constant.

The envelope kernel (``ExtensionField._min_over_pairs``) serves every alpha.
It computes pair j's value as (x@p_j + offs_j) + c*max(|x|^2 + |y_j|^2 -
2x@y_j, 0)^((1+alpha)/2), offs_j = u(y_j) - <p_j, y_j>; for alpha = 1 as
x@q_j + b_j, q_j = p_j - 2c*y_j, b_j = offs_j + c|y_j|^2, with the shared
c|x|^2 added after the minimum.  Queries are grouped by grid cell and each
group is scanned against its cell's candidate pairs only.

* Bound: over a box with centre m and half-widths h, pair j lies between
  offs_j + <p_j, m> -/+ <|p_j|, h> + c*(nearest/farthest distance from y_j
  to the box)^(1+alpha).  Candidates: lower_j <= min_i upper_i + slack.
* Levels: coarse cells (radius/4) filter all pairs, fine cells (radius/12,
  three per coarse edge) their parent's candidates, which hold a minimizer
  for every point of the child; both are cached on the field on first use.
* Exactness: if every computed value in the cell is within e of the exact
  one and j* attains the computed minimum at x, then for every pair i
  lower_j* <= v_j*(x) <= v_i(x) + 2e <= upper_i + 2e.  So a slack of 2e keeps
  j*, and the minimum over the candidates is bit for bit the full one.  The
  slack is derived per cell: |x|^2 + |y|^2 - 2<x, y> cancels with error up to
  (d+4)eps(|x|+|y|)^2, which the power lifts to c((d+4)eps(|x|+|y|)^2)^((1+
  alpha)/2): ~1e-11c at alpha = 0.5, ~1e-7c as alpha -> 0.
* BLAS shape: OpenBLAS gemm rounds a 2-term dot product as fma(x1, p1, x0*p0),
  gemv (one row or column) as fma(x0, p0, x1*p1), and large gemm products
  round their last m mod 8 columns apart when m mod 8 >= 4.  A lone query row
  is doubled (``_gemm``) and candidate lists are padded to a multiple of 8,
  so every value gets the gemm rounding whatever the batch.
* Pruning: ``build_extension`` drops pair j if u(z) - v_j(z) > tol at some
  node z, v_j computed by the kernel's expression (``_pair_values``).  The
  kernel runs once at the distinct nodes; a violating pair has env(z) <=
  v_j(z) < u(z) - tol, so only nodes with u(z) - env(z) > tol can hold a
  violation, and a dense scan of those nodes against all pairs (padded to
  whole gemm blocks) gives every prunable pair's worst violation exactly.
  At alpha = 1 the scan adds c|z|^2 to each value; rounding is monotone, so
  min_j fl(A_j + s) = fl(min_j A_j + s) and the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    InputError,
    PartitionError,
    StencilError,
)
from .funcspace import evaluate_many
from .geometry import BallRegion, DomainSpec, boundary_sample, closure_grid, disk
from .gradients import _gradient_samples, reachable_gradients
from .semiconcavity import ModulusParams

DEFAULT_SPACING_SCALE = 0.01  # support spacing as a fraction of the ball radius
DEFAULT_M_Q = 21  # quadrature points per axis for the mollifier
_PRUNE_TOL = 5e-13
_FINE_PER_RADIUS = 12  # fine envelope cells per ball radius
_NEST = 3  # fine cells per coarse cell edge, so coarse cells are radius/4
_LANES = 8  # candidate lists are padded to whole gemm column blocks
_BLOCK = 1 << 20  # matrix entries per kernel block
_EPS = float(np.finfo(float).eps)


def constant_bound(params: ModulusParams, coefficient: float | None = None) -> float:
    """Semiconcavity constant of the envelope: coeff*(1+alpha)*(1+2^(2-alpha))."""
    coeff = params.C + 1.0 if coefficient is None else float(coefficient)
    return coeff * (1.0 + params.alpha) * (1.0 + 2.0 ** (2.0 - params.alpha))


def holder_ratio(y, x, z, params: ModulusParams, coefficient: float) -> float:
    """|Dv_y(x) - Dv_y(z)| / |x-z|^alpha for the kernel v_y = coeff*|w-y|^(1+a).

    Dv_y(w) = coeff*(1+a)*|w-y|^(a-1)*(w-y), with Dv_y(y) = 0.  The ratio is
    bounded by coeff*(1+a)*(1+2^(2-a)) for every admissible triple.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    gap = float(np.linalg.norm(x - z))
    if gap == 0.0:
        raise InputError("holder_ratio requires x != z")
    a = params.alpha
    return float(np.linalg.norm(_kernel_grad(x, y, a) - _kernel_grad(z, y, a))
                 * coefficient / gap**a)


def _kernel_grad(w: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """(1+alpha)|w-y|^(alpha-1)(w-y) with the removable singularity at w=y."""
    r = w - y
    n = float(np.linalg.norm(r))
    if n == 0.0:
        return np.zeros_like(r)
    if alpha == 1.0:
        return 2.0 * r
    return (1.0 + alpha) * n ** (alpha - 1.0) * r


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, with a lone row doubled so the product never runs as gemv."""
    if a.shape[0] == 1:
        return (np.vstack([a, a]) @ b.T)[:1]
    return a @ b.T


# -- support sets ------------------------------------------------------------


@dataclass(eq=False)
class SupportSet:
    """Pairs (y, p) anchoring the envelope, with u(y) cached per pair."""

    points: np.ndarray  # (K, d)
    gradients: np.ndarray  # (K, d)
    values: np.ndarray  # (K,)
    sources: list  # per pair: "smooth" | "reachable"
    ball: BallRegion
    spacing: float

    def __post_init__(self):
        if self.points.shape[0] == 0:
            raise InputError("support set must be nonempty")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def node_points(self) -> np.ndarray:
        """Distinct anchor points (pairs at one y share the node)."""
        return self.points[_node_index(self.points)[0]]

    def to_dict(self, limit: int | None = None) -> dict:
        k = self.size if limit is None else min(limit, self.size)
        return {
            "n_pairs": self.size,
            "ball": {"center": self.ball.center.tolist(), "radius": self.ball.radius},
            "spacing": self.spacing,
            "pairs": [
                {
                    "y": self.points[i].tolist(),
                    "p": self.gradients[i].tolist(),
                    "u": float(self.values[i]),
                    "source": self.sources[i],
                }
                for i in range(k)
            ],
        }


def _node_index(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct node, in order of appearance, and the node
    of every point; nodes are told apart at the 1e-9 scale."""
    keys = np.round(points / 1e-9).astype(np.int64)
    _, first, node = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    return first[rank], np.argsort(rank)[node.reshape(-1)]


def build_support_set(
    func,
    domain: DomainSpec,
    ball: BallRegion,
    spacing: float | None = None,
    r0: float | None = None,
    ratio: float = 0.5,
    k_max: int = 6,
    m_a: int = 64,
    eps_c: float = 0.01,
    h_fd: float | None = None,
) -> SupportSet:
    """Anchor pairs on the lattice of A-bar plus parametric boundary points.

    Interior lattice points that look differentiable contribute one pair
    (y, Du(y)); every other anchor (boundary points and singular interior
    points) contributes one pair per reachable-gradient representative, so
    every node of A-bar is present.
    """
    if spacing is None:
        spacing = DEFAULT_SPACING_SCALE * ball.radius
    nodes = closure_grid(domain, ball, spacing)
    if nodes.shape[0] == 0:
        raise InputError("closure(domain) does not meet the ball")
    bnd = boundary_sample(domain, ball, spacing)
    if bnd.shape[0]:
        nodes = np.vstack([nodes, bnd])
    anchors = nodes[_node_index(nodes)[0]]
    interior = domain.contains_many(anchors, "open")
    if r0 is None:
        r0 = max(spacing, 1e-3 * ball.radius)
    if h_fd is None:
        h_fd = 1e-5 * spacing

    inner = anchors[interior]
    mask, grads = _gradient_samples(func, inner, domain, h_fd, eps_c)
    smooth = inner[mask]
    multi = np.vstack([anchors[~interior], inner[~mask]])

    pts, gvecs, srcs = [smooth], [grads], ["smooth"] * smooth.shape[0]
    for y in multi:
        rset = reachable_gradients(
            func, domain, y, r0=r0, ratio=ratio, k_max=k_max,
            m_a=m_a, eps_c=eps_c, h_fd=h_fd,
        )
        reps = rset.representatives
        pts.append(np.broadcast_to(y, reps.shape).copy())
        gvecs.append(reps)
        srcs.extend(["reachable"] * reps.shape[0])
    points = np.vstack(pts)
    gradients_arr = np.vstack(gvecs)
    values = evaluate_many(func, points)
    return SupportSet(points, gradients_arr, values, srcs, ball, float(spacing))


# -- the envelope ------------------------------------------------------------


@dataclass(eq=False)
class ExtensionField:
    """Lower envelope over support pairs; equals u on A-bar by construction."""

    support: SupportSet
    params: ModulusParams
    coefficient: float
    func: object
    domain: DomainSpec
    constant: float = None  # envelope semiconcavity constant
    identifier: str = ""
    n_pruned: int = 0

    def __post_init__(self):
        if not self.coefficient > self.params.C:
            raise InputError(
                f"coefficient {self.coefficient} must exceed the constant {self.params.C}"
            )
        if self.constant is None:
            self.constant = constant_bound(self.params, self.coefficient)
        if not self.identifier:
            base = getattr(self.func, "identifier", type(self.func).__name__)
            self.identifier = f"extension({base})"
        # cached affine parts: value_j(x) = offs_j + <p_j, x> + coeff*|x-y_j|^(1+a)
        self._offs = self.support.values - np.einsum(
            "ij,ij->i", self.support.gradients, self.support.points
        )
        self._y_sq = np.einsum("ij,ij->i", self.support.points, self.support.points)
        if self.params.alpha == 1.0:
            # quadratic kernel: value_j(x) = coeff*|x|^2 + <q_j, x> + b_j, so the
            # minimum reduces to one matrix product over the pairs
            self._lin_q = (
                self.support.gradients - 2.0 * self.coefficient * self.support.points
            )
            self._lin_b = self._offs + self.coefficient * self._y_sq
        # candidate index, built on first use: cell key -> pair indices
        self._cell = self.ball.radius / _FINE_PER_RADIUS
        self._coarse: dict[tuple, np.ndarray] = {}
        self._fine: dict[tuple, np.ndarray] = {}

    @property
    def ball(self) -> BallRegion:
        return self.support.ball

    @property
    def evaluation_domain(self) -> DomainSpec:
        return disk(self.ball.center, self.ball.radius)

    def in_data_region(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.domain.contains_many(pts, "closure") & self.ball.contains_many(pts)

    def envelope_values(self, points) -> np.ndarray:
        """Raw minimum over pairs, no identity shortcut (diagnostics)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._min_over_pairs(pts)

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside_ball = self.ball.contains_many(pts)
        if not np.all(inside_ball):
            raise InputError(
                f"{int((~inside_ball).sum())} query point(s) outside the source ball"
            )
        out = np.empty(pts.shape[0])
        on_data = self.in_data_region(pts)
        if np.any(on_data):
            # the envelope reproduces u there; return u itself so the
            # identity is exact rather than spacing-limited
            out[on_data] = evaluate_many(self.func, pts[on_data])
        if np.any(~on_data):
            out[~on_data] = self._min_over_pairs(pts[~on_data])
        return out

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluate_many(x[None, :])[0])

    def _min_over_pairs(self, pts: np.ndarray) -> np.ndarray:
        """The envelope kernel (module docstring): queries are grouped by fine
        cell and each group is scanned against its cell's candidate pairs."""
        c, a = self.coefficient, self.params.alpha
        x_sq = np.einsum("ij,ij->i", pts, pts)
        out = np.empty(pts.shape[0])
        keys = np.floor(pts / self._cell).astype(np.int64)
        order = np.lexsort(keys.T[::-1])
        starts = np.flatnonzero(np.any(np.diff(keys[order], axis=0) != 0, axis=1)) + 1
        for group in np.split(order, starts) if pts.shape[0] else []:
            cand = self._candidates(tuple(keys[group[0]]))
            for idx in np.array_split(group, -(-group.size * cand.size // _BLOCK)):
                out[idx] = self._pair_values(pts[idx], x_sq[idx], cand).min(axis=1)
        return out + c * x_sq if a == 1.0 else out

    def _pair_values(self, x: np.ndarray, x_sq: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Values of pairs ``cand`` at the rows of ``x`` (module docstring),
        without the shared c|x|^2 at alpha = 1."""
        c, a = self.coefficient, self.params.alpha
        if a == 1.0:
            return _gemm(x, self._lin_q[cand]) + self._lin_b[cand]
        xy2 = _gemm(2.0 * x, self.support.points[cand])
        d_sq = np.clip(x_sq[:, None] + self._y_sq[cand] - xy2, 0.0, None)
        vals = _gemm(x, self.support.gradients[cand]) + self._offs[cand]
        vals += c * d_sq ** (0.5 * (1.0 + a))
        return vals

    def _candidates(self, key: tuple) -> np.ndarray:
        """Cached candidate pairs of a fine cell, filtered from its coarse parent's."""
        if key not in self._fine:
            parent = tuple(k // _NEST for k in key)
            if parent not in self._coarse:
                every = np.arange(self.support.size)
                self._coarse[parent] = self._prune_cell(every, parent, _NEST * self._cell)
            cand = self._prune_cell(self._coarse[parent], key, self._cell)
            # pad to whole gemm column blocks by repeating the last pair
            self._fine[key] = np.r_[cand, np.full(-cand.size % _LANES, cand[-1])]
        return self._fine[key]

    def _prune_cell(self, cand: np.ndarray, key: tuple, size: float) -> np.ndarray:
        """Pairs of ``cand`` whose lower bound over the cell is within the slack
        of the smallest upper bound (module docstring)."""
        c, e = self.coefficient, 1.0 + self.params.alpha
        m = (np.asarray(key) + 0.5) * size
        # widened by the rounding of x/size: the box holds every point keyed to it
        h = 0.5 * size + 4.0 * _EPS * (np.abs(m) + size)
        y, p, o = self.support.points[cand], self.support.gradients[cand], self._offs[cand]
        gap, base, spread = np.abs(y - m), o + p @ m, np.abs(p) @ h
        lower = base - spread + c * np.linalg.norm(np.maximum(gap - h, 0.0), axis=1) ** e
        upper = base + spread + c * np.linalg.norm(gap + h, axis=1) ** e
        # error bound of any pair's computed value in the cell
        rx, ry = np.linalg.norm(np.abs(m) + h), np.linalg.norm(y, axis=1).max()
        s, tol = rx + ry, (m.size + 4) * _EPS
        err = tol * (rx * (np.linalg.norm(p, axis=1).max() + 2.0 * c * ry) + np.abs(o).max())
        err += tol * c * (s * s + s**e) + c * (tol * s * s) ** (0.5 * e)
        return cand[lower <= upper.min() + 4.0 * err]

    def to_dict(self, limit: int | None = None) -> dict:
        return {
            "identifier": self.identifier,
            "alpha": self.params.alpha,
            "C": self.params.C,
            "coefficient": self.coefficient,
            "constant_bound": self.constant,
            "n_pruned": self.n_pruned,
            "support": self.support.to_dict(limit=limit),
        }


def build_extension(
    func,
    domain: DomainSpec,
    support: SupportSet,
    params: ModulusParams,
    coefficient: float | None = None,
) -> ExtensionField:
    """Envelope over the pairs of ``support`` that never undercut u at a node.

    Exact reachable gradients never violate the one-sided inequality
    u(z) <= u(y) + <p, z-y> + coeff*|z-y|^(1+a); sampled representatives can,
    by just enough to dent the envelope below u near their anchor.  Violating
    pairs are sampling artifacts and are pruned (module docstring); an anchor
    that would lose all its pairs keeps its least-violating one.
    """
    if coefficient is None:
        coefficient = params.C + 1.0
    field = ExtensionField(support, params, float(coefficient), func, domain)
    tol = _PRUNE_TOL * max(1.0, float(np.max(np.abs(support.values))))
    first, node = _node_index(support.points)
    z, u_z = support.points[first], support.values[first]
    flagged = u_z - field._min_over_pairs(z) > tol
    if not flagged.any():
        return field
    z, u_z = z[flagged], u_z[flagged]
    z_sq = np.einsum("ij,ij->i", z, z)
    k = support.size
    pairs = np.r_[np.arange(k), np.full(-k % _LANES, k - 1)]
    worst = np.full(pairs.size, -np.inf)
    for idx in np.array_split(np.arange(z.shape[0]), -(-z.shape[0] * pairs.size // _BLOCK)):
        vals = field._pair_values(z[idx], z_sq[idx], pairs)
        if params.alpha == 1.0:
            vals += field.coefficient * z_sq[idx, None]
        worst = np.maximum(worst, (u_z[idx, None] - vals).max(axis=0))
    worst = worst[:k]
    keep = worst <= tol
    # the least-violating pair of each node leads its group; orphaned nodes keep it
    order = np.lexsort((worst, node))
    lead = order[np.unique(node[order], return_index=True)[1]]
    keep[lead[np.bincount(node[keep], minlength=first.size) == 0]] = True
    n_pruned = int(k - keep.sum())
    if n_pruned == 0:
        return field
    kept = SupportSet(
        support.points[keep],
        support.gradients[keep],
        support.values[keep],
        [s for s, kp in zip(support.sources, keep) if kp],
        support.ball,
        support.spacing,
    )
    return ExtensionField(kept, params, field.coefficient, func, domain, n_pruned=n_pruned)


# -- glued covers ------------------------------------------------------------


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    f = np.zeros_like(t)
    pos = t > 0.0
    f[pos] = np.exp(-1.0 / t[pos])
    g = np.zeros_like(t)
    pos1 = (1.0 - t) > 0.0
    g[pos1] = np.exp(-1.0 / (1.0 - t[pos1]))
    return f / (f + g)


def _ball_bump(center: np.ndarray, radius: float):
    def bump(pts: np.ndarray) -> np.ndarray:
        s2 = np.einsum("ij,ij->i", pts - center, pts - center) / radius**2
        out = np.zeros(pts.shape[0])
        inside = s2 < 1.0
        out[inside] = np.exp(1.0 / (s2[inside] - 1.0))
        return out

    return bump


def partition_weights(
    domain: DomainSpec,
    cover: list[BallRegion],
    width: float | None = None,
) -> list:
    """Normalized bump weights for the cover balls plus one for the domain.

    The domain element ramps from 0 at the boundary to 1 at inner depth
    ``width``, so its weight vanishes outside the open domain (the cover
    balls must carry the boundary zone).
    """
    if not cover:
        raise InputError("cover must contain at least one ball")
    if width is None:
        width = 0.25 * min(b.radius for b in cover)
    bumps = [_ball_bump(b.center, b.radius) for b in cover]

    def domain_bump(pts: np.ndarray) -> np.ndarray:
        return _smooth_step(domain.interior_distance(pts) / width)

    raw = bumps + [domain_bump]

    def make_weight(j):
        def weight(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            total = np.zeros(pts.shape[0])
            mine = None
            for i, b in enumerate(raw):
                v = b(pts)
                total += v
                if i == j:
                    mine = v
            out = np.zeros(pts.shape[0])
            ok = total > 0.0
            out[ok] = mine[ok] / total[ok]
            return out

        return weight

    return [make_weight(j) for j in range(len(raw))]


@dataclass(eq=False)
class GlobalExtension:
    """Weighted sum of local envelopes plus the domain term, on the union."""

    domain: DomainSpec
    cover: list
    fields: list
    weights: list  # len(cover) + 1, last one for the domain element
    func: object
    identifier: str = ""

    def __post_init__(self):
        if len(self.fields) != len(self.cover):
            raise InputError("one local field per cover ball is required")
        if len(self.weights) != len(self.cover) + 1:
            raise InputError("need one weight per ball plus the domain weight")
        if not self.identifier:
            base = getattr(self.func, "identifier", type(self.func).__name__)
            self.identifier = f"glued-extension({base})"

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.column_stack([wf(pts) for wf in self.weights])
        total = w.sum(axis=1)
        if np.any(np.abs(total - 1.0) > 1e-9):
            raise EvaluationError(
                "query point outside the covered set (weights do not sum to 1)"
            )
        out = np.zeros(pts.shape[0])
        for j, fld in enumerate(self.fields):
            mask = w[:, j] > 0.0
            if np.any(mask):
                out[mask] += w[mask, j] * fld.evaluate_many(pts[mask])
        mask = w[:, -1] > 0.0
        if np.any(mask):
            out[mask] += w[mask, -1] * evaluate_many(self.func, pts[mask])
        return out

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluate_many(x[None, :])[0])


def glue_global(
    domain: DomainSpec,
    cover: list[BallRegion],
    fields: list[ExtensionField],
    weights: list,
    func=None,
    probe_spacing: float | None = None,
) -> GlobalExtension:
    """Glue local envelopes; the partition is checked on a probe grid first."""
    if func is None:
        func = fields[0].func
    glued = GlobalExtension(domain, list(cover), list(fields), list(weights), func)
    probes = _partition_probes(domain, cover, probe_spacing)
    w = np.column_stack([wf(probes) for wf in glued.weights])
    err = np.abs(w.sum(axis=1) - 1.0)
    if float(err.max()) > 1e-9:
        raise PartitionError(
            f"partition weights sum off by {float(err.max()):g} on the probe grid"
        )
    if float(w.min()) < 0.0 or float(w.max()) > 1.0 + 1e-12:
        raise PartitionError("partition weights leave [0, 1]")
    return glued


def _partition_probes(domain, cover, spacing: float | None) -> np.ndarray:
    """Lattice over the open cover region with a 3% inset per element.

    The inset keeps every probe where at least one generating bump is
    representable (the bumps underflow to zero within ~0.1% of an element's
    edge), so a zero weight sum on a probe flags a genuine cover gap.
    """
    if spacing is None:
        spacing = min(b.radius for b in cover) / 8.0
    min_radius = min(b.radius for b in cover)
    chunks = []
    for b in cover:
        k = int(math.floor(b.radius / spacing + 1e-9))
        ticks = np.arange(-k, k + 1) * spacing
        axes = [b.center[j] + ticks for j in range(b.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        d = np.linalg.norm(pts - b.center, axis=1)
        chunks.append(pts[d <= 0.97 * b.radius])
    centers = np.array([b.center for b in cover])
    centroid = centers.mean(axis=0)
    reach = max(
        float(np.linalg.norm(b.center - centroid)) + b.radius for b in cover
    )
    hub = BallRegion(centroid, 1.5 * reach)
    interior = closure_grid(domain, hub, spacing)
    depth = domain.interior_distance(interior)
    chunks.append(interior[depth >= 0.005 * min_radius])
    return np.vstack(chunks)


# -- mollification -----------------------------------------------------------


def _mollifier_grid(dimension: int, m_q: int):
    """Tensor grid on [-1,1]^d with the even bump exp(1/(|y|^2-1)) weights,
    renormalized so they sum to exactly 1 (the correction lands on the center
    node to keep evenness bit-exact)."""
    if m_q < 3 or m_q % 2 == 0:
        raise InputError("m_q must be an odd integer >= 3")
    half = (m_q - 1) // 2
    # i/half negates exactly, so the node set is even bit for bit
    ticks = np.arange(-half, half + 1) / half
    mesh = np.meshgrid(*([ticks] * dimension), indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    s2 = np.einsum("ij,ij->i", nodes, nodes)
    # nodes outside the open unit ball carry weight zero; dropping them keeps
    # every evaluation stencil inside x + B_{1/h}
    inside = s2 < 1.0
    nodes, s2 = nodes[inside], s2[inside]
    w = np.exp(1.0 / (s2 - 1.0))
    w /= w.sum()
    center = int(np.flatnonzero((nodes == 0.0).all(axis=1))[0])
    w[center] += 1.0 - w.sum()
    return nodes, w


@dataclass(eq=False)
class MollifiedApproximant:
    """u_h(x) = sum_i w_i E(x + y_i/h): smoothing at scale 1/h."""

    field: object
    h: int
    m_q: int = DEFAULT_M_Q
    identifier: str = ""

    def __post_init__(self):
        ball = self.field.ball
        if int(self.h) != self.h or self.h <= 0:
            raise InputError("h must be a positive integer")
        self.h = int(self.h)
        if self.h <= 2.0 / ball.radius:
            raise InputError(
                f"h must exceed 2/delta = {2.0 / ball.radius:g} so the quadrature "
                f"stencil stays inside the source ball"
            )
        self.nodes, self.weights = _mollifier_grid(ball.dimension, self.m_q)
        if not self.identifier:
            base = getattr(self.field, "identifier", type(self.field).__name__)
            self.identifier = f"mollified({base}, h={self.h})"

    @property
    def ball(self) -> BallRegion:
        b = self.field.ball
        return BallRegion(b.center, 0.5 * b.radius)

    @property
    def evaluation_domain(self) -> DomainSpec:
        b = self.ball
        return disk(b.center, b.radius)

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        b = self.field.ball
        dist = np.linalg.norm(pts - b.center, axis=1)
        if np.any(dist > 0.5 * b.radius * (1.0 + 1e-12) + 1e-12):
            raise InputError("mollified field is defined on the half-radius ball only")
        out = np.empty(pts.shape[0])
        L = self.nodes.shape[0]
        # keep roughly 8k stencil rows per inner evaluation
        step = max(1, 8192 // L)
        for lo in range(0, pts.shape[0], step):
            block = pts[lo : lo + step]
            stencil = (block[:, None, :] + self.nodes[None, :, :] / self.h).reshape(-1, block.shape[1])
            vals = self.field.evaluate_many(stencil).reshape(block.shape[0], L)
            out[lo : lo + step] = vals @ self.weights
        return out

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluate_many(x[None, :])[0])


# -- diagnostics -------------------------------------------------------------


def summand_differentiability_probe(fields: list, x, h_fd: float, eps_c: float) -> bool:
    """If the sum of the fields passes the one-sided-quotient filter at x,
    check that every summand passes too (false flags a numerical violation
    of the expected behavior, not a usage error).  Vacuously true when the
    sum itself fails the filter."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not h_fd > 0.0:
        raise StencilError("h_fd must be positive")
    d = x.size
    eye = h_fd * np.eye(d)
    stencil = np.vstack([x[None, :], x[None, :] + eye, x[None, :] - eye])

    def wobble(f) -> float:
        vals = evaluate_many(f, stencil)
        fwd = (vals[1 : d + 1] - vals[0]) / h_fd
        bwd = (vals[0] - vals[d + 1 :]) / h_fd
        return float(np.abs(fwd - bwd).max())

    total = np.zeros(stencil.shape[0])
    for f in fields:
        total += evaluate_many(f, stencil)
    fwd = (total[1 : d + 1] - total[0]) / h_fd
    bwd = (total[0] - total[d + 1 :]) / h_fd
    if float(np.abs(fwd - bwd).max()) > eps_c:
        return True
    return all(wobble(f) <= eps_c for f in fields)
