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

* Bound: each cell, a box with centre m and half-widths h, has a reference
  pair b, the first pair of the smallest computed value at m.  Write pair
  j's linear part as <s_j, x> + t_j: s = q, t = b at alpha = 1, whose
  values differ from the pairs' by the shared c|x|^2, and s = p, t = offs
  at alpha < 1.  Over the box
      v_j - v_b >= lin_j(m) - lin_b(m) - sum_i |s_ji - s_bi| h_i
                   [+ c*(near_j^(1+alpha) - far_b^(1+alpha)) at alpha < 1],
  near_j and far_b the nearest and farthest distances from y_j and y_b to
  the box, and at alpha = 1 the bound is the exact minimum of the affine
  v_j - v_b.  Computed coordinate by coordinate on (cells x candidates)
  arrays.  Candidates: the pairs whose bound is at most the slack.
* Levels: coarse cells (radius/4) filter all pairs, whose columns the bound
  pass reads in place, and fine cells (radius/12) their coarse parent's
  candidates; a cell's parent is its key // 3, and both levels are cached.
  Every query is keyed at the finer edge (radius/36), so its coarse and fine
  cells are nested boxes that hold it.  A call scans each fine cell's rows
  once: against the cell's cached refined list when it exists or the rows
  outnumber what building it costs (``_pays_to_refine``), and against the
  fine cell's candidates otherwise.  The refined list is the union of what
  one bound pass over the fine cell's candidates keeps for each of its 3^d
  finer children (radius/36).  A row's finer cell list is part of it, and a
  minimum over any list between a cell's candidates and all pairs is the
  full one (Exactness).
* Exactness: if every computed value in the cell is within e of the exact
  one and j* attains the computed minimum at x, then v_j*(x) <= v_b(x) + 2e,
  so the bound of j*, a lower bound of v_j* - v_b at x, is at most 2e.  A
  slack of 2e plus the bound's own rounding keeps j*, and the minimum over
  the candidates is bit for bit the full one.  The argument needs only that
  x lies in the cell's box and that the parent's candidates hold j* for
  every point of the parent's box, which holds by induction from the coarse
  level (whose parent is all pairs); b is one of the parent's candidates,
  and any such b would do.  So every level is exact, and so is any
  partition of the queries: which level scans a query and which queries
  share its batch change no value (BLAS shape).  The slack is 4 err, err
  bounding per cell both a computed value's error and each rounded term of
  the bound (the centre values, the differences, the |s_j - s_b|.h sum and
  at alpha < 1 near and far).  With tol = (d+4)eps, R = max |x| over the
  box and maxima over all pairs, err = tol(R max|s| + max|t| + max|s|
  sum_i h_i); at alpha < 1 |x|^2 + |y|^2 - 2<x, y> also cancels with error
  up to tol(|x|+|y|)^2, which the power lifts to c(tol(|x|+|y|)^2)^(
  (1+alpha)/2): ~1e-11c at alpha = 0.5, ~1e-7c as alpha -> 0.
* BLAS shape: OpenBLAS gemm rounds a 2-term dot product as fma(x1, p1, x0*p0),
  gemv (one row or column) as fma(x0, p0, x1*p1), and large gemm products
  round their last m mod 8 columns apart when m mod 8 >= 4.  Each scan takes
  its minimum along the longer axis of its block (``_scan``).  A span of
  rows at least as long as its candidate list is computed pairs-major, as
  (candidates x rows) with the rows padded to a multiple of 8 by repeating
  the last; a shorter one rows-major, as (rows x candidates) with the lists
  padded to a multiple of 8 and a lone row doubled (``_gemm``).  A padded
  q @ x.T equals x @ q.T bit for bit, so every value gets the same gemm
  rounding whatever the batch and the orientation.
* Pruning: ``build_extension`` drops pair j if u(z) - v_j(z) > tol at some
  node z, v_j computed by the kernel's expression (``_pair_values``).  The
  kernel runs once at the distinct nodes; a violating pair has env(z) <=
  v_j(z) < u(z) - tol, so only nodes with u(z) - env(z) > tol can hold a
  violation, and a dense scan of those nodes against all pairs (padded to
  whole gemm blocks) gives every prunable pair's worst violation exactly.
  At alpha = 1 the scan adds c|z|^2 to each value; rounding is monotone, so
  min_j fl(A_j + s) = fl(min_j A_j + s) and the two agree bit for bit.
  The kept field is a new field over the kept pairs and builds its cells on
  use, like any other.
* Stencils: the mollifier sends the field a batch of stencils, the rows x +
  o for each centre x and each offset o, |o| <= rho (``stencil_values``).
  The domain's max_i g_i is 1-Lipschitz, and so is the distance to the ball
  centre (``geometry`` module docstring), so each row's value of either is
  within rho of the centre's.  With a margin that bounds the rounding of
  the rows and of both tests, a centre whose ball distance plus rho fits the
  ball test and whose max_i g_i plus rho fits the closure test has every row
  on the data region, and one whose max_i g_i minus rho fails the closure
  test (ball test as before) has every row off it.  Only the stencils left
  over are tested row by row, so each row goes where ``evaluate_many``
  sends it, and the batch makes at most one u call over its rows on the
  data region and at most one kernel call over the rest.  Those rows skip
  u's own closure test where u is declared on the field's domain (``_split``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EvaluationError,
    InputError,
    PartitionError,
)
from .funcspace import FunctionSpec, _FunctionLike, _gemm
from .geometry import (
    _SLICE,
    BOUNDARY_TOL,
    BallRegion,
    DomainSpec,
    _ball_lattice,
    _by_columns,
    _column_norms,
    boundary_sample,
    closure_grid,
)
from .gradients import _gradient_samples, _reachable_sets
from .semiconcavity import ModulusParams

DEFAULT_SPACING_SCALE = 0.01  # support spacing as a fraction of the ball radius
_M_Q = 21  # quadrature points per axis for the mollifier (odd: the grid holds 0)
_PRUNE_TOL = 5e-13
_FINE_PER_RADIUS = 12  # fine envelope cells per ball radius
_NEST = 3  # child cells per parent edge: coarse radius/4, finer radius/36
_LANES = 8  # candidate lists are padded to whole gemm column blocks
_BLOCK = 1 << 18  # matrix entries per kernel or prune-scan block: 2 MiB of doubles
_BATCH = 1 << 15  # stencil rows per mollifier call to the field, at most
_EPS = float(np.finfo(float).eps)
_MARGIN = 1e-9  # stencil domain-test margin, per unit of the field's scale


def constant_bound(params: ModulusParams, coefficient: float | None = None) -> float:
    """Semiconcavity constant of the envelope: coeff*(1+alpha)*(1+2^(2-alpha))."""
    coeff = params.C + 1.0 if coefficient is None else float(coefficient)
    return coeff * (1.0 + params.alpha) * (1.0 + 2.0 ** (2.0 - params.alpha))


def _cell_runs(pts: np.ndarray, size: float):
    """Sort the rows of ``pts`` by fine cell.  Returns the order, the fine
    cells' keys and the bounds of their spans of sorted rows (starts, then
    the row count).  A fine key is the finer key (edge ``size``) // _NEST, so
    the cells nest.  Keys are coded column by column."""
    fine = np.floor(pts / size).astype(np.int64) // _NEST
    code = np.zeros(pts.shape[0], dtype=np.int64)
    for col in fine.T:
        low = col.min()
        code *= int(col.max() - low) + 1
        code += col - low
    order = np.argsort(code)
    code = code[order]
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    return order, list(map(tuple, fine[order[starts]].tolist())), np.r_[starts, code.size]


def _pays_to_refine(rows: int, d: int, alpha: float) -> bool:
    """Whether a call's rows in one fine cell pay for building its refined
    list, which is far shorter than the cell's list.  With K candidates in the
    cell, scanning the rows costs rows * K * S and the bound pass over its 3^d
    finer children 3^d * K * B; K cancels.
    ``_pair_values`` and the minimum make 3 elementwise passes per (row,
    candidate) entry at alpha = 1 and 10 at alpha < 1; ``_prune_cells``
    makes 6 per coordinate and 4 more per (cell, candidate) entry at alpha =
    1, 14 and 10 at alpha < 1.  Its passes cost more each: they run over a
    few thousand entries, so per-call costs weigh, and so does extracting
    the lists.  S and B are therefore times per entry, measured at d = 2 on
    fine cells of example1's support (K ~ 400, 9 children, 70 rows; one
    thread): 2.3 and 35 ns at alpha = 1, 11.3 and 65 ns at alpha = 0.5; B
    scales with its passes in d.  (S was measured on rows-major scans of
    each child; on the benchmark workloads' kernel calls, scans of the
    refined list with rows halved or doubled here timed within noise of
    these.)"""
    if alpha == 1.0:
        scan, bound = 2.3, 35.0 * (6 * d + 4) / 16
    else:
        scan, bound = 11.3, 65.0 * (14 * d + 10) / 38
    return rows * scan > _NEST**d * bound


def _reject_outside(inside: np.ndarray) -> None:
    """Refuse a query batch unless every row lies in the field's ball."""
    if not np.all(inside):
        raise InputError(f"{int((~inside).sum())} query point(s) outside the source ball")


def _pad(cand: np.ndarray) -> np.ndarray:
    """Pad an index list to whole gemm column blocks by repeating its last entry."""
    return np.concatenate([cand, np.full(-cand.size % _LANES, cand[-1], dtype=cand.dtype)])


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

    def header(self) -> dict:
        """The support's JSON record with an empty ``pairs`` list, for
        writers that stream the pairs in its place (``write_pairs_json``)."""
        return {
            "n_pairs": self.size,
            "ball": {"center": self.ball.center.tolist(), "radius": self.ball.radius},
            "spacing": self.spacing,
            "pairs": [],
        }


def _node_index(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct node, in order of appearance, and the node
    of every point; nodes are told apart at the 1e-9 scale."""
    keys = np.round(points / 1e-9).astype(np.int64)
    order = np.lexsort(keys.T[::-1])  # stable: each run of equal keys starts at its first point
    keys = keys[order]
    new = np.r_[True, _by_columns(np.logical_or, keys[1:] != keys[:-1])][: order.size]
    first = order[new]
    rank = np.argsort(first)
    node = np.empty_like(order)
    node[order] = np.argsort(rank)[np.cumsum(new) - 1]
    return first[rank], node


def build_support_set(
    func,
    domain: DomainSpec,
    ball: BallRegion,
    spacing: float | None = None,
    k_max: int = 6,
    m_a: int = 64,
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
    r0 = max(spacing, 1e-3 * ball.radius)
    h_fd, eps_c = 1e-5 * spacing, 0.01

    inner = anchors[interior]
    mask, grads = _gradient_samples(func, inner, domain, h_fd, eps_c)
    smooth = inner[mask]
    multi = np.vstack([anchors[~interior], inner[~mask]])

    reps, _ = _reachable_sets(func, domain, multi, r0, k_max, m_a, eps_c, h_fd)
    n_reps = [r.shape[0] for r in reps]
    points = np.vstack([smooth, np.repeat(multi, n_reps, axis=0)])
    gradients_arr = np.vstack([grads, *reps])
    srcs = ["smooth"] * smooth.shape[0] + ["reachable"] * sum(n_reps)
    values = func.evaluate_many(points)
    return SupportSet(points, gradients_arr, values, srcs, ball, float(spacing))


# -- the envelope ------------------------------------------------------------


@dataclass(eq=False)
class ExtensionField(_FunctionLike):
    """Lower envelope over support pairs; equals u on A-bar by construction."""

    support: SupportSet
    params: ModulusParams
    coefficient: float
    func: object
    domain: DomainSpec
    n_pruned: int = 0

    def __post_init__(self):
        if not self.coefficient > self.params.C:
            raise InputError(
                f"coefficient {self.coefficient} must exceed the constant {self.params.C}"
            )
        sup = self.support
        finite = np.isfinite(np.column_stack([sup.points, sup.gradients, sup.values]))
        if not finite.all():
            j = int(np.argmin(finite.all(axis=1)))
            raise InputError(f"support pair {j} has a non-finite point, value or gradient")
        self.constant = constant_bound(self.params, self.coefficient)
        base = getattr(self.func, "identifier", type(self.func).__name__)
        self.identifier = f"extension({base})"
        # cached affine parts: value_j(x) = offs_j + <p_j, x> + coeff*|x-y_j|^(1+a)
        self._offs = self.support.values - np.einsum(
            "ij,ij->i", self.support.gradients, self.support.points
        )
        self._y_sq = np.einsum("ij,ij->i", self.support.points, self.support.points)
        self._y2 = 2.0 * self.support.points  # <x, 2y> has the bits of <2x, y>
        if self.params.alpha == 1.0:
            # quadratic kernel: value_j(x) = coeff*|x|^2 + <q_j, x> + b_j, so the
            # minimum reduces to one matrix product over the pairs
            self._lin_q = (
                self.support.gradients - 2.0 * self.coefficient * self.support.points
            )
            self._lin_b = self._offs + self.coefficient * self._y_sq
        # per-pair rows of the bound pass (``_prune_cells``), gathered at once:
        # the linear part's slope s and intercept t (q and b at alpha = 1, p
        # and offs otherwise), and at alpha < 1 y; with the maxima of |s|,
        # |t| and |y| over all pairs, which its slack reads
        slope, icpt = (
            (self._lin_q, self._lin_b) if self.params.alpha == 1.0
            else (self.support.gradients, self._offs)
        )
        rows = [slope.T, icpt] + ([] if self.params.alpha == 1.0 else [self.support.points.T])
        self._bound_cols = np.vstack(rows)
        self._bound_max = (
            float(np.sqrt(np.einsum("ij,ij->i", slope, slope).max())),
            float(np.abs(icpt).max()),
            float(np.sqrt(self._y_sq.max())),
        )
        # candidate index, built on first use: per level (coarse, fine), cell
        # key -> candidate pairs
        self._cell = self.ball.radius / _FINE_PER_RADIUS
        self._sizes = (_NEST * self._cell, self._cell, self._cell / _NEST)
        self._index: tuple[dict, dict] = ({}, {})
        # fine cell key -> its refined list, and the offsets of a fine cell's
        # finer children keys from _NEST * its key
        self._unions: dict = {}
        self._node_env = None  # ``node_envelope``, computed on first use
        d = self.support.points.shape[1]
        self._child_offsets = np.indices((_NEST,) * d).reshape(d, -1).T

    @property
    def ball(self) -> BallRegion:
        return self.support.ball

    # no scext run calls this; kept because perfbench/layers.py calls it by name
    def in_data_region(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.domain.contains_many(pts, "closure") & self.ball.contains_many(pts)

    def envelope_values(self, points) -> np.ndarray:
        """Raw minimum over pairs, no identity shortcut (diagnostics)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _reject_outside(self.ball.contains_many(pts))
        return self._min_over_pairs(pts)

    def node_envelope(self) -> np.ndarray:
        """The raw envelope at ``support.node_points()``, computed once."""
        if self._node_env is None:
            self._node_env = self._min_over_pairs(self.support.node_points())
        return self._node_env

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._split(pts, self._on_data(pts))

    def stencil_values(self, centres: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """``evaluate_many`` at the rows centre + offset, one stencil of
        ``offsets`` per centre, as an (n, L) array, bit for bit.  The domain
        is tested once per stencil, and row by row only for the stencils
        that straddle the data region's edge (module docstring, Stencils)."""
        n, (n_off, d) = centres.shape[0], offsets.shape
        rows = (centres[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        # the margin: the tests' rounding scales with the magnitudes of the
        # ball and of the domain's parameters
        dom, ball = self.domain, self.ball
        scale = [ball.center, ball.radius, dom.center, dom.radius, dom.half_widths, dom.offset]
        margin = _MARGIN * max(1.0, *(float(np.abs(v).max()) for v in scale if v is not None))
        reach = float(_column_norms(offsets).max()) + margin
        worst = dom._worst(centres)
        limit = ball.radius * (1.0 + 1e-12) + BOUNDARY_TOL  # ``BallRegion.contains_many``
        in_ball = _column_norms(centres - ball.center) + reach <= limit
        on = in_ball & (worst + reach <= BOUNDARY_TOL)
        mixed = ~on & ~(in_ball & (worst - reach > BOUNDARY_TOL))
        on, mixed = np.repeat(on, n_off), np.repeat(mixed, n_off)
        if mixed.any():
            on[mixed] = self._on_data(rows[mixed])
        return self._split(rows, on).reshape(n, n_off)

    def _on_data(self, pts: np.ndarray) -> np.ndarray:
        """The rows in the data region; refuses rows outside the ball.  The
        tests are elementwise; slices keep their temporaries in cache."""
        inside_ball = np.empty(pts.shape[0], dtype=bool)
        on = np.empty(pts.shape[0], dtype=bool)
        for lo in range(0, pts.shape[0], _SLICE):
            rows = slice(lo, lo + _SLICE)
            inside_ball[rows] = self.ball.contains_many(pts[rows])
            on[rows] = inside_ball[rows] & self.domain.contains_many(pts[rows], "closure")
        _reject_outside(inside_ball)
        return on

    def _split(self, pts: np.ndarray, on: np.ndarray) -> np.ndarray:
        """u on the rows ``on`` (the envelope reproduces u there; u itself
        makes the identity exact rather than spacing-limited), the kernel on
        the others: at most one call each, and no gather where one takes all.
        The rows ``on`` are in closure(domain) (``_on_data``, or the stencil
        test with margin), so u does not test them again where u is declared
        on this very domain, or on none."""
        at_u = (self.func._evaluate_in_closure if isinstance(self.func, FunctionSpec)
                and self.func.domain in (None, self.domain) else self.func.evaluate_many)
        if not on.any():
            return self._min_over_pairs(pts)
        out = np.empty(pts.shape[0])
        if on.all():
            # C order in (BLAS rounds by layout) and a fresh array out, as below
            out[:] = at_u(np.ascontiguousarray(pts))
            return out
        out[on] = at_u(pts[on])
        out[~on] = self._min_over_pairs(pts[~on])
        return out

    def _min_over_pairs(self, pts: np.ndarray) -> np.ndarray:
        """The envelope kernel (module docstring): queries are grouped by fine
        cell and each group is scanned once (``_scan``), against the cell's
        refined list where that pays and against its candidates otherwise."""
        c, a = self.coefficient, self.params.alpha
        out = np.empty(pts.shape[0])
        if not pts.shape[0]:
            return out
        order, keys, bounds = _cell_runs(pts, self._sizes[2])
        lo, n = bounds[:-1], np.diff(bounds)
        lists = [self._scan_list(key, cand, rows)
                 for key, cand, rows in zip(keys, self._candidates(1, keys), n.tolist())]
        # the rows of a pairs-major group (rows >= candidates) are padded to
        # whole gemm column blocks by repeating the last; one gather for all
        padded = n + -n % _LANES * (n >= np.array([cand.size for cand in lists]))
        head = np.cumsum(padded) - padded
        rows = np.arange(padded.sum()) - np.repeat(head, padded)
        x = pts[order[np.repeat(lo, padded) + np.minimum(rows, np.repeat(n - 1, padded))]]
        x_sq = np.einsum("ij,ij->i", x, x)
        mins = np.empty(x.shape[0])
        for start, stop, cand in zip(head.tolist(), (head + padded).tolist(), lists):
            self._scan(x, x_sq, start, stop, cand, mins)
        real = np.arange(pts.shape[0]) + np.repeat(head - lo, n)
        out[order] = mins[real] + c * x_sq[real] if a == 1.0 else mins[real]
        return out

    def _scan_list(self, key: tuple, cand: np.ndarray, rows: int) -> np.ndarray:
        """The list to scan ``rows`` rows of fine cell ``key`` against: its
        cached refined list, built when ``_pays_to_refine``, else the cell's
        candidates ``cand``.  The refined list is what one bound pass over
        ``cand`` keeps for any of the cell's finer children."""
        union = self._unions.get(key)
        if union is None:
            if not _pays_to_refine(rows, len(key), self.params.alpha):
                return cand
            children = np.array(key) * _NEST + self._child_offsets
            kept = self._prune_cells(cand, children, self._sizes[2])
            # the run starts of the sorted ids: 1-D np.unique imports numpy.ma
            ids = np.sort(np.concatenate(kept))
            union = self._unions[key] = _pad(ids[np.r_[True, np.diff(ids) != 0]])
        return union

    def _scan(self, x, x_sq, start, stop, cand, out) -> None:
        """out = the minimum over pairs ``cand`` on the rows start:stop, in
        blocks of about _BLOCK entries, each minimum along the longer axis:
        pairs-major (whole gemm column blocks of rows) when the rows are at
        least as many as the candidates, rows-major otherwise."""
        axis = int(stop - start < cand.size)
        step = max(_LANES, _BLOCK // cand.size // _LANES * _LANES)
        for lo in range(start, stop, step):
            rows = slice(lo, min(lo + step, stop))
            vals = self._pair_values(x[rows], x_sq[rows], cand, axis)
            out[rows] = np.minimum.reduce(vals, axis=axis)

    def _pair_values(self, x, x_sq, cand, axis: int = 0) -> np.ndarray:
        """Values of pairs ``cand`` at the rows of ``x`` (module docstring),
        without the shared c|x|^2 at alpha = 1, with the candidates along
        ``axis``: a (candidates x rows) block for 0, (rows x candidates) for
        1."""
        c, a = self.coefficient, self.params.alpha

        def dot(m):  # <m_j, x> for the pairs' rows m_j
            return _gemm(x, m[cand]) if axis else _gemm(m[cand], x)

        def per_pair(v):
            return v[cand] if axis else v[cand, None]

        if a == 1.0:
            vals = dot(self._lin_q)
            vals += per_pair(self._lin_b)
            return vals
        x_sq = x_sq[:, None] if axis else x_sq
        d_sq = np.clip(per_pair(self._y_sq) + x_sq - dot(self._y2), 0.0, None)
        vals = dot(self.support.gradients) + per_pair(self._offs)
        vals += c * d_sq ** (0.5 * (1.0 + a))
        return vals

    def _candidates(self, level: int, keys: list) -> list:
        """Candidate pairs of the cells ``keys`` at ``level`` (0 coarse, 1
        fine).  A missing cell is filtered from its parent's candidates and
        cached; the missing children of one parent share one bound pass."""
        index = self._index[level]
        siblings: dict[tuple, list] = {}
        for key in keys:
            if key not in index:
                # each coarse cell is its own pass over all pairs
                parent = tuple(k // _NEST for k in key) if level else key
                siblings.setdefault(parent, []).append(key)
        for parent, cells in siblings.items():
            cand = self._candidates(level - 1, [parent])[0] if level else None
            lists = self._prune_cells(cand, np.array(cells), self._sizes[level])
            for key, cell in zip(cells, lists):
                # scanned lists are padded to whole gemm column blocks
                index[key] = _pad(cell) if level else cell
        return [index[k] for k in keys]

    def _prune_cells(self, cand: np.ndarray | None, keys: np.ndarray, size: float):
        """For each cell of ``keys`` (edge ``size``), the pairs j of ``cand``
        (None: all pairs) whose lower bound of v_j - v_b over the cell is
        within the slack, b being the cell's reference pair: the first pair
        of the smallest computed value at the cell centre (module docstring).
        One (cells x candidates) pass, coordinate by coordinate."""
        c, e, d = self.coefficient, 1.0 + self.params.alpha, keys.shape[1]
        cols = self._bound_cols if cand is None else np.take(self._bound_cols, cand, axis=1)
        m = (keys + 0.5) * size
        # widened by the rounding of x/size: the box holds every point keyed to it
        h = 0.5 * size + 4.0 * _EPS * (np.abs(m) + size)
        lin = cols[d] + cols[0] * m[:, :1]
        for i in range(1, d):
            lin += cols[i] * m[:, i : i + 1]
        score = lin
        if e != 2.0:
            gap = np.abs(cols[d + 1] - m[:, :1])
            near, dist = np.maximum(gap - h[:, :1], 0.0) ** 2, gap * gap
            for i in range(1, d):
                gap = np.abs(cols[d + 1 + i] - m[:, i : i + 1])
                near += np.maximum(gap - h[:, i : i + 1], 0.0) ** 2
                dist += gap * gap
            score = lin + c * dist ** (0.5 * e)
        best = score.argmin(axis=1)
        top = lin[np.arange(best.size), best]
        # v_j - v_b >= lin_j - lin_b - sum_i |s_ji - s_bi| h_i (+ c(near_j^e -
        # far_b^e) at alpha < 1), so j is kept iff lower_j <= top + slack
        for i, s_b in enumerate(cols[:d, best]):
            spread = np.abs(cols[i] - s_b[:, None])
            spread *= h[:, i : i + 1]
            lin -= spread
        # error bound of any pair's computed value in each cell, and of each
        # rounded term of the bound
        r_s, r_t, r_y = self._bound_max
        rx = np.sqrt(((np.abs(m) + h) ** 2).sum(axis=1))
        tol = (d + 4) * _EPS
        err = tol * (rx * r_s + r_t + r_s * h.sum(axis=1))
        if e != 2.0:
            far = ((np.abs(cols[d + 1 :, best].T - m) + h) ** 2).sum(axis=1)
            lin += c * near ** (0.5 * e)
            top += c * far ** (0.5 * e)
            s = rx + r_y
            err += tol * c * (s * s + s**e) + c * (tol * s * s) ** (0.5 * e)
        keep = lin <= (top + 4.0 * err)[:, None]
        kept = np.flatnonzero(keep) % keep.shape[1]  # 2-D np.nonzero is 5x slower
        kept = kept.astype(np.int32) if cand is None else cand[kept]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        return [kept[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def header(self) -> dict:
        """The field's JSON record, with the support's ``header()`` as its
        support, for writers that stream the pairs (``write_pairs_json``)."""
        return {
            "identifier": self.identifier,
            "alpha": self.params.alpha,
            "C": self.params.C,
            "coefficient": self.coefficient,
            "constant_bound": self.constant,
            "n_pruned": self.n_pruned,
            "support": self.support.header(),
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
    flagged = u_z - field.node_envelope() > tol
    if not flagged.any():
        return field
    z, u_z = z[flagged], u_z[flagged]
    z_sq = np.einsum("ij,ij->i", z, z)
    k = support.size
    pairs = _pad(np.arange(k))
    worst = np.full(pairs.size, -np.inf)
    # rows-major: the nodes are fewer than the pairs
    for idx in np.array_split(np.arange(z.shape[0]), -(-z.shape[0] * pairs.size // _BLOCK)):
        vals = field._pair_values(z[idx], z_sq[idx], pairs, axis=1)
        if params.alpha == 1.0:
            vals += field.coefficient * z_sq[idx, None]
        np.subtract(u_z[idx, None], vals, out=vals)
        np.maximum(worst, vals.max(axis=0), out=worst)
    worst = worst[:k]
    keep = worst <= tol
    # the least-violating pair of each node leads its group; orphaned nodes keep it
    order = np.lexsort((worst, node))
    lead = order[np.r_[True, np.diff(node[order]) != 0]]
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


def _ball_bump(ball: BallRegion, pts: np.ndarray) -> np.ndarray:
    s2 = np.einsum("ij,ij->i", pts - ball.center, pts - ball.center) / ball.radius**2
    out = np.zeros(pts.shape[0])
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 / (s2[inside] - 1.0))
    return out


def partition_weights(domain: DomainSpec, cover: list[BallRegion]):
    """Normalized bump weights for the cover balls plus one for the domain,
    as a map from (N, d) points to an (N, len(cover) + 1) matrix whose last
    column is the domain element.

    The domain element ramps from 0 at the boundary to 1 at inner depth a
    quarter of the smallest cover radius, so its weight vanishes outside the
    open domain (the cover balls must carry the boundary zone).
    """
    if not cover:
        raise InputError("cover must contain at least one ball")
    if any(b.dimension != domain.dimension for b in cover):
        raise DimensionError("cover ball and domain dimensions differ")
    width = 0.25 * min(b.radius for b in cover)

    def weights(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        raw = [_ball_bump(b, pts) for b in cover]
        raw.append(_smooth_step(domain.interior_distance(pts) / width))
        total = sum(raw)  # left to right: the cover balls, then the domain
        out = np.zeros((pts.shape[0], len(raw)))
        ok = total > 0.0
        out[ok] = np.column_stack(raw)[ok] / total[ok, None]
        return out

    return weights


@dataclass(eq=False)
class GlobalExtension(_FunctionLike):
    """Weighted sum of local envelopes plus the domain term, on the union."""

    domain: DomainSpec
    cover: list
    fields: list
    func: object
    evaluation_domain = None  # no DomainSpec describes a covered set

    def __post_init__(self):
        if len(self.fields) != len(self.cover):
            raise InputError("one local field per cover ball is required")
        self.weights = partition_weights(self.domain, self.cover)
        base = getattr(self.func, "identifier", type(self.func).__name__)
        self.identifier = f"glued-extension({base})"

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = self.weights(pts)
        total = w.sum(axis=1)
        if np.any(np.abs(total - 1.0) > 1e-9):
            raise EvaluationError(
                "query point outside the covered set (weights do not sum to 1)"
            )
        out = np.zeros(pts.shape[0])
        for j, term in enumerate(self.fields + [self.func]):
            mask = w[:, j] > 0.0
            if np.any(mask):
                out[mask] += w[mask, j] * term.evaluate_many(pts[mask])
        return out


def glue_global(
    domain: DomainSpec, cover: list[BallRegion], fields: list[ExtensionField], func
) -> GlobalExtension:
    """Glue local envelopes; the partition is checked on a probe grid first."""
    glued = GlobalExtension(domain, list(cover), list(fields), func)
    w = glued.weights(_partition_probes(domain, cover))
    err = np.abs(w.sum(axis=1) - 1.0)
    if float(err.max()) > 1e-9:
        raise PartitionError(
            f"partition weights sum off by {float(err.max()):g} on the probe grid"
        )
    if float(w.min()) < 0.0 or float(w.max()) > 1.0 + 1e-12:
        raise PartitionError("partition weights leave [0, 1]")
    return glued


def _partition_probes(domain, cover) -> np.ndarray:
    """Lattice of pitch min radius / 8 over the open cover region, with a 3%
    inset per element.

    The inset keeps every probe where at least one generating bump is
    representable (the bumps underflow to zero within ~0.1% of an element's
    edge), so a zero weight sum on a probe flags a genuine cover gap.
    """
    min_radius = min(b.radius for b in cover)
    spacing = min_radius / 8.0
    chunks = []
    for b in cover:
        pts = _ball_lattice(b, spacing)
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


def _mollifier_grid(dimension: int):
    """Tensor grid of _M_Q points per axis on [-1,1]^d with the even bump
    exp(1/(|y|^2-1)) weights, renormalized so they sum to exactly 1 (the
    correction lands on the center node to keep evenness bit-exact)."""
    half = (_M_Q - 1) // 2
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
class MollifiedApproximant(_FunctionLike):
    """u_h(x) = sum_i w_i E(x + y_i/h): smoothing at scale 1/h."""

    field: ExtensionField
    h: int

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
        self.nodes, self.weights = _mollifier_grid(ball.dimension)
        base = getattr(self.field, "identifier", type(self.field).__name__)
        self.identifier = f"mollified({base}, h={self.h})"

    @property
    def ball(self) -> BallRegion:
        b = self.field.ball
        return BallRegion(b.center, 0.5 * b.radius)

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(self.ball.contains_many(pts)):
            raise InputError("mollified field is defined on the half-radius ball only")
        out = np.empty(pts.shape[0])
        L = self.nodes.shape[0]
        # the weighted sums run on blocks of 8192 // L points, whose gemv
        # rounding every value keeps; the field gets whole blocks, at most
        # _BATCH stencil rows per call
        step = max(1, 8192 // L)
        batch = step * max(1, _BATCH // (step * L))
        offsets = self.nodes / self.h
        for lo in range(0, pts.shape[0], batch):
            vals = self.field.stencil_values(pts[lo : lo + batch], offsets)
            for b in range(0, vals.shape[0], step):
                out[lo + b : lo + b + step] = vals[b : b + step] @ self.weights
        return out
