"""Singularity propagation along extension envelopes.

When the hull boundary of the reachable-gradient set at a boundary point x0
contains points that are not reachable gradients themselves, the envelope's
singularity at x0 continues into the ball along x(s) = x0 + s*theta + o(s),
where -theta generates the normal cone at such a hull point.  The tracer
follows the arc by maximizing a nondifferentiability indicator on discs
transverse to theta.  Hulls, the indicator and the tracer work in dimension
1 and 2 only and raise DimensionError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, DimensionError, InputError
from .funcspace import _stencil
from .geometry import _vec
from .gradients import (
    DEFAULT_EPS_C,
    DEFAULT_EPS_S,
    ReachableGradientSet,
    _cluster,
    _diameter,
    _distances,
    convex_hull,
    hull_gap,
    normal_cone_directions,
)

DEFAULT_RESIDUAL_TOL = 0.25
_FD_STEP = 1e-4  # indicator central-difference step, as a fraction of rho
_PROBES = 24  # indicator gradient samples per probe ball
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def check_condition_h(rset: ReachableGradientSet, eps_g: float, eps_c: float):
    """Hull-boundary points missing from the reachable set, if any.

    Returns (condition_holds, candidate p0 points).  The candidates are the
    hull_gap samples at spacing eps_g, using eps_c as the distance that
    counts as "missing from" the representatives.
    """
    candidates = hull_gap(rset, eps_g, min_gap=eps_c)
    return candidates.shape[0] > 0, candidates


def select_p0(rset: ReachableGradientSet, candidates: np.ndarray) -> np.ndarray:
    """Deepest-gap candidate: maximizes the distance to the representatives,
    the lexicographically smallest among equals, so the candidates' order
    does not matter."""
    if candidates.shape[0] == 0:
        raise InputError("no candidate hull points to select from")
    dist = _distances(candidates, rset.representatives).min(axis=1)
    deepest = candidates[dist == dist.max()]
    return deepest[np.lexsort(deepest.T[::-1])[0]]


def propagation_directions(rset: ReachableGradientSet, p0) -> np.ndarray:
    """theta = -nu for each normal-cone generator nu at p0 on the hull."""
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    poly = convex_hull(rset.representatives)
    nus = normal_cone_directions(poly, p0)
    if nus.shape[0] == 0:
        raise DegenerateDirectionError(
            "normal cone at p0 is {0}; no propagation direction available"
        )
    return -nus


# -- nondifferentiability indicator -------------------------------------------


def _ball_points(field, *vectors) -> list[np.ndarray]:
    """The vectors as points of the field's ball, which must be 1D or 2D."""
    d = field.ball.dimension
    if d > 2:
        raise DimensionError(
            f"singularity analysis is supported in dimension <= 2 only, got {d}"
        )
    return [_vec(v, d) for v in vectors]


def _unit_ball_pattern(dim: int, m: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the closed unit ball."""
    if dim == 1:
        return np.linspace(-1.0, 1.0, m)[:, None]
    r = np.sqrt((np.arange(m) + 0.5) / m)
    phi = _GOLDEN_ANGLE * np.arange(m)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _indicator_grads(field, centers: np.ndarray, rho: float) -> np.ndarray:
    """Central-difference gradients of the field at _PROBES points of B_rho
    around each center: one group of _PROBES rows per center."""
    n, d = centers.shape
    h_fd = _FD_STEP * rho
    pattern = rho * _unit_ball_pattern(d, _PROBES)
    pts = (centers[:, None, :] + pattern[None, :, :]).reshape(n * _PROBES, d)
    vals = field.evaluate_many(_stencil(pts, h_fd)).reshape(n * _PROBES, 2 * d)
    return (vals[:, :d] - vals[:, d:]) / (2.0 * h_fd)


def _spreads(grads: np.ndarray) -> np.ndarray:
    """Indicator value of each group of ``_indicator_grads`` rows: the
    diameter of its clustered gradients, all groups in one ``_cluster``."""
    n = grads.shape[0] // _PROBES
    reps = _cluster(grads, np.full(n, _PROBES), DEFAULT_EPS_C)
    return np.array([_diameter(r) for r in reps])


# -- arc tracing --------------------------------------------------------------


@dataclass(eq=False)
class SingularArc:
    """Traced arc record: x(s_i), indicator values, and tangency residuals."""

    x0: np.ndarray
    theta: np.ndarray
    delta_s: float
    sigma: float
    s: np.ndarray  # (n,), starts at 0
    points: np.ndarray  # (n, d), points[0] = x0
    indicators: np.ndarray  # (n,)
    p0: np.ndarray | None = None
    eps_s = DEFAULT_EPS_S  # indicator level at which the tracer stops
    rho_t = DEFAULT_RESIDUAL_TOL  # largest tangency residual a validated arc has

    @property
    def residuals(self) -> np.ndarray:
        """|x(s_i) - x0 - s_i theta| / s_i for s_i > 0 (0 at s=0)."""
        out = np.zeros_like(self.s)
        pos = self.s > 0.0
        drift = self.points[pos] - self.x0 - self.s[pos, None] * self.theta
        out[pos] = np.linalg.norm(drift, axis=1) / self.s[pos]
        return out

    @property
    def validated(self) -> bool:
        res = self.residuals[1:][:3]
        return (
            bool(np.all(self.indicators[1:] > self.eps_s))
            and res.size > 0
            and bool(np.all(res <= self.rho_t))
        )

    @property
    def lost(self) -> bool:
        """Whether the indicator fell to eps_s, ending the arc early."""
        return self.s.size > 1 and bool(self.indicators[-1] <= self.eps_s)

    def to_dict(self) -> dict:
        res = self.residuals
        return {
            "x0": self.x0.tolist(),
            "p0": None if self.p0 is None else self.p0.tolist(),
            "theta": self.theta.tolist(),
            "delta_s": self.delta_s,
            "sigma": self.sigma,
            "eps_s": self.eps_s,
            "rho_t": self.rho_t,
            "validated": self.validated,
            "samples": [
                {
                    "s": float(self.s[i]),
                    "x": self.points[i].tolist(),
                    "indicator": float(self.indicators[i]),
                    "residual": float(res[i]),
                }
                for i in range(self.s.size)
            ],
        }


def _transverse_basis(theta: np.ndarray) -> np.ndarray:
    if theta.size == 1:
        return np.empty((0, 1))
    return np.array([[-theta[1], theta[0]]])


def _disc_offsets(w: float, spacing: float, codim: int) -> np.ndarray:
    """Transverse offsets sorted center-outward, so the first maximizer of a
    plateaued indicator is the most central one."""
    if codim == 0:
        return np.zeros((1, 0))
    k = int(math.floor(w / spacing + 1e-9))
    offs = (np.arange(-k, k + 1) * spacing)[:, None]
    order = np.lexsort((*offs.T[::-1], np.linalg.norm(offs, axis=1)))
    return offs[order]


def trace_singular_arc(
    field,
    x0,
    theta,
    delta_s: float,
    sigma: float,
    p0=None,
) -> SingularArc:
    """Follow the singularity from x0 in direction theta up to horizon sigma.

    At each s_i = i*delta_s the tracer scans a transverse disc of radius
    w = 3*delta_s, on a grid of pitch delta_s/10, around x0 + s_i*theta and
    records the maximizer of the indicator on probe balls of radius
    0.2*delta_s.  An indicator at or below DEFAULT_EPS_S ends the arc there
    (``SingularArc.lost``): the guaranteed horizon is not quantified, so
    running out of singularity is an expected stopping event rather than a
    failure of the tracer.

    The field is sampled with one call per step, the same batches a scan
    that stops at the first lost step evaluates, and the gradients of x0's
    ball and of every step's discs are then clustered in one ``_cluster``
    call, which reads each probe ball's own rows only.  The arc is cut at
    its first lost step, so it is the one that scan gives, but a lost arc
    costs what a full one does.
    """
    x0, theta = _ball_points(field, x0, theta)
    nrm = float(np.linalg.norm(theta))
    if nrm == 0.0:
        raise InputError("theta must be a nonzero direction")
    theta = theta / nrm
    if not delta_s > 0.0 or not sigma >= delta_s:
        raise InputError("need 0 < delta_s <= sigma")
    w, rho = 3.0 * delta_s, 0.2 * delta_s
    h_fd = _FD_STEP * rho
    ball = field.ball
    margin = float(np.linalg.norm(x0 - ball.center)) + sigma + w + rho + 2 * h_fd
    if margin > ball.radius * (1.0 + 1e-12):
        raise InputError(
            f"horizon {sigma:g} plus search width leaves the field ball "
            f"(needs {margin:g} <= {ball.radius:g})"
        )
    basis = _transverse_basis(theta)
    offsets = _disc_offsets(w, 0.1 * delta_s, basis.shape[0])
    n_steps = int(math.floor(sigma / delta_s + 1e-9))

    discs = x0 + (np.arange(1, n_steps + 1) * delta_s)[:, None, None] * theta + offsets @ basis
    values = _spreads(np.vstack([_indicator_grads(field, c, rho) for c in [x0[None, :], *discs]]))
    steps = values[1:].reshape(n_steps, -1)
    best = steps.argmax(axis=1)  # first max in center-outward order
    peak = steps[np.arange(n_steps), best]
    low = np.flatnonzero(peak <= DEFAULT_EPS_S)
    n = int(low[0]) + 1 if low.size else n_steps
    return SingularArc(
        x0=x0,
        theta=theta,
        delta_s=float(delta_s),
        sigma=float(sigma),
        s=np.arange(n + 1) * delta_s,
        points=np.vstack([x0, discs[np.arange(n), best[:n]]]),
        indicators=np.concatenate([values[:1], peak[:n]]),
        p0=None if p0 is None else np.atleast_1d(np.asarray(p0, dtype=float)),
    )
