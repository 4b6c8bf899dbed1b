"""Singularity propagation along extension envelopes.

When the hull boundary of the reachable-gradient set at a boundary point x0
contains points that are not reachable gradients themselves, the envelope's
singularity at x0 continues into the ball along x(s) = x0 + s*theta + o(s),
where -theta generates the normal cone at such a hull point.  The tracer
follows the arc by maximizing a nondifferentiability indicator on discs
transverse to theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDirectionError,
    InputError,
    PropagationLostError,
)
from .gradients import (
    ReachableGradientSet,
    _cluster,
    _diameter,
    convex_hull,
    hull_gap,
    normal_cone_directions,
)

DEFAULT_RESIDUAL_TOL = 0.25
DEFAULT_SEARCH_FACTOR = 3.0  # w = 3 * delta_s
DEFAULT_DISC_FRACTION = 0.1  # disc grid spacing = delta_s / 10
DEFAULT_EPS_S = 0.05
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
    """Deepest-gap candidate: maximizes the distance to the representatives."""
    if candidates.shape[0] == 0:
        raise InputError("no candidate hull points to select from")
    reps = rset.representatives
    dist = np.linalg.norm(
        candidates[:, None, :] - reps[None, :, :], axis=2
    ).min(axis=1)
    return candidates[int(np.argmax(dist))]


def propagation_directions(rset: ReachableGradientSet, p0, n_dirs: int = 8) -> np.ndarray:
    """theta = -nu for each normal-cone generator nu at p0 on the hull."""
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    poly = convex_hull(rset.representatives)
    nus = normal_cone_directions(poly, p0, n_dirs=n_dirs)
    if nus.shape[0] == 0:
        raise DegenerateDirectionError(
            "normal cone at p0 is {0}; no propagation direction available"
        )
    return -nus


# -- nondifferentiability indicator -------------------------------------------


def _unit_ball_pattern(dim: int, m: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the closed unit ball."""
    i = np.arange(m) + 0.5
    if dim == 1:
        return np.linspace(-1.0, 1.0, m)[:, None]
    if dim == 2:
        r = np.sqrt(i / m)
        phi = _GOLDEN_ANGLE * np.arange(m)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    r = (i / m) ** (1.0 / 3.0)
    z = 1.0 - 2.0 * i / m
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = _GOLDEN_ANGLE * i
    dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return r[:, None] * dirs


def _indicator_values(
    field,
    centers: np.ndarray,
    rho: float,
    m: int,
    h_fd: float,
    eps_c: float,
) -> np.ndarray:
    """Gradient spread of the field on B_rho around each center, batched."""
    n, d = centers.shape
    pattern = rho * _unit_ball_pattern(d, m)
    pts = (centers[:, None, :] + pattern[None, :, :]).reshape(n * m, d)
    eye = h_fd * np.eye(d)
    stencil = np.concatenate(
        [pts[:, None, :] + eye[None], pts[:, None, :] - eye[None]], axis=1
    ).reshape(n * m * 2 * d, d)
    vals = field.evaluate_many(stencil).reshape(n * m, 2 * d)
    grads = (vals[:, :d] - vals[:, d:]) / (2.0 * h_fd)
    grads = grads.reshape(n, m, d)
    return np.array([_diameter(_cluster(g, eps_c)) for g in grads])


def singularity_indicator(
    field,
    x,
    rho: float,
    m: int = 24,
    h_fd: float | None = None,
    eps_c: float = 0.02,
) -> float:
    """Diameter of clustered gradient samples on B_rho(x); near-zero at
    smooth points, about the gradient jump across a crease."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not rho > 0.0:
        raise InputError("probe radius must be positive")
    if h_fd is None:
        h_fd = 1e-4 * rho
    ball = field.ball
    if np.linalg.norm(x - ball.center) + rho + h_fd > ball.radius * (1.0 + 1e-12):
        raise InputError("probe ball escapes the field's ball")
    return float(_indicator_values(field, x[None, :], rho, m, h_fd, eps_c)[0])


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
    eps_s: float
    rho_t: float
    p0: np.ndarray | None = None

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

    def to_dict(self) -> dict:
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
                    "residual": float(self.residuals[i]),
                }
                for i in range(self.s.size)
            ],
        }


def _transverse_basis(theta: np.ndarray) -> np.ndarray:
    d = theta.size
    if d == 1:
        return np.empty((0, 1))
    if d == 2:
        return np.array([[-theta[1], theta[0]]])
    k = int(np.argmin(np.abs(theta)))
    e = np.zeros(d)
    e[k] = 1.0
    u = e - (e @ theta) * theta
    u /= np.linalg.norm(u)
    return np.vstack([u, np.cross(theta, u)])


def _disc_offsets(w: float, spacing: float, codim: int) -> np.ndarray:
    """Transverse offsets sorted center-outward, so the first maximizer of a
    plateaued indicator is the most central one."""
    k = int(math.floor(w / spacing + 1e-9))
    ticks = np.arange(-k, k + 1) * spacing
    if codim == 0:
        return np.zeros((1, 0))
    if codim == 1:
        offs = ticks[:, None]
    else:
        tt, ss = np.meshgrid(ticks, ticks, indexing="ij")
        offs = np.column_stack([tt.ravel(), ss.ravel()])
        offs = offs[np.linalg.norm(offs, axis=1) <= w * (1.0 + 1e-12)]
    order = np.lexsort((*offs.T[::-1], np.linalg.norm(offs, axis=1)))
    return offs[order]


def trace_singular_arc(
    field,
    x0,
    theta,
    delta_s: float,
    sigma: float,
    w: float | None = None,
    rho: float | None = None,
    m: int = 24,
    h_fd: float | None = None,
    eps_s: float = DEFAULT_EPS_S,
    rho_t: float = DEFAULT_RESIDUAL_TOL,
    eps_c: float = 0.02,
    p0=None,
) -> SingularArc:
    """Follow the singularity from x0 in direction theta up to horizon sigma.

    At each s_i = i*delta_s the tracer scans a transverse disc of radius w
    around x0 + s_i*theta and records the indicator maximizer.  An indicator
    at or below eps_s raises PropagationLostError carrying the partial arc:
    the guaranteed horizon is not quantified, so running out of singularity
    is an expected stopping event rather than a failure of the tracer.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nrm = float(np.linalg.norm(theta))
    if nrm == 0.0:
        raise InputError("theta must be a nonzero direction")
    theta = theta / nrm
    if not delta_s > 0.0 or not sigma >= delta_s:
        raise InputError("need 0 < delta_s <= sigma")
    if w is None:
        w = DEFAULT_SEARCH_FACTOR * delta_s
    if rho is None:
        rho = 0.2 * delta_s
    if h_fd is None:
        h_fd = 1e-4 * rho
    ball = field.ball
    margin = float(np.linalg.norm(x0 - ball.center)) + sigma + w + rho + 2 * h_fd
    if margin > ball.radius * (1.0 + 1e-12):
        raise InputError(
            f"horizon {sigma:g} plus search width leaves the field ball "
            f"(needs {margin:g} <= {ball.radius:g})"
        )
    basis = _transverse_basis(theta)
    offsets = _disc_offsets(w, DEFAULT_DISC_FRACTION * delta_s, basis.shape[0])
    n_steps = int(math.floor(sigma / delta_s + 1e-9))

    s_list = [0.0]
    pts = [x0]
    inds = [float(_indicator_values(field, x0[None, :], rho, m, h_fd, eps_c)[0])]

    def partial() -> SingularArc:
        return SingularArc(
            x0=x0,
            theta=theta,
            delta_s=float(delta_s),
            sigma=float(sigma),
            s=np.array(s_list),
            points=np.array(pts),
            indicators=np.array(inds),
            eps_s=float(eps_s),
            rho_t=float(rho_t),
            p0=None if p0 is None else np.atleast_1d(np.asarray(p0, dtype=float)),
        )

    for i in range(1, n_steps + 1):
        s_i = i * delta_s
        center = x0 + s_i * theta
        disc = center + offsets @ basis
        values = _indicator_values(field, disc, rho, m, h_fd, eps_c)
        j = int(np.argmax(values))  # first max in center-outward order
        s_list.append(s_i)
        pts.append(disc[j])
        inds.append(float(values[j]))
        if values[j] <= eps_s:
            raise PropagationLostError(
                f"indicator {values[j]:g} <= eps_s at s = {s_i:g}; the arc "
                f"ended before the requested horizon",
                partial_arc=partial(),
            )
    return partial()
