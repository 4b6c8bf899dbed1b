"""Candidate functions: named analytic forms.

A FunctionSpec bundles a vectorized evaluator with an optional closed-form
gradient and an optional declared domain.  Downstream code accepts anything
function-like (an object with ``evaluate_many`` and ``evaluation_domain``),
so built fields and analytic functions are handled uniformly; the ones scext
builds share ``_FunctionLike``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, EvaluationError, InputError
from .geometry import DomainSpec, _by_columns, _column_norms, disk

_Evaluator = Callable[[np.ndarray], np.ndarray]


class _FunctionLike:
    """The default evaluation domain of a function-like: the closed ball
    ``self.ball`` it is defined on."""

    @property
    def evaluation_domain(self) -> DomainSpec | None:
        """Region outside which evaluation is refused, if declared; also where
        finite-difference stencils may be placed."""
        return disk(self.ball.center, self.ball.radius)


@dataclass(eq=False)
class FunctionSpec(_FunctionLike):
    """A function on the closure of its (optional) declared domain."""

    identifier: str
    dimension: int
    _fn: _Evaluator
    _grad: _Evaluator | None = None
    domain: DomainSpec | None = None

    @property
    def evaluation_domain(self) -> DomainSpec | None:
        return self.domain

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise DimensionError(
                f"points have dimension {pts.shape[1]}, function expects {self.dimension}"
            )
        if self.domain is not None:
            ok = self.domain.contains_many(pts, "closure")
            if not np.all(ok):
                raise EvaluationError(
                    f"{int((~ok).sum())} evaluation point(s) outside the declared domain"
                )
        vals = np.asarray(self._fn(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"{self.identifier} produced non-finite values")
        return vals

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    def gradient_many(self, points) -> np.ndarray:
        if self._grad is None:
            raise EvaluationError(f"{self.identifier} declares no analytic gradient")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self._grad(pts), dtype=float)


# -- named analytic forms ---------------------------------------------------

def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T (a @ b for a vector b), with a lone row of a doubled: BLAS
    rounds a one-row product differently from the same row in a batch."""
    if a.shape[0] == 1:
        return (np.vstack([a, a]) @ b.T)[:1]
    return a @ b.T


def _nan_where_zero(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The gradient rows g, NaN where t == 0 (the form is singular there)."""
    g[t == 0.0] = np.nan
    return g


_TINY = np.finfo(float).tiny


def _underflowed(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Nonzero rows whose sum of squared terms q fell below the normal range,
    so that it lost precision or vanished; scale is the max-abs coordinate."""
    return (q < _TINY) & (scale > 0.0)


def _abs_max(pts: np.ndarray) -> np.ndarray:
    """Largest absolute coordinate of each row."""
    return _by_columns(np.maximum, np.abs(pts))


def _build_neg_norm(dimension, params):
    def fn(pts):
        return -_column_norms(pts)

    def grad(pts):
        q = _by_columns(np.add, pts * pts)
        scale = _abs_max(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = -pts / np.sqrt(q)[:, None]
        low = _underflowed(q, scale)
        if low.any():  # the same direction, from rows rescaled to max-abs 1
            unit = pts[low] / scale[low, None]
            g[low] = -unit / _column_norms(unit)[:, None]
        return _nan_where_zero(g, scale)

    return fn, grad


def _build_neg_abs_x2(dimension, params):
    if dimension < 2:
        raise DimensionError("neg-abs-x2 needs dimension >= 2")

    def fn(pts):
        return -np.abs(pts[:, 1])

    def grad(pts):
        s = np.sign(pts[:, 1])
        g = np.zeros_like(pts)
        g[:, 1] = -s
        return _nan_where_zero(g, pts[:, 1])

    return fn, grad


def _build_neg_sqrt_x1p4_x2sq(dimension, params):
    if dimension != 2:
        raise DimensionError("neg-sqrt-x1p4-x2sq is two-dimensional")

    def fn(pts):
        return -np.sqrt(pts[:, 0] ** 4 + pts[:, 1] ** 2)

    def grad(pts):
        q = pts[:, 0] ** 4 + pts[:, 1] ** 2
        s = np.sqrt(q)
        scale = _abs_max(pts)
        g = np.empty_like(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            g[:, 0] = -2.0 * pts[:, 0] ** 3 / s
            g[:, 1] = -pts[:, 1] / s
        low = _underflowed(q, scale)
        if low.any():
            # (x1^2, x2) / s is the unit vector along (x1^2/c, x2/c), c = scale
            x1, c = pts[low, 0], scale[low]
            a, b = x1 * (x1 / c), pts[low, 1] / c
            h = np.hypot(a, b)
            g[low, 0] = -2.0 * x1 * (a / h)
            g[low, 1] = -b / h
        return _nan_where_zero(g, scale)

    return fn, grad


def _build_affine(dimension, params):
    p = np.asarray(params.get("p", np.zeros(dimension)), dtype=float)
    if p.size != dimension:
        raise DimensionError("affine coefficient vector has the wrong length")
    b = float(params.get("b", 0.0))
    return (lambda pts: _gemm(pts, p) + b), (lambda pts: np.broadcast_to(p, pts.shape).copy())


def _build_sq_norm(dimension, params):
    scale = float(params.get("scale", 1.0))
    return (
        lambda pts: scale * np.einsum("ij,ij->i", pts, pts),
        lambda pts: 2.0 * scale * pts,
    )


def _build_neg_sq_norm(dimension, params):
    return _build_sq_norm(dimension, {"scale": -1.0})


def _build_quadratic(dimension, params):
    a = float(params.get("a", 0.0))
    b = np.asarray(params.get("b", np.zeros(dimension)), dtype=float)
    if b.size != dimension:
        raise DimensionError("quadratic linear coefficient has the wrong length")
    c = float(params.get("c", 0.0))
    return (
        lambda pts: a * np.einsum("ij,ij->i", pts, pts) + _gemm(pts, b) + c,
        lambda pts: 2.0 * a * pts + b,
    )


def _build_constant(dimension, params):
    value = float(params.get("value", 0.0))
    return (
        lambda pts: np.full(pts.shape[0], value),
        lambda pts: np.zeros_like(pts),
    )


# Each builder(dimension, params) returns a pair (fn, grad_or_None) of
# vectorized evaluators on (N, d) arrays.  A gradient evaluator returns a NaN
# row at each point where the form is singular and a finite row everywhere
# else, without raising or warning.
_REGISTRY: dict[str, Callable] = {
    "neg-norm": _build_neg_norm,
    "neg-abs-x2": _build_neg_abs_x2,
    "neg-sqrt-x1p4-x2sq": _build_neg_sqrt_x1p4_x2sq,
    "affine": _build_affine,
    "sq-norm": _build_sq_norm,
    "neg-sq-norm": _build_neg_sq_norm,
    "quadratic": _build_quadratic,
    "constant": _build_constant,
}


def named_function(
    identifier: str,
    dimension: int = 2,
    domain: DomainSpec | None = None,
    params: dict | None = None,
) -> FunctionSpec:
    if identifier not in _REGISTRY:
        raise InputError(
            f"unknown function identifier {identifier!r}; known: {sorted(_REGISTRY)}"
        )
    params = dict(params or {})
    fn, grad = _REGISTRY[identifier](dimension, params)
    return FunctionSpec(identifier, dimension, fn, grad, domain)


# -- finite differences -----------------------------------------------------


def _stencil(pts: np.ndarray, h: float, centre: bool = False) -> np.ndarray:
    """Central-difference rows of the (n, d) points, point by point: p itself
    when centre, then p + h e_i for each i, then p - h e_i for each i."""
    eye = h * np.eye(pts.shape[1])
    rows = [pts[:, None, :] + eye[None], pts[:, None, :] - eye[None]]
    if centre:
        rows.insert(0, pts[:, None, :])
    return np.concatenate(rows, axis=1).reshape(-1, pts.shape[1])

