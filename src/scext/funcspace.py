"""Candidate functions: named analytic forms and sampled grids.

A FunctionSpec bundles a vectorized evaluator with an optional closed-form
gradient and an optional declared domain.  Downstream code accepts anything
function-like (an object with ``evaluate_many`` or a plain callable on
points), so built fields and analytic functions are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import (
    DimensionError,
    EvaluationError,
    InputError,
    SamplingError,
    StencilError,
)
from .geometry import BallRegion, DomainSpec, closure_grid, sample_closure_points

_Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(eq=False)
class FunctionSpec:
    """A function on the closure of its (optional) declared domain."""

    identifier: str
    form: str  # "analytic-named" or "sampled-grid"
    dimension: int
    _fn: _Evaluator
    _grad: _Evaluator | None = None
    domain: DomainSpec | None = None
    params: dict = field(default_factory=dict)

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

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluate_many(x[None, :])[0])

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    def gradient_many(self, points) -> np.ndarray:
        if self._grad is None:
            raise EvaluationError(f"{self.identifier} declares no analytic gradient")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self._grad(pts), dtype=float)


# -- named analytic forms ---------------------------------------------------

_REGISTRY: dict[str, Callable] = {}


def register_function(identifier: str, builder: Callable) -> None:
    """Register a named form.  ``builder(dimension, params)`` must return a
    pair ``(fn, grad_or_None)`` of vectorized evaluators on (N, d) arrays.

    A gradient evaluator returns a NaN row at each point where the form is
    singular and a finite row everywhere else, without raising or warning."""
    if identifier in _REGISTRY:
        raise InputError(f"function identifier {identifier!r} already registered")
    _REGISTRY[identifier] = builder


def _nan_where_zero(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The gradient rows g, NaN where t == 0 (the form is singular there)."""
    g[t == 0.0] = np.nan
    return g


def _build_neg_norm(dimension, params):
    def fn(pts):
        return -np.linalg.norm(pts, axis=1)

    def grad(pts):
        r = np.linalg.norm(pts, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _nan_where_zero(-pts / r[:, None], r)

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
        s = np.sqrt(pts[:, 0] ** 4 + pts[:, 1] ** 2)
        g = np.empty_like(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            g[:, 0] = -2.0 * pts[:, 0] ** 3 / s
            g[:, 1] = -pts[:, 1] / s
        return _nan_where_zero(g, s)

    return fn, grad


def _build_affine(dimension, params):
    p = np.asarray(params.get("p", np.zeros(dimension)), dtype=float)
    if p.size != dimension:
        raise DimensionError("affine coefficient vector has the wrong length")
    b = float(params.get("b", 0.0))
    return (lambda pts: pts @ p + b), (lambda pts: np.broadcast_to(p, pts.shape).copy())


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
        lambda pts: a * np.einsum("ij,ij->i", pts, pts) + pts @ b + c,
        lambda pts: 2.0 * a * pts + b,
    )


def _build_constant(dimension, params):
    value = float(params.get("value", 0.0))
    return (
        lambda pts: np.full(pts.shape[0], value),
        lambda pts: np.zeros_like(pts),
    )


for _name, _builder in [
    ("neg-norm", _build_neg_norm),
    ("neg-abs-x2", _build_neg_abs_x2),
    ("neg-sqrt-x1p4-x2sq", _build_neg_sqrt_x1p4_x2sq),
    ("affine", _build_affine),
    ("sq-norm", _build_sq_norm),
    ("neg-sq-norm", _build_neg_sq_norm),
    ("quadratic", _build_quadratic),
    ("constant", _build_constant),
]:
    register_function(_name, _builder)


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
    return FunctionSpec(identifier, "analytic-named", dimension, fn, grad, domain, params)


def sampled_function(
    axes: list[np.ndarray],
    values: np.ndarray,
    domain: DomainSpec | None = None,
    identifier: str = "sampled-grid",
) -> FunctionSpec:
    """Multilinear interpolation on a node lattice (order 1; keeps Lipschitz
    and concavity bounds that higher orders would break)."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float)
    interp = RegularGridInterpolator(axes, values, method="linear", bounds_error=True)

    def fn(pts):
        try:
            return interp(pts)
        except ValueError as exc:
            raise EvaluationError(f"point outside the sampled hull: {exc}") from exc

    return FunctionSpec(identifier, "sampled-grid", len(axes), fn, None, domain)


# -- generic evaluation protocol --------------------------------------------


def evaluate_many(func, points) -> np.ndarray:
    """Vectorized evaluation for FunctionSpec, built fields, or callables."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if hasattr(func, "evaluate_many"):
        return np.asarray(func.evaluate_many(pts), dtype=float)
    return np.array([float(func(p)) for p in pts])


def evaluate(func, x) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(evaluate_many(func, x[None, :])[0])


def declared_domain(func) -> DomainSpec | None:
    """Region outside which evaluation is refused, if the object declares one.

    This is the evaluation guard (where finite-difference stencils may be
    placed), not the construction domain of derived objects like extension
    fields, which evaluate on their whole ball.
    """
    return getattr(func, "evaluation_domain", None)


def gradient(func, x, h_fd: float | None = None) -> np.ndarray:
    """Gradient at x: analytic when declared, else central differences.

    An EvaluationError reports a point where the analytic form is singular.
    The finite-difference stencil must stay inside the closure of the
    declared domain (when there is one); otherwise a StencilError asks the
    caller to shrink h_fd or move inward.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if getattr(func, "has_gradient", False):
        g = func.gradient_many(x[None, :])[0]
        if np.isnan(g).any():
            raise EvaluationError(f"gradient undefined at {x.tolist()}: singular point")
        return g
    if h_fd is None or not h_fd > 0.0:
        raise InputError("central differences need a positive step h_fd")
    stencil = _central_stencil(x, h_fd)
    dom = declared_domain(func)
    if dom is not None and not np.all(dom.contains_many(stencil, "closure")):
        raise StencilError(
            f"stencil of radius {h_fd:g} leaves the domain at {x.tolist()}"
        )
    vals = evaluate_many(func, stencil)
    d = x.size
    return (vals[:d] - vals[d:]) / (2.0 * h_fd)


def _central_stencil(x: np.ndarray, h: float) -> np.ndarray:
    eye = h * np.eye(x.size)
    return np.vstack([x + eye, x - eye])


def lipschitz_estimate(
    func,
    domain: DomainSpec,
    region: BallRegion,
    n_pairs: int,
    seed: int,
) -> float:
    """Max difference quotient over random pairs in closure(domain) & region.

    A lower bound on the true local Lipschitz constant; deterministic given
    the seed, and nondecreasing in n_pairs for a fixed seed (the pair stream
    is a prefix).
    """
    if n_pairs < 1:
        raise InputError(f"n_pairs must be at least 1, got {n_pairs}")
    _require_overlap(domain, region)
    rng = np.random.default_rng(seed)
    pts = sample_closure_points(domain, region, 2 * n_pairs, rng)
    x, y = pts[0::2], pts[1::2]
    gap = np.linalg.norm(x - y, axis=1)
    keep = gap > 1e-12
    if not np.any(keep):
        return 0.0
    fx = evaluate_many(func, x[keep])
    fy = evaluate_many(func, y[keep])
    return float(np.max(np.abs(fx - fy) / gap[keep]))


def _require_overlap(domain: DomainSpec, region: BallRegion) -> None:
    if domain.contains(region.center, "closure"):
        return
    probe = closure_grid(domain, region, region.radius / 8.0)
    if probe.shape[0] == 0:
        raise InputError("the region ball does not meet the closure of the domain")
