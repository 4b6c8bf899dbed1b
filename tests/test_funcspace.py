"""Named functions: evaluation and gradients."""

import warnings

import numpy as np
import pytest

from scext import (
    BallRegion,
    DimensionError,
    named_function,
)
from scext.funcspace import _REGISTRY
from scext.gradients import _gradient_samples


def _origin(pts):
    return np.all(pts == 0.0, axis=1)


def _nowhere(pts):
    return np.zeros(pts.shape[0], dtype=bool)


# where each registered named form is singular (its gradient_many returns NaN
# rows there); a form missing from this table fails the contract test
_SINGULAR_SET = {
    "neg-norm": _origin,
    "neg-abs-x2": lambda pts: pts[:, 1] == 0.0,
    "neg-sqrt-x1p4-x2sq": _origin,
    "affine": _nowhere,
    "sq-norm": _nowhere,
    "neg-sq-norm": _nowhere,
    "quadratic": _nowhere,
    "constant": _nowhere,
}

# gradients at the underflow rows 6-8 of the contract test's points
_UNDERFLOW_GRADIENTS = {
    "neg-norm": [(6, (-1.0, 0.0)), (7, (-0.6, -0.8)), (8, (-1.0, 0.0))],
    "neg-sqrt-x1p4-x2sq": [(8, (-2e-100, 0.0))],
}


# one-sided quotients must agree this closely, as in ``build_support_set``
_EPS_C = 0.01


class _NoGradient:
    """Evaluation-only wrapper that forces the finite-difference path."""

    evaluation_domain = None

    def __init__(self, base):
        self._base = base

    def evaluate_many(self, pts):
        return self._base.evaluate_many(pts)


@pytest.fixture(scope="module")
def functions(half_disk):
    build = lambda name, **kw: named_function(name, dimension=2, domain=half_disk, **kw)
    return {
        "neg-norm": build("neg-norm"),
        "neg-abs-x2": build("neg-abs-x2"),
        "neg-sqrt": build("neg-sqrt-x1p4-x2sq"),
        "affine": build("affine", params={"p": [2.0, 0.0], "b": 0.0}),
        "sq-norm": build("sq-norm"),
        "constant": build("constant", params={"value": 1.25}),
    }


class TestEvaluate:
    def test_neg_norm_on_unit_vector(self, functions):
        assert functions["neg-norm"].evaluate_many([(0.6, 0.8)])[0] == pytest.approx(-1.0, abs=1e-15)

    def test_neg_abs_x2(self, functions):
        assert functions["neg-abs-x2"].evaluate_many([(0.5, -0.3)])[0] == -0.3

    def test_neg_sqrt(self, functions):
        assert functions["neg-sqrt"].evaluate_many([(1.0, 0.0)])[0] == pytest.approx(-1.0, abs=1e-15)

    def test_declared_domain_present(self, functions, half_disk):
        assert functions["neg-norm"].evaluation_domain is half_disk

    def test_affine_and_constant(self, functions):
        assert functions["affine"].evaluate_many([(0.25, 0.7)])[0] == pytest.approx(0.5, abs=1e-15)
        assert functions["constant"].evaluate_many([(0.1, 0.2)])[0] == 1.25

    def test_batch_matches_scalar(self, functions):
        pts = np.array([[0.3, 0.1], [0.5, -0.2], [0.9, 0.05]])
        for f in functions.values():
            batch = f.evaluate_many(pts)
            assert np.array_equal(batch, [f.evaluate_many(p[None])[0] for p in pts])


class TestGradient:
    def test_neg_norm_analytic(self, functions):
        g = functions["neg-norm"].gradient_many([(0.6, 0.8)])[0]
        assert np.allclose(g, (-0.6, -0.8), atol=1e-15)

    def test_neg_abs_x2_signs(self, functions):
        g = functions["neg-abs-x2"].gradient_many([(0.5, 0.2), (0.5, -0.2)])
        assert np.allclose(g[0], (0.0, -1.0))
        assert np.allclose(g[1], (0.0, 1.0))

    def test_central_difference_matches_analytic(self, functions, half_disk):
        shim = _NoGradient(functions["sq-norm"])
        mask, g = _gradient_samples(shim, np.array([[0.3, 0.4]]), half_disk, 1e-4, _EPS_C)
        assert mask.all()
        assert np.allclose(g[0], (0.6, 0.8), atol=1e-8)

    @pytest.mark.parametrize("identifier", sorted(_REGISTRY))
    def test_nan_rows_exactly_on_the_singular_set(self, identifier):
        func = named_function(identifier, dimension=2)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(1_000, 2))
        pts[:6] = [
            [0.0, 0.0], [0.5, 0.0], [-0.25, 0.0], [0.0, 0.3], [0.0, -1.0], [1e-3, 0.0],
        ]
        # differentiable points whose squared terms leave the normal range
        pts[6:9] = [[1e-200, 0.0], [3e-160, 4e-160], [1e-100, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grads = func.gradient_many(pts)
        singular = _SINGULAR_SET[identifier](pts)
        assert np.array_equal(np.isnan(grads).all(axis=1), singular)
        assert np.isfinite(grads[~singular]).all()
        for row, want in _UNDERFLOW_GRADIENTS.get(identifier, []):
            np.testing.assert_allclose(grads[row], want, rtol=1e-15, atol=0.0)

    def test_gradient_undefined_on_crease(self, functions, half_disk):
        # the gradient samplers take the NaN row there as not differentiable
        pts = np.array([[0.5, 0.0], [0.5, 0.2]])
        mask, g = _gradient_samples(functions["neg-abs-x2"], pts, half_disk, 1e-4, _EPS_C)
        assert mask.tolist() == [False, True]
        assert np.isfinite(g).all()

    def test_analytic_agrees_with_central_differences(self, functions, half_disk):
        # smooth probes: away from the origin and from the x2 = 0 crease
        rng = np.random.default_rng(31)
        r = rng.uniform(0.3, 0.9, 100)
        phi = rng.uniform(0.1, np.pi / 2.0 - 0.1, 100)
        sign = rng.choice([-1.0, 1.0], 100)
        pts = np.column_stack([r * np.cos(phi), sign * r * np.sin(phi)])
        h_fd = 1e-4
        for name in ("neg-norm", "neg-abs-x2", "neg-sqrt", "affine", "sq-norm"):
            f = functions[name]
            exact = f.gradient_many(pts)
            mask, approx = _gradient_samples(_NoGradient(f), pts, half_disk, h_fd, _EPS_C)
            assert mask.all(), name
            assert np.allclose(exact, approx, atol=1e-5), name


# parameters that make each named form depend on every coordinate
_LONE_ROW_PARAMS = {
    "affine": {"p": [0.3, -0.7, 1.9], "b": 0.1},
    "quadratic": {"a": 0.7, "b": [-1.3, 0.45, 2.2], "c": -0.3},
}


def _lone_row_form(identifier, d):
    params = {k: v[:d] if isinstance(v, list) else v
              for k, v in _LONE_ROW_PARAMS.get(identifier, {}).items()}
    try:
        return named_function(identifier, dimension=d, params=params)
    except DimensionError:
        return None


class TestLoneRows:
    @pytest.mark.parametrize("identifier, d", [
        (name, d) for name in sorted(_REGISTRY) for d in (1, 2, 3)
        if _lone_row_form(name, d) is not None
    ])
    def test_row_alone_has_its_batch_bits(self, identifier, d):
        # BLAS rounds a one-row product apart from a batch; every named form
        # must give a row the same bits alone as in any batch
        f = _lone_row_form(identifier, d)
        pts = np.random.default_rng(5).standard_normal((1000, d))
        batch = f.evaluate_many(pts)
        alone = np.array([f.evaluate_many(pts[i : i + 1])[0] for i in range(1000)])
        assert np.array_equal(alone.view(np.int64), batch.view(np.int64))
