"""Named functions: evaluation, gradients, and Lipschitz estimation."""

import warnings

import numpy as np
import pytest

from scext import (
    BallRegion,
    EvaluationError,
    InputError,
    declared_domain,
    evaluate,
    evaluate_many,
    gradient,
    lipschitz_estimate,
    named_function,
    sampled_function,
)
from scext.funcspace import _REGISTRY


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


class _NoGradient:
    """Evaluation-only wrapper that forces the finite-difference path."""

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
        assert evaluate(functions["neg-norm"], (0.6, 0.8)) == pytest.approx(-1.0, abs=1e-15)

    def test_neg_abs_x2(self, functions):
        assert evaluate(functions["neg-abs-x2"], (0.5, -0.3)) == -0.3

    def test_neg_sqrt(self, functions):
        assert evaluate(functions["neg-sqrt"], (1.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_affine_and_constant(self, functions):
        assert evaluate(functions["affine"], (0.25, 0.7)) == pytest.approx(0.5, abs=1e-15)
        assert evaluate(functions["constant"], (0.1, 0.2)) == 1.25

    def test_batch_matches_scalar(self, functions):
        pts = np.array([[0.3, 0.1], [0.5, -0.2], [0.9, 0.05]])
        for f in functions.values():
            batch = evaluate_many(f, pts)
            assert np.array_equal(batch, [evaluate(f, p) for p in pts])


class TestGradient:
    def test_neg_norm_analytic(self, functions):
        g = gradient(functions["neg-norm"], (0.6, 0.8))
        assert np.allclose(g, (-0.6, -0.8), atol=1e-15)

    def test_neg_abs_x2_signs(self, functions):
        assert np.allclose(gradient(functions["neg-abs-x2"], (0.5, 0.2)), (0.0, -1.0))
        assert np.allclose(gradient(functions["neg-abs-x2"], (0.5, -0.2)), (0.0, 1.0))

    def test_central_difference_matches_analytic(self, functions):
        shim = _NoGradient(functions["sq-norm"])
        g = gradient(shim, (0.3, 0.4), h_fd=1e-4)
        assert np.allclose(g, (0.6, 0.8), atol=1e-8)

    @pytest.mark.parametrize("identifier", sorted(_REGISTRY))
    def test_nan_rows_exactly_on_the_singular_set(self, identifier):
        func = named_function(identifier, dimension=2)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(1_000, 2))
        pts[:6] = [
            [0.0, 0.0], [0.5, 0.0], [-0.25, 0.0], [0.0, 0.3], [0.0, -1.0], [1e-3, 0.0],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grads = func.gradient_many(pts)
        singular = _SINGULAR_SET[identifier](pts)
        assert np.array_equal(np.isnan(grads).all(axis=1), singular)
        assert np.isfinite(grads[~singular]).all()

    def test_gradient_undefined_on_crease(self, functions):
        with pytest.raises(EvaluationError):
            gradient(functions["neg-abs-x2"], (0.5, 0.0))

    def test_analytic_agrees_with_central_differences(self, functions):
        # smooth probes: away from the origin and from the x2 = 0 crease
        rng = np.random.default_rng(31)
        r = rng.uniform(0.3, 0.9, 100)
        phi = rng.uniform(0.1, np.pi / 2.0 - 0.1, 100)
        sign = rng.choice([-1.0, 1.0], 100)
        pts = np.column_stack([r * np.cos(phi), sign * r * np.sin(phi)])
        h_fd = 1e-4
        for name in ("neg-norm", "neg-abs-x2", "neg-sqrt", "affine", "sq-norm"):
            f = functions[name]
            shim = _NoGradient(f)
            for p in pts:
                exact = gradient(f, p)
                approx = gradient(shim, p, h_fd=h_fd)
                assert np.allclose(exact, approx, atol=1e-5), (name, p)


class TestLipschitz:
    def test_neg_norm_estimate_near_one(self, functions, half_disk, unit_ball):
        v = lipschitz_estimate(functions["neg-norm"], half_disk, unit_ball, 10_000, seed=3)
        assert 0.95 <= v <= 1.0

    def test_affine_estimate_near_gradient_norm(self, functions, half_disk, unit_ball):
        v = lipschitz_estimate(functions["affine"], half_disk, unit_ball, 10_000, seed=3)
        assert 1.9 <= v <= 2.0

    def test_constant_estimate_zero(self, functions, half_disk, unit_ball):
        assert lipschitz_estimate(functions["constant"], half_disk, unit_ball, 1000, seed=3) == 0.0

    def test_monotone_in_pair_count(self, functions, half_disk, unit_ball):
        vals = [
            lipschitz_estimate(functions["neg-sqrt"], half_disk, unit_ball, n, seed=11)
            for n in (50, 200, 1000, 5000)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_counts(self, functions, half_disk, unit_ball):
        with pytest.raises(InputError):
            lipschitz_estimate(functions["neg-norm"], half_disk, unit_ball, 0, seed=3)


class TestSampledGrid:
    def test_interpolation_reproduces_linear_data(self):
        axes = [np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11)]
        g1, g2 = np.meshgrid(*axes, indexing="ij")
        values = 2.0 * g1 - 0.5 * g2 + 0.25
        f = sampled_function(axes, values)
        pts = np.array([[0.13, 0.77], [0.5, 0.5], [0.99, 0.01]])
        want = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 0.25
        assert np.allclose(f.evaluate_many(pts), want, atol=1e-12)

    def test_declared_domain_present(self, functions, half_disk):
        assert declared_domain(functions["neg-norm"]) is half_disk
        assert declared_domain(object()) is None
