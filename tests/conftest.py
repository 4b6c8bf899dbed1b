"""Shared fixtures: the three half-disk examples and their envelope fields.

The builds are session-scoped because the support sets are reused by the
extension, gradient, singularity, and acceptance tests.  Build wall time is
recorded so the envelope-oracle test can bound end-to-end runtime.  Also the
kernel-gradient Holder ratio, the reference the bound tests compare against.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from scext import (
    BallRegion,
    InputError,
    ModulusParams,
    build_extension,
    build_support_set,
    capped_disk,
    disk,
    named_function,
    reachable_gradients,
)
from scext.gradients import _row_norms

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

# the sets the gradient estimators are expected to recover at the origin
EX1_SET = "left-unit-arc"
EX2_SET = "vertical-unit-pair"
EX3_SET = "vertical-unit-segment"

# annulus-probe knobs shared by the gradient-set fixtures
PROBE = dict(r0=0.02, k_max=8, m_a=200, eps_c=0.02)

# finite values of every scale, subnormals, and the non-finite specials
COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1e-160, max_value=1e-160),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan]),
)


@pytest.fixture(scope="session")
def half_disk():
    return capped_disk(center=(0.0, 0.0), radius=1.0, normal=(1.0, 0.0), offset=0.0)


@pytest.fixture(scope="session")
def unit_ball():
    return BallRegion((0.0, 0.0), 1.0)


def _bundle(identifier: str, spacing: float, domain, ball) -> dict:
    func = named_function(identifier, dimension=2, domain=domain)
    params = ModulusParams(alpha=1.0, C=0.0)  # all three examples are concave
    t0 = time.perf_counter()
    support = build_support_set(func, domain, ball, spacing=spacing)
    field = build_extension(func, domain, support, params, coefficient=1.0)
    build_seconds = time.perf_counter() - t0
    return {
        "func": func,
        "params": params,
        "support": support,
        "field": field,
        "build_seconds": build_seconds,
    }


@pytest.fixture(scope="session")
def ex1(half_disk, unit_ball):
    return _bundle("neg-norm", 0.01, half_disk, unit_ball)


@pytest.fixture(scope="session")
def ex2(half_disk, unit_ball):
    return _bundle("neg-abs-x2", 0.02, half_disk, unit_ball)


@pytest.fixture(scope="session")
def ex3(half_disk, unit_ball):
    return _bundle("neg-sqrt-x1p4-x2sq", 0.02, half_disk, unit_ball)


def _origin_set(func, domain):
    return reachable_gradients(func, domain, (0.0, 0.0), **PROBE)


@pytest.fixture(scope="session")
def ex1_u_set(ex1, half_disk):
    return _origin_set(ex1["func"], half_disk)


@pytest.fixture(scope="session")
def ex2_u_set(ex2, half_disk):
    return _origin_set(ex2["func"], half_disk)


@pytest.fixture(scope="session")
def ex3_u_set(ex3, half_disk):
    return _origin_set(ex3["func"], half_disk)


@pytest.fixture(scope="session")
def ball_domain():
    return disk((0.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def ex1_env_set(ex1, ball_domain):
    return _origin_set(ex1["field"], ball_domain)


@pytest.fixture(scope="session")
def ex2_env_set(ex2, ball_domain):
    return _origin_set(ex2["field"], ball_domain)


@pytest.fixture(scope="session")
def ex3_env_set(ex3, ball_domain):
    return _origin_set(ex3["field"], ball_domain)


def ball_points(n: int, seed: int, radius: float = 1.0) -> np.ndarray:
    """Uniform points of the closed disk, deterministic for a seed."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def holder_ratio(
    y, x, z, params: ModulusParams, coefficient: float
) -> float | np.ndarray:
    """|Dv_y(x) - Dv_y(z)| / |x-z|^alpha for the kernel v_y = coeff*|w-y|^(1+a).

    Dv_y(w) = coeff*(1+a)*|w-y|^(a-1)*(w-y), with Dv_y(y) = 0.  The ratio is
    bounded by coeff*(1+a)*(1+2^(2-a)) for every admissible triple.  Takes one
    triple of points and returns a float, or (n, d) arrays of n triples and
    returns n ratios, each bit for bit the one its triple gives alone.
    """
    single = np.ndim(x) < 2
    y, x, z = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (y, x, z))
    gap = _row_norms(x - z)
    if np.any(gap == 0.0):
        raise InputError("holder_ratio requires x != z")
    a = params.alpha
    ratio = (_row_norms(_kernel_grad(x, y, a) - _kernel_grad(z, y, a))
             * coefficient / _pow(gap, a))
    return float(ratio[0]) if single else ratio


def _pow(base: np.ndarray, e: float) -> np.ndarray:
    """base**e through the C library's pow, element by element: numpy's
    vectorised power rounds differently on some CPUs."""
    return np.array([b**e for b in base.tolist()])


def _kernel_grad(w: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """(1+alpha)|w-y|^(alpha-1)(w-y) per row, with the removable singularity
    at w=y."""
    r = w - y
    if alpha == 1.0:
        return 2.0 * r
    n = _row_norms(r)
    out = np.zeros_like(r)
    nz = n != 0.0
    out[nz] = ((1.0 + alpha) * _pow(n[nz], alpha - 1.0))[:, None] * r[nz]
    return out
