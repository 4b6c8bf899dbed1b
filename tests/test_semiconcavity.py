"""Defect arithmetic, constant estimation, and certification."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scext import (
    BallRegion,
    ModulusParams,
    SemiconcavityTriple,
    box,
    certify,
    disk,
    estimate_constant,
    named_function,
)
from scext.semiconcavity import _defect_batch

# hand arithmetic for u = -|x|, x = (0.6, 0), y = (0, 0.6), lambda = 1/2:
#   lhs = -0.3 - 0.3 - (-|(0.3, 0.3)|) = -0.6 + 0.3*sqrt(2)
NEG_NORM_DEFECT = -0.6 + 0.3 * math.sqrt(2.0)  # = -0.17573593128807147


def defect(func, t: SemiconcavityTriple, params: ModulusParams) -> float:
    """The defect of one triple, by the batch path ``certify`` runs."""
    return float(_defect_batch(func, t.x[None], t.y[None], np.array([t.lam]), params)[0])


@pytest.fixture(scope="module")
def full_disk():
    return disk((0.0, 0.0), 1.0)


@pytest.fixture(scope="module")
def disk_ball():
    return BallRegion((0.0, 0.0), 1.0)


@pytest.fixture(scope="module")
def sq_norm(full_disk):
    return named_function("sq-norm", dimension=2, domain=full_disk)


@pytest.fixture(scope="module")
def neg_sq_norm(full_disk):
    return named_function("neg-sq-norm", dimension=2, domain=full_disk)


class TestDefect:
    def test_neg_norm_hand_value(self, ex1):
        t = SemiconcavityTriple(x=(0.6, 0.0), y=(0.0, 0.6), lam=0.5)
        d = defect(ex1["func"], t, ModulusParams(alpha=1.0, C=0.0))
        assert d == pytest.approx(NEG_NORM_DEFECT, abs=1e-15)
        assert d == pytest.approx(-0.17573593128807147, abs=1e-15)

    def test_endpoints_vanish_exactly(self, ex1):
        params = ModulusParams(alpha=1.0, C=3.7)
        for lam in (0.0, 1.0):
            t = SemiconcavityTriple(x=(0.6, 0.0), y=(0.0, 0.6), lam=lam)
            assert defect(ex1["func"], t, params) == 0.0

    def test_squared_norm_identity_1d(self):
        dom = box(center=(0.5,), half_widths=(0.5,))
        f = named_function(
            "quadratic", dimension=1, domain=dom, params={"a": 1.0, "b": [0.0], "c": 0.0}
        )
        t = SemiconcavityTriple(x=(0.0,), y=(1.0,), lam=0.5)
        assert defect(f, t, ModulusParams(alpha=1.0, C=1.0)) == 0.0


class TestEstimateConstant:
    def test_squared_norm_is_one(self, sq_norm, full_disk, disk_ball):
        v = estimate_constant(sq_norm, full_disk, disk_ball, 1.0, 10_000, seed=3)
        assert 0.95 <= v <= 1.0 + 1e-9

    def test_negated_squared_norm_is_minus_one(self, neg_sq_norm, full_disk, disk_ball):
        v = estimate_constant(neg_sq_norm, full_disk, disk_ball, 1.0, 10_000, seed=3)
        assert -1.0 - 1e-9 <= v <= -0.95

    def test_affine_ratios_vanish(self, full_disk, disk_ball):
        f = named_function(
            "affine", dimension=2, domain=full_disk, params={"p": [0.4, -1.1], "b": 0.3}
        )
        v = estimate_constant(f, full_disk, disk_ball, 1.0, 5000, seed=5)
        assert abs(v) <= 1e-9


class TestCertify:
    def test_concave_function_passes_with_zero(self, ex1, half_disk, unit_ball):
        cert = certify(
            ex1["func"], half_disk, unit_ball,
            ModulusParams(alpha=1.0, C=0.0), 10_000, seed=2,
        )
        assert cert.passed
        assert cert.max_defect <= 0.0
        assert cert.witnesses == []

    def test_underestimated_constant_fails_with_witnesses(self, sq_norm, full_disk, disk_ball):
        cert = certify(
            sq_norm, full_disk, disk_ball, ModulusParams(alpha=1.0, C=0.5), 10_000, seed=2
        )
        assert not cert.passed
        assert cert.max_defect > 0.0
        assert len(cert.witnesses) > 0
        # pass <=> max_defect <= 0 <=> witnesses empty
        assert cert.max_defect == max(d for _, d in cert.witnesses)

    def test_fractional_alpha_concave_passes(self, ex2, half_disk, unit_ball):
        cert = certify(
            ex2["func"], half_disk, unit_ball,
            ModulusParams(alpha=0.5, C=0.0), 10_000, seed=2,
        )
        assert cert.passed

    def test_estimated_constant_certifies_on_fresh_seed(self, sq_norm, full_disk, disk_ball):
        est = estimate_constant(sq_norm, full_disk, disk_ball, 1.0, 5000, seed=21)
        cert = certify(
            sq_norm, full_disk, disk_ball,
            ModulusParams(alpha=1.0, C=est + 0.01), 5000, seed=22,
        )
        assert cert.passed

    def test_certificate_serializes(self, ex1, half_disk, unit_ball):
        cert = certify(
            ex1["func"], half_disk, unit_ball, ModulusParams(1.0, 0.0), 100, seed=1
        )
        payload = cert.to_dict()
        assert payload["n_triples"] == 100
        assert payload["seed"] == 1
        assert payload["passed"] is True


# -- properties ----------------------------------------------------------------

_coord = st.floats(-0.6, 0.6)
_lam = st.floats(0.0, 1.0)


@given(x1=_coord, x2=_coord, y1=_coord, y2=_coord, lam=_lam)
def test_defect_symmetric_under_triple_swap(sq_norm, x1, x2, y1, y2, lam):
    params = ModulusParams(alpha=1.0, C=0.7)
    d1 = defect(sq_norm, SemiconcavityTriple((x1, x2), (y1, y2), lam), params)
    d2 = defect(sq_norm, SemiconcavityTriple((y1, y2), (x1, x2), 1.0 - lam), params)
    assert d1 == pytest.approx(d2, abs=1e-12)


@given(x1=_coord, x2=_coord, y1=_coord, y2=_coord)
def test_defect_zero_at_lambda_endpoints(sq_norm, x1, x2, y1, y2):
    params = ModulusParams(alpha=0.5, C=-2.0)
    for lam in (0.0, 1.0):
        t = SemiconcavityTriple((x1, x2), (y1, y2), lam)
        assert defect(sq_norm, t, params) == 0.0


@given(x1=_coord, x2=_coord, y1=_coord, y2=_coord, lam=st.floats(0.01, 0.99))
def test_defect_affine_and_decreasing_in_constant(sq_norm, x1, x2, y1, y2, lam):
    x, y = np.array([x1, x2]), np.array([y1, y2])
    t = SemiconcavityTriple(x, y, lam)
    d0 = defect(sq_norm, t, ModulusParams(alpha=1.0, C=0.0))
    d1 = defect(sq_norm, t, ModulusParams(alpha=1.0, C=1.5))
    predicted_drop = 1.5 * lam * (1.0 - lam) * float(np.linalg.norm(x - y)) ** 2
    assert d1 - d0 == pytest.approx(-predicted_drop, abs=1e-12)
    if predicted_drop > 1e-9:
        assert d1 < d0
