"""Fractional semiconcavity checks: defects, constants, certificates.

For parameters (alpha, C) the inequality under test is

    lam*u(x) + (1-lam)*u(y) - u(lam*x + (1-lam)*y)
        <= C * lam * (1-lam) * |x-y|**(1+alpha)

over segments [x, y] in the closure of the domain and lam in [0, 1].  The
defect is the left side minus the right side; a function satisfies the
inequality on a region exactly when every defect is nonpositive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SamplingError
from .geometry import BallRegion, DomainSpec, sample_closure_points

# Chunk size of the triple sampler; part of the deterministic draw order.
_CHUNK = 4096
# Names the triple draw order, which has not changed; certificates record it.
SAMPLER_VERSION = "triples/pcg64/chunk4096/probe256/v1"

_MIN_GAP = 1e-9  # pairs closer than this are skipped in ratio estimates


@dataclass(frozen=True)
class ModulusParams:
    """Exponent alpha in (0, 1] and constant C (any sign)."""

    alpha: float
    C: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")

    def modulus(self, gap: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return self.C * lam * (1.0 - lam) * gap ** (1.0 + self.alpha)


@dataclass(frozen=True, eq=False)
class SemiconcavityTriple:
    x: np.ndarray
    y: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "lam", float(self.lam))
        if not 0.0 <= self.lam <= 1.0:
            raise InputError(f"lambda must lie in [0, 1], got {self.lam}")

    def to_dict(self) -> dict:
        return {"x": self.x.tolist(), "y": self.y.tolist(), "lambda": self.lam}


@dataclass(eq=False)
class SemiconcavityCertificate:
    function_id: str
    region: BallRegion
    params: ModulusParams
    n_triples: int
    max_defect: float
    witnesses: list[tuple[SemiconcavityTriple, float]]
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_defect <= 0.0

    def to_dict(self) -> dict:
        return {
            "function": self.function_id,
            "region": {"center": self.region.center.tolist(), "radius": self.region.radius},
            "alpha": self.params.alpha,
            "C": self.params.C,
            "n_triples": self.n_triples,
            "max_defect": self.max_defect,
            "passed": self.passed,
            "n_witnesses": len(self.witnesses),
            "witnesses": [
                {**t.to_dict(), "defect": d} for t, d in self.witnesses
            ],
            "seed": self.seed,
            "sampler": SAMPLER_VERSION,
        }


def _defect_batch(func, X, Y, lam, params: ModulusParams) -> np.ndarray:
    mid = lam[:, None] * X + (1.0 - lam[:, None]) * Y
    ux = func.evaluate_many(X)
    uy = func.evaluate_many(Y)
    um = func.evaluate_many(mid)
    gap = np.linalg.norm(X - Y, axis=1)
    return lam * ux + (1.0 - lam) * uy - um - params.modulus(gap, lam)


def _sample_triples(domain: DomainSpec, region: BallRegion, n: int, rng):
    """Draw n triples, each chunk of k as 2k closure points then k lambdas;
    the fixed chunking keeps the draw order, and hence every certificate,
    seed-deterministic.  Every segment [x, y] lies in the closure because
    the closure is convex (geometry module docstring)."""
    xs, ys, ls = [], [], []
    for got in range(0, n, _CHUNK):
        k = min(_CHUNK, n - got)
        pts = sample_closure_points(domain, region, 2 * k, rng)
        xs.append(pts[0::2])
        ys.append(pts[1::2])
        ls.append(rng.uniform(0.0, 1.0, k))
    return np.vstack(xs), np.vstack(ys), np.concatenate(ls)


def estimate_constant(
    func,
    domain: DomainSpec,
    region: BallRegion,
    alpha: float,
    n_triples: int,
    seed: int,
) -> float:
    """Largest sampled ratio defect-numerator / (lam(1-lam)|x-y|^(1+alpha)).

    A lower bound on the minimal constant for this alpha on the region.
    Degenerate triples (lam in {0,1} or |x-y| < 1e-9) are skipped.
    """
    if n_triples < 1:
        raise InputError("n_triples must be at least 1")
    params = ModulusParams(alpha=alpha, C=0.0)
    rng = np.random.default_rng(seed)
    X, Y, lam = _sample_triples(domain, region, n_triples, rng)
    gap = np.linalg.norm(X - Y, axis=1)
    keep = (gap >= _MIN_GAP) & (lam > 0.0) & (lam < 1.0)
    if not np.any(keep):
        raise SamplingError("no nondegenerate triple to estimate the constant from")
    num = _defect_batch(func, X[keep], Y[keep], lam[keep], params)
    den = lam[keep] * (1.0 - lam[keep]) * gap[keep] ** (1.0 + alpha)
    return float(np.max(num / den))


def certify(
    func,
    domain: DomainSpec,
    region: BallRegion,
    params: ModulusParams,
    n_triples: int,
    seed: int,
) -> SemiconcavityCertificate:
    """Test the inequality on sampled triples; positive defects become witnesses."""
    if n_triples < 1:
        raise InputError("n_triples must be at least 1")
    rng = np.random.default_rng(seed)
    X, Y, lam = _sample_triples(domain, region, n_triples, rng)
    defects = _defect_batch(func, X, Y, lam, params)
    bad = np.flatnonzero(defects > 0.0)
    witnesses = [
        (SemiconcavityTriple(X[i], Y[i], lam[i]), float(defects[i])) for i in bad
    ]
    return SemiconcavityCertificate(
        function_id=getattr(func, "identifier", type(func).__name__),
        region=region,
        params=params,
        n_triples=n_triples,
        max_defect=float(np.max(defects)),
        witnesses=witnesses,
        seed=seed,
    )
