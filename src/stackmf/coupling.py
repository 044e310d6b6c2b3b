"""Explicit couplings between finite mixtures and the convexity bound they
certify.

Given two mixtures sharing components but with different component weights p
and q, an explicit feasible coupling pihat keeps as much mass as possible on
the diagonal (min(p_h, q_h)) and routes the excess proportionally.  Its cost
against any pairwise distance matrix upper-bounds the mixture W2^2.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionError, ValidationError
from .measures import DiscreteMeasure, mixture, w2_exact_lp

_PROB_TOL = 1e-10
_EXACT_TOL = 1e-12


def _check_prob_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size < 1:
        raise ValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValidationError(f"{name} must be a nonnegative finite vector")
    if abs(float(v.sum()) - 1.0) > _PROB_TOL:
        raise ValidationError(f"{name} sums to {v.sum()!r}, not 1")
    return v


@dataclasses.dataclass(frozen=True)
class MixtureCoupling:
    """Coupling matrix between component-weight vectors p and q."""

    p: np.ndarray
    q: np.ndarray
    pihat: np.ndarray

    def __post_init__(self):
        p = _check_prob_vector(self.p, "p")
        q = _check_prob_vector(self.q, "q")
        if p.size != q.size:
            raise DimensionError(f"length mismatch {p.size} vs {q.size}")
        m = np.asarray(self.pihat, dtype=float)
        if m.shape != (p.size, p.size):
            raise DimensionError(f"pihat shape {m.shape}")
        if np.any(m < -_EXACT_TOL):
            raise ValidationError("negative coupling entry")
        if np.abs(m.sum(axis=1) - p).max() > _EXACT_TOL:
            raise ValidationError("row sums do not match p")
        if np.abs(m.sum(axis=0) - q).max() > _EXACT_TOL:
            raise ValidationError("column sums do not match q")
        diag = np.diag(m)
        if np.abs(diag - np.minimum(p, q)).max() > _EXACT_TOL:
            raise ValidationError("diagonal is not min(p, q)")
        if abs(diag.sum() - (1.0 - tv_half(p, q))) > _EXACT_TOL:
            raise ValidationError("diagonal mass does not match 1 - tv_half")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pihat", m)


def tv_half(p, q) -> float:
    """Half total-variation distance (1/2) sum |p_h - q_h|."""
    p = _check_prob_vector(p, "p")
    q = _check_prob_vector(q, "q")
    if p.size != q.size:
        raise DimensionError(f"length mismatch {p.size} vs {q.size}")
    return float(0.5 * np.abs(p - q).sum())


def build_pihat(p, q) -> MixtureCoupling:
    """Explicit coupling with diagonal min(p, q).

    With A = {h : p_h <= q_h} (ties included), the excess mass of rows in the
    complement of A is spread over columns in A proportionally to their
    deficits: pihat_hl = (p_h - q_h)(q_l - p_l) / sum_{k not in A}(p_k - q_k).
    When p = q the complement is empty and the matrix is diagonal.
    """
    p = _check_prob_vector(p, "p")
    q = _check_prob_vector(q, "q")
    if p.size != q.size:
        raise DimensionError(f"length mismatch {p.size} vs {q.size}")
    n = p.size
    pihat = np.diag(np.minimum(p, q))
    in_A = p <= q
    excess = ~in_A
    denom = float(np.sum(p[excess] - q[excess]))
    if denom > 0.0:
        rows = np.where(excess)[0]
        cols = np.where(in_A)[0]
        block = np.outer(p[rows] - q[rows], q[cols] - p[cols]) / denom
        pihat[np.ix_(rows, cols)] = block
    return MixtureCoupling(p, q, pihat)


def mixture_w2_upper_bound(coupling: MixtureCoupling,
                           pairwise_w2sq: np.ndarray) -> float:
    """Upper bound sum_hl pihat_hl * W2^2(mu_h, nu_l) on the mixture W2^2."""
    d = np.asarray(pairwise_w2sq, dtype=float)
    n = coupling.p.size
    if d.shape != (n, n):
        raise DimensionError(f"distance matrix shape {d.shape}, expected {(n, n)}")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValidationError("pairwise W2^2 matrix must be nonnegative finite")
    if np.abs(d - d.T).max() > 1e-9:
        raise ValidationError("pairwise W2^2 matrix must be symmetric")
    if np.abs(np.diag(d)).max() > 1e-9:
        raise ValidationError("pairwise W2^2 matrix must have zero diagonal")
    return float(np.sum(coupling.pihat * d))


def verify_mixture_convexity(mus, nus, lambdas):
    """Return (lhs, rhs) of the mixture convexity inequality.

    lhs = W2^2 between the two lambda-mixtures (exact LP); rhs is the
    lambda-average of componentwise W2^2.  Callers assert lhs <= rhs + 1e-9.
    Supports, mixtures included, are capped at ``w2_exact_lp``'s 512 points.
    """
    mus = list(mus)
    nus = list(nus)
    if len(mus) != len(nus):
        raise ValidationError("component lists must have equal length")
    lams = np.asarray(lambdas, dtype=float).ravel()
    mix_mu = mixture(mus, lams)
    mix_nu = mixture(nus, lams)
    lhs = w2_exact_lp(mix_mu, mix_nu)[0] ** 2
    rhs = float(sum(lam * w2_exact_lp(m, n)[0] ** 2
                    for lam, m, n in zip(lams, mus, nus)))
    return lhs, rhs


def dirac_mixture_measures(points_by_component: np.ndarray, p, q):
    """Pair of mixtures of Diracs at shared component locations.

    Convenience builder used when comparing the pihat bound against the exact
    LP: component h of both mixtures is the Dirac at row h.
    """
    pts = np.atleast_2d(np.asarray(points_by_component, dtype=float))
    comps = [DiscreteMeasure(pts[h:h + 1], np.ones(1)) for h in range(pts.shape[0])]
    return mixture(comps, p), mixture(comps, q)
