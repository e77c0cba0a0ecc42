"""Centered Gram matrices, spectral norms, exact trace powers."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg

from .errors import ContractError, NumericalError, ParameterError
from .profiles import VarianceProfile
from .samplers import NoiseModel, expected_gram

__all__ = ["DENSE_CUTOFF", "centered_gram", "spectral_norm", "trace_power"]

DENSE_CUTOFF = 64  # dense eigendecomposition below this size, Lanczos above


def centered_gram(Z: np.ndarray, profile: VarianceProfile, model: NoiseModel) -> np.ndarray:
    """A = ZZ' - E ZZ', explicitly symmetrized."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != profile.shape:
        raise ParameterError(f"Z shape {Z.shape} does not match profile shape {profile.shape}")
    A = Z @ Z.T - expected_gram(profile, model)
    return (A + A.T) / 2.0


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.abs(A).max()) if A.size else 0.0
    if scale > 0.0:
        asym = float(np.abs(A - A.T).max())
        if asym > 1e-9 * scale:
            raise ContractError(f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}")
    return (A + A.T) / 2.0


def _lanczos_extreme(S: np.ndarray, tol: float) -> tuple[float, float]:
    """(largest algebraic eigenvalue, residual) via ARPACK with a fixed start vector."""
    n = S.shape[0]
    v0 = np.full(n, 1.0 / np.sqrt(n))
    vals, vecs = scipy.sparse.linalg.eigsh(S, k=1, which="LA", v0=v0, tol=tol)
    lam = float(vals[0])
    vec = vecs[:, 0]
    residual = float(np.linalg.norm(S @ vec - lam * vec))
    return lam, residual


def spectral_norm(A: np.ndarray, tol: float = 1e-8) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Dense eigendecomposition up to DENSE_CUTOFF; above that, Lanczos on both
    A and -A with the residual certified to tol * estimate (dense fallback if
    certification fails).  Input asymmetric beyond 1e-9 relative is rejected.
    """
    if not 0.0 < tol <= 1e-2:
        raise ParameterError("tol must lie in (0, 1e-2]")
    S = _check_symmetric(A)
    n = S.shape[0]
    if n == 0:
        return 0.0
    if n <= DENSE_CUTOFF:
        return float(np.abs(np.linalg.eigvalsh(S)).max())
    if float(np.abs(S).max()) == 0.0:
        return 0.0
    try:
        top, r_top = _lanczos_extreme(S, tol)
        bottom, r_bottom = _lanczos_extreme(-S, tol)
        estimate = max(abs(top), abs(bottom))
        if estimate > 0.0 and max(r_top, r_bottom) <= tol * estimate:
            return estimate
    except scipy.sparse.linalg.ArpackError:
        pass
    # certification failed; the dense route is exact up to machine precision
    try:
        return float(np.abs(np.linalg.eigvalsh(S)).max())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def trace_power(A: np.ndarray, q: int) -> float:
    """Exact tr(A^q) for symmetric A by q - 1 matrix products."""
    if q < 1:
        raise ParameterError("q must be >= 1")
    S = _check_symmetric(A)
    P = S
    for _ in range(q - 1):
        P = P @ S
    return float(np.trace(P))
