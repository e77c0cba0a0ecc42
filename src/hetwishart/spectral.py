"""Centered Gram matrices and operators, spectral norms, the certified Lanczos
eigenpair that spectral norms and clustering share, exact trace powers."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericalError, ParameterError
from .profiles import VarianceProfile
from .samplers import NoiseModel, entry_variances

__all__ = ["DENSE_CUTOFF", "centered_gram", "centered_operator", "spectral_norm", "trace_power"]

# Dense eigvalsh up to this many rows, one Lanczos solve above.  Measured per
# replicate of spectral_norm(centered_operator(Z)), Gaussian Z, the two routes
# interleaved, 2 CPUs, OpenBLAS thread variables unset.  Medians, dense vs
# Lanczos: p1 x p1 at 100: 0.61 vs 0.88 ms, 128: 1.06 vs 1.16, 160: 1.35 vs
# 1.22, 256: 3.8 vs 2.2; p1 x 20 crosses near 128 and p1 x 400 near 192.
DENSE_CUTOFF = 128


class _CenteredOperator:
    """v -> Z(Z'v) - d*v: O(p1 p2) time per product and no p1 x p1 array.
    ``eigsh`` takes it as is: ``aslinearoperator`` asks only shape and matvec."""

    dtype = np.dtype(np.float64)

    def __init__(self, Z: np.ndarray, d: np.ndarray):
        self.shape = (Z.shape[0], Z.shape[0])
        self.Z = Z
        self.d = d

    def matvec(self, X: np.ndarray) -> np.ndarray:
        d = self.d if X.ndim == 1 else self.d[:, None]
        return self.Z @ (self.Z.T @ X) - d * X

    __matmul__ = matmat = matvec

    def toarray(self) -> np.ndarray:
        """The p1 x p1 matrix, explicitly symmetrized."""
        A = self.Z @ self.Z.T
        A[np.diag_indices_from(A)] -= self.d
        return (A + A.T) / 2.0


def centered_operator(
    Z: np.ndarray, profile: VarianceProfile, model: NoiseModel
) -> _CenteredOperator:
    """ZZ' - E ZZ' as a plain symmetric operator (``shape``, ``@``, ``matvec``,
    ``toarray``), never formed: the same matrix as ``centered_gram`` in
    O(p1 p2) memory.  E ZZ' = diag(d), d the row sums of the entry variances."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != profile.shape:
        raise ParameterError(f"Z shape {Z.shape} does not match profile shape {profile.shape}")
    return _CenteredOperator(Z, entry_variances(profile, model).sum(axis=1))


def centered_gram(Z: np.ndarray, profile: VarianceProfile, model: NoiseModel) -> np.ndarray:
    """A = ZZ' - E ZZ', explicitly symmetrized."""
    return centered_operator(Z, profile, model).toarray()


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


def _certified_lanczos_pair(
    op: np.ndarray | _CenteredOperator, tol: float
) -> tuple[float, np.ndarray] | None:
    """The eigenpair (lam, v) of largest |lam| from one Lanczos solve (``eigsh``,
    k=1, which="LM", start vector 1/sqrt(n)) on the symmetric op, or None when
    ARPACK fails or the residual certificate ||op v - lam v|| <= tol |lam|,
    lam != 0, does not hold.  Callers fall back to a dense solver on None.
    The package's one scipy import: scipy loads on the first solve only."""
    import scipy.sparse.linalg

    n = op.shape[0]
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(op, k=1, which="LM", v0=v0, tol=tol)
    except scipy.sparse.linalg.ArpackError:
        return None
    lam, vec = float(vals[0]), vecs[:, 0]
    if lam != 0.0 and np.linalg.norm(op @ vec - lam * vec) <= tol * abs(lam):
        return lam, vec
    return None


def spectral_norm(A: np.ndarray | _CenteredOperator, tol: float = 1e-8) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    A is a symmetric ndarray (asymmetry beyond 1e-9 relative is rejected) or
    the operator ``centered_operator`` returns.  Up to DENSE_CUTOFF rows the
    value is the dense ``eigvalsh`` one, and an operator is formed once for
    it.  Above the cutoff one Lanczos solve (``eigsh``, k=1, which="LM",
    fixed start vector) runs on A itself, and its eigenpair (lam, v) is
    returned only under the residual certificate ||Av - lam v|| <= tol |lam|.
    If ARPACK fails or the certificate does not hold, the dense value is
    returned instead; that fallback is the only place an operator is formed
    above the cutoff.  Only that Lanczos solve loads scipy.
    """
    if not 0.0 < tol <= 1e-2:
        raise ParameterError("tol must lie in (0, 1e-2]")
    matrix_free = isinstance(A, _CenteredOperator)
    op = A if matrix_free else _check_symmetric(A)
    n = op.shape[0]
    if n == 0:
        return 0.0
    if n > DENSE_CUTOFF:
        pair = _certified_lanczos_pair(op, tol)
        if pair is not None:
            return abs(pair[0])
    # small, or not certified: the dense route is exact up to machine precision
    try:
        return float(np.abs(np.linalg.eigvalsh(op.toarray() if matrix_free else op)).max())
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
