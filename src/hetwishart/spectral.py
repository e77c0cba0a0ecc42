"""Centered Gram matrices and operators, spectral norms, exact trace powers,
and the one extreme-eigenpair route that spectral norms and clustering share."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os

import numpy as np

from .errors import ContractError, NumericalError, ParameterError
from .profiles import VarianceProfile, _integer
from .samplers import NoiseModel

__all__ = ["DENSE_CUTOFF", "centered_operator", "spectral_norm", "trace_power"]

# A dense solve up to this many rows, one Lanczos solve above; only
# _extreme_eigenpair reads it; the dense norm solve is _eigvalsh, which says
# how it runs.  Measured per replicate on centered_operator(Z) (dense: toarray
# and np.linalg.eigvalsh), Gaussian Z, the two routes interleaved, on one
# OpenBLAS thread as Monte Carlo replicates run, 2-CPU x86_64.  Medians of
# 60, two runs, dense vs Lanczos: p1 x p1 at 100: 0.55-0.69 vs 0.97-1.27 ms,
# 128: 0.87-1.03 vs 1.28-1.65, 160: 1.19-1.65 vs 1.25-1.98, 192: 2.27-2.42
# vs 2.25-2.31, 256: 3.2-3.6 vs 2.3-2.4; p1 x 20 crosses between 96 (0.40 vs
# 0.61) and 128 (0.50 vs 0.40), p1 x 400 between 224 (3.55 vs 3.9-4.2) and
# 256 (3.6-3.7 vs 2.8-3.0).  The value stays 128: moving it changes norms.
DENSE_CUTOFF = 128

# Lanczos basis vectors kept before an explicit restart, and restarts allowed.
_LANCZOS_BASIS = 128
_LANCZOS_RESTARTS = 8
# The Ritz estimate needs an eigh of the j x j tridiagonal T, whose cost grows
# as j^3 (0.18 ms at j = 40, 1.7 ms at 128); every step would cost more than
# the steps themselves, so it is taken every _RITZ_CHECK steps.
_RITZ_CHECK = 5
# Residual tolerance of spectral_norm's Lanczos certificate.
_NORM_TOL = 1e-8
_EPS = float(np.finfo(np.float64).eps)


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles, the ``libscipy_openblas64_*.so`` under
    numpy's ``numpy.libs`` directory, as a ``ctypes.CDLL`` with the entry
    points the package calls typed (thread count get/set, ``dsyevd``), or
    None when there is no such library.  Loaded on first use, not at import."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = min(
            name for name in os.listdir(libs)
            if name.startswith("libscipy_openblas64_") and name.endswith(".so")
        )
        lib = ctypes.CDLL(os.path.join(libs, name))
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
        dsyevd = lib.scipy_dsyevd_64_
    except (OSError, ValueError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the
    # hidden Fortran lengths of jobz and uplo; integers are 64-bit (ILP64)
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    dsyevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, ptr, i64, ptr, ptr, i64,
                       ptr, i64, i64, ctypes.c_size_t, ctypes.c_size_t]
    dsyevd.restype = None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, and restore the count it had
    on entry afterwards; without a bundled OpenBLAS (``_openblas``), pin
    nothing.  The count is process-wide, so runs on concurrent threads share
    one pin."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _dsyevd(n: int, a: np.ndarray, w: np.ndarray, work: np.ndarray, iwork: np.ndarray,
            query: bool = False) -> int:
    """One dsyevd call, jobz N and uplo L, on the Fortran-ordered order-n
    matrix in a (overwritten), eigenvalues into w; returns LAPACK's info.
    The size ``query`` writes lwork and liwork into work[0] and iwork[0]."""
    lwork, liwork = (-1, -1) if query else (work.size, iwork.size)
    info = ctypes.c_int64(0)
    _openblas().scipy_dsyevd_64_(
        b"N", b"L", ctypes.c_int64(n), a.ctypes.data, ctypes.c_int64(max(n, 1)), w.ctypes.data,
        work.ctypes.data, ctypes.c_int64(lwork), iwork.ctypes.data, ctypes.c_int64(liwork),
        info, 1, 1,
    )
    return info.value


@functools.cache
def _dsyevd_workspace(n: int) -> tuple[int, int]:
    """(lwork, liwork) from dsyevd's size query at order n, the workspace
    numpy's gufunc asks for before each call; the block size of the
    tridiagonal reduction, and so the bits, follow from it."""
    work, iwork = np.zeros(1), np.zeros(1, dtype=np.int64)
    _dsyevd(n, np.zeros(1), np.zeros(1), work, iwork, query=True)
    return int(work[0]), int(iwork[0])


def _eigvalsh(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real square A from its lower triangle,
    bitwise those of ``np.linalg.eigvalsh(A)``: the same LAPACK dsyevd (jobz N,
    uplo L, the workspace of its size query) on a Fortran-ordered copy, as
    numpy's gufunc makes it, but called through ctypes, which releases the
    GIL, so replicates on a thread pool overlap their solves.  Without the
    bundled OpenBLAS (``_openblas``) it is ``np.linalg.eigvalsh``.  A nonzero
    info raises ``LinAlgError``, as numpy does."""
    if _openblas() is None:
        return np.linalg.eigvalsh(A)
    a = np.array(A, dtype=float, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    lwork, liwork = _dsyevd_workspace(n)
    w = np.empty(n)
    info = _dsyevd(n, a, w, np.empty(lwork), np.empty(liwork, dtype=np.int64))
    if info:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (dsyevd info {info})")
    return w


class _CenteredOperator:
    """v -> Z(Z'v) - d*v: O(p1 p2) time per product and no p1 x p1 array.
    The Lanczos solve asks only ``shape`` and ``@``; the dense route ``toarray``."""

    def __init__(self, Z: np.ndarray, d: np.ndarray):
        self.shape = (Z.shape[0], Z.shape[0])
        self.Z = Z
        self.d = d

    def matvec(self, X: np.ndarray) -> np.ndarray:
        d = self.d if X.ndim == 1 else self.d[:, None]
        return self.Z @ (self.Z.T @ X) - d * X

    __matmul__ = matvec

    def toarray(self) -> np.ndarray:
        """The p1 x p1 matrix, bitwise symmetric with no symmetrizing pass:
        for a C- or Fortran-ordered Z numpy forms Z @ Z.T as a symmetric
        product (one triangle, mirrored), so any other Z is copied to C order
        first, and only the diagonal changes afterwards, through a strided
        view of the new C-ordered product."""
        Z = self.Z
        if not (Z.flags.c_contiguous or Z.flags.f_contiguous):
            Z = np.ascontiguousarray(Z)
        A = Z @ Z.T
        A.ravel()[:: A.shape[0] + 1] -= self.d
        return A


def centered_operator(
    Z: np.ndarray, profile: VarianceProfile, model: NoiseModel
) -> _CenteredOperator:
    """ZZ' - E ZZ' as a plain symmetric operator (``shape``, ``@``, ``matvec``,
    ``toarray``) in O(p1 p2) memory; ``toarray`` forms the bitwise symmetric
    p1 x p1 matrix.  E ZZ' = diag(d), d the row sums of the entry variances."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != profile.shape:
        raise ParameterError(f"Z shape {Z.shape} does not match profile shape {profile.shape}")
    model.check(profile)
    return _CenteredOperator(Z, model.variances(profile).sum(axis=1))


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


def _lanczos_run(
    op: np.ndarray | _CenteredOperator, V: np.ndarray, tol: float
) -> tuple[float, np.ndarray, bool]:
    """Lanczos from the unit vector V[0] with full reorthogonalization (two
    classical Gram-Schmidt passes per step), at most len(V) steps; V is
    overwritten with the basis.  Returns the Ritz pair (theta, y) of largest
    |theta| and whether it is final: its Ritz estimate beta_j |s_jk| is at
    most tol |theta|, or the basis spans an invariant subspace (breakdown,
    beta_j at roundoff level, or all n dimensions), where the pair is exact."""
    m, n = V.shape
    T = np.zeros((m, m))
    t_norm = 0.0  # Gershgorin bound on ||T||
    for j in range(m):
        basis = V[: j + 1]
        w = op @ basis[j]
        for _ in range(2):
            h = basis @ w
            w -= h @ basis
            T[j, j] += h[j]
        beta = math.sqrt(w @ w)
        t_norm = max(t_norm, abs(T[j, j]) + beta + (T[j, j - 1] if j else 0.0))
        invariant = beta <= n * _EPS * t_norm or j + 1 == n
        if invariant or j + 1 == m or (j + 1) % _RITZ_CHECK == 0:
            thetas, S = np.linalg.eigh(T[: j + 1, : j + 1])
            k = int(np.argmax(np.abs(thetas)))
            final = invariant or beta * abs(S[j, k]) <= tol * abs(thetas[k])
            if final:
                break
        if j + 1 < m:
            V[j + 1] = w / beta
            T[j, j + 1] = T[j + 1, j] = beta
    return float(thetas[k]), S[:, k] @ basis, final


def _certified_lanczos_pair(
    op: np.ndarray | _CenteredOperator, tol: float
) -> tuple[float, np.ndarray] | None:
    """The eigenpair (lam, v) of largest |lam| of the symmetric op from a
    Lanczos solve (``_lanczos_run``) that starts from 1/sqrt(n), keeps at most
    _LANCZOS_BASIS vectors and restarts from its Ritz vector at most
    _LANCZOS_RESTARTS times.  The pair is returned only under the residual
    certificate ||op v - lam v|| <= tol |lam| with lam != 0; otherwise None,
    and ``_extreme_eigenpair`` falls back to a dense solver.  Memory is
    O(n _LANCZOS_BASIS)."""
    n = op.shape[0]
    V = np.empty((min(n, _LANCZOS_BASIS), n))
    V[0] = 1.0 / np.sqrt(n)
    for _ in range(_LANCZOS_RESTARTS + 1):
        lam, vec, final = _lanczos_run(op, V, tol)
        vec /= np.linalg.norm(vec)
        if final:
            break
        V[0] = vec
    if lam != 0.0 and np.linalg.norm(op @ vec - lam * vec) <= tol * abs(lam):
        return lam, vec
    return None


def _extreme_eigenpair(
    A: np.ndarray | _CenteredOperator, tol: float, vector: bool
) -> tuple[float, np.ndarray | None]:
    """The eigenpair (lam, v) of largest |lam| of the symmetric A: the one
    place that picks a solver for it.  Above DENSE_CUTOFF rows it is the
    certified Lanczos pair (``_certified_lanczos_pair``) of A itself.  At or
    below the cutoff, or when that pair is not certified, A is formed once (an
    operator's ``toarray``) and solved densely: ``np.linalg.eigh`` if
    ``vector``, else ``_eigvalsh``, about twice as fast, with v = None.  Of
    the two ends of the ascending spectrum the larger |lam| wins, and a tie
    goes to the top end.  A failed dense solve raises NumericalError."""
    if A.shape[0] > DENSE_CUTOFF:
        pair = _certified_lanczos_pair(A, tol)
        if pair is not None:
            return pair
    # small, or not certified: the dense route is exact up to machine precision
    dense = A.toarray() if isinstance(A, _CenteredOperator) else A
    try:
        lams, vecs = np.linalg.eigh(dense) if vector else (_eigvalsh(dense), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    k = 0 if -lams[0] > lams[-1] else -1
    return float(lams[k]), None if vecs is None else vecs[:, k]


def spectral_norm(A: np.ndarray | _CenteredOperator) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    A is a symmetric ndarray (asymmetry beyond 1e-9 relative is rejected) or
    the operator ``centered_operator`` returns.  The value is |lam| of
    ``_extreme_eigenpair``: the dense one up to DENSE_CUTOFF rows, above it
    that of one Lanczos solve on A itself, returned only under the residual
    certificate ||Av - lam v|| <= _NORM_TOL |lam| (1e-8), and the dense one
    again when the certificate does not hold.  The dense eigenvalues come
    from ``_eigvalsh``.
    """
    op = A if isinstance(A, _CenteredOperator) else _check_symmetric(A)
    if op.shape[0] == 0:
        return 0.0
    return abs(_extreme_eigenpair(op, _NORM_TOL, vector=False)[0])


def trace_power(A: np.ndarray, q: int) -> float:
    """Exact tr(A^q) for symmetric A by q - 1 matrix products."""
    q = _integer(q, "q", 1)
    S = _check_symmetric(A)
    P = S
    for _ in range(q - 1):
        P = P @ S
    return float(np.trace(P))
