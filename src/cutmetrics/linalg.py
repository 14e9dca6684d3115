"""Dense numeric kernel over LAPACK (through ``numpy.linalg``): inversion,
determinant, the Perron pair of an adjacency matrix, and the
rank-one-corrected symmetric pseudoinverse.

The wrappers add what LAPACK leaves to the caller: non-finite and
non-square input is refused, an explicit 1-norm condition estimate guards
every inverse, and eigenpairs and the pseudoinverse are checked against
their contracts.  Every failure is a typed :class:`CutMetricsError`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError
from .types import SpectralData

__all__ = ["invert", "determinant", "spectral_data", "symmetric_pseudoinverse"]

CONDITION_LIMIT = 1e12
EIGEN_RESIDUAL_RTOL = 1e-12
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix has non-finite entries")
    return a


def _as_adjacency(m) -> np.ndarray:
    a = _as_square(m)
    if np.any(a < 0.0) or not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
        raise ParameterError("spectral data requires a symmetric nonnegative matrix")
    if not np.any(a):
        raise ParameterError("zero matrix has no Perron vector")
    return a


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def determinant(m) -> float:
    """Determinant from ``numpy.linalg.slogdet``; 0.0 for exactly singular
    input.  Raises :class:`NumericError` when ``|det|`` overflows a float."""
    sign, log_abs = np.linalg.slogdet(_as_square(m))
    if sign == 0.0:
        return 0.0
    if not log_abs < LOG_FLOAT_MAX:
        raise NumericError(f"determinant overflows a float: ln|det| = {log_abs:.6g}")
    return float(sign * np.exp(log_abs))


def invert(m) -> np.ndarray:
    """Matrix inverse from ``numpy.linalg.inv``.

    Raises :class:`NumericError` when LAPACK finds an exactly singular
    pivot or the 1-norm condition estimate is not below ``CONDITION_LIMIT``.
    """
    a = _as_square(m)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise NumericError("singular matrix: zero pivot during LU factorization") from None
    cond = _norm1(a) * _norm1(inv)
    if not cond <= CONDITION_LIMIT:
        raise NumericError(f"matrix near-singular: condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return inv


def _spectral_radius(a) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix, from
    ``numpy.linalg.eigvalsh``, for callers that need no Perron vector."""
    return float(np.linalg.eigvalsh(_as_adjacency(a))[-1])


def spectral_data(a) -> SpectralData:
    """Spectral radius and Perron vector of a connected nonnegative
    symmetric adjacency matrix, from ``numpy.linalg.eigh``.

    The top eigenvector is sign-fixed and normalized to sum 1.  Raises
    :class:`NumericError` when its eigen-residual exceeds
    ``EIGEN_RESIDUAL_RTOL * rho`` or an entry is not strictly positive: on
    disconnected input, and where the smallest Perron entries lie below
    the eigensolver's precision, about 1e-16 of the largest (long chains
    of blocks).
    """
    mat = _as_adjacency(a)
    values, vectors = np.linalg.eigh(mat)
    rho = float(values[-1])
    v = vectors[:, -1]
    if v.sum() < 0.0:
        v = -v
    residual = float(np.abs(mat @ v - rho * v).max())
    if not residual <= EIGEN_RESIDUAL_RTOL * rho:
        raise NumericError(f"eigen-residual {residual:.3e} exceeds {EIGEN_RESIDUAL_RTOL:.0e} * rho")
    if not np.all(v > 0.0):
        raise NumericError(
            "Perron vector has non-positive entries; the input is not a connected adjacency matrix "
            "or its smallest Perron entries are below the eigensolver's precision"
        )
    return SpectralData(rho=rho, perron=v / v.sum())


def symmetric_pseudoinverse(m, kernel) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix with a known
    one-dimensional kernel.

    With ``P`` the orthogonal projector onto the kernel direction,
    ``(m + P)`` is nonsingular and ``pinv = (m + P)^-1 - P``.  The caller
    supplies the kernel vector; the function rejects vectors that fail the
    kernel residual check and verifies ``m @ pinv = I - P`` to 1e-9.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n <= 1:
        raise ParameterError("pseudoinverse requires order > 1")
    k = np.asarray(kernel, dtype=float)
    if k.shape != (n,):
        raise ParameterError(f"kernel vector must have shape ({n},), got {k.shape}")
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ParameterError("kernel vector must be nonzero")
    khat = k / norm
    scale = max(1.0, float(np.abs(a).max()))
    if not float(np.abs(a @ khat).max()) <= 1e-8 * scale:
        raise ParameterError("supplied vector is not in the kernel (residual check failed)")
    projector = np.outer(khat, khat)
    pinv = invert(a + projector) - projector
    pinv = 0.5 * (pinv + pinv.T)
    residual = float(np.abs(a @ pinv - (np.eye(n) - projector)).max())
    if residual > 1e-9:
        raise NumericError(f"pseudoinverse contract violated: residual {residual:.3e}")
    return pinv
