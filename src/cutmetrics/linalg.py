"""Dense numeric kernel over LAPACK (through ``numpy.linalg``): inversion
(a Schur-complement block recursion with Cholesky leaves for
positive-definite input, LU otherwise), determinant, the Perron pair of an
adjacency matrix together with the rest of its eigendecomposition, and the
rank-one-corrected symmetric pseudoinverse.

The wrappers add what LAPACK leaves to the caller: non-finite and
non-square input is refused, an explicit 1-norm condition estimate guards
every inverse, and eigenpairs and pseudoinverses, including one summed
from eigenpairs by a caller, are checked against their contracts.  Every
failure is a typed :class:`CutMetricsError`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError
from .types import SpectralData

__all__ = ["invert", "determinant", "spectral_data", "symmetric_pseudoinverse"]

CONDITION_LIMIT = 1e12
EIGEN_RESIDUAL_RTOL = 1e-12
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
# Order up to which a positive-definite block is inverted through its own
# Cholesky factor; larger ones are split in halves around a Schur complement.
_LEAF = 64


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix has non-finite entries")
    return a


def _as_adjacency(m) -> np.ndarray:
    a = _as_square(m)
    # The exact test, about a tenth of the cost of allclose, settles the
    # common case, an adjacency_matrix; allclose keeps the verdict on the rest.
    if np.any(a < 0.0) or not (np.array_equal(a, a.T) or np.allclose(a, a.T, rtol=1e-12, atol=1e-12)):
        raise ParameterError("spectral data requires a symmetric nonnegative matrix")
    if not np.any(a):
        raise ParameterError("zero matrix has no Perron vector")
    return a


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
    """Matrix inverse, by one of two LAPACK-backed routes.

    Exactly symmetric input is first inverted as positive definite by
    :func:`_pd_inverse`: a 2 x 2 block recursion over the Schur complement
    with Cholesky leaves of order at most 64, a block factorization of the
    symmetric positive definite matrix (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, section 13).  Every flop
    above the leaves is a matmul, and the result is exactly symmetric.
    Every other matrix, and one the recursion refuses as not positive
    definite, is inverted by ``numpy.linalg.inv`` (LU).

    Raises :class:`NumericError` when LAPACK finds an exactly singular
    pivot or the 1-norm condition estimate is not below ``CONDITION_LIMIT``.
    """
    a = _as_square(m)
    return _invert(a, _pd_inverse(a) if np.array_equal(a, a.T) else None, _one_norm(a))


def _one_norm(a: np.ndarray) -> float:
    """The 1-norm of ``a``, inf without a warning where a column sum
    overflows: :func:`_invert` then refuses the condition estimate."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(a, 1)


def _pd_inverse(a: np.ndarray) -> np.ndarray | None:
    """Inverse of an exactly symmetric matrix, or None when it is not
    numerically positive definite.

    Up to order ``_LEAF`` the inverse is ``X^T X`` with ``X = C^-1`` and
    ``C`` the lower Cholesky factor.  Above it, with ``a = [[A, B], [B^T,
    D]]`` split in halves, ``A`` is inverted recursively, ``W = A^-1 B``
    gets one step of iterative refinement, the Schur complement ``S = D -
    B^T W`` is inverted recursively, and the blocks are assembled as
    ``[[A^-1 + W S^-1 W^T, -W S^-1], [-S^-1 W^T, S^-1]]``.  ``S`` and the
    diagonal update are symmetrized and the lower block is the transpose
    of the upper, so the result is exactly symmetric.

    By Haynsworth inertia additivity ``a`` is positive definite exactly
    when ``A`` and ``S`` are.  So a leaf Cholesky that refuses shows that
    ``a`` is not, and a result that is not None shows that it is.
    """
    n = len(a)
    if n <= _LEAF:
        try:
            x = np.linalg.inv(np.linalg.cholesky(a))
        except np.linalg.LinAlgError:
            return None
        return x.T @ x
    h = n // 2
    top = _pd_inverse(a[:h, :h])
    if top is None:
        return None
    b = a[:h, h:]
    w = top @ b
    # Without this step the error of ``top`` reaches S through B^T W,
    # amplified by the condition of A: on the unit path of order 800 the
    # inverse of L + 11^T/n would lose almost two digits.
    w += top @ (b - a[:h, :h] @ w)
    s = a[h:, h:] - b.T @ w
    s += s.T
    s *= 0.5
    schur = _pd_inverse(s)
    if schur is None:
        return None
    upper = -(w @ schur)
    update = upper @ w.T
    # Released before the result is allocated, which is then assembled
    # without temporaries: a peak of two matrices of the order of ``a``.
    del s, w
    inv = np.empty_like(a)
    corner = inv[:h, :h]
    np.add(update, update.T, out=corner)
    corner *= 0.5
    np.subtract(top, corner, out=corner)
    inv[:h, h:] = upper
    inv[h:, :h] = upper.T
    inv[h:, h:] = schur
    return inv


def _invert(a: np.ndarray, inv: np.ndarray | None, norm: float) -> np.ndarray:
    """:func:`invert` of a checked square matrix with 1-norm ``norm``: its
    positive-definite inverse ``inv`` from :func:`_pd_inverse`, or LU when
    there is none."""
    if inv is None:
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            raise NumericError("singular matrix: zero pivot during LU factorization") from None
    # A product of Python floats overflows to inf without a warning.
    cond = float(norm) * float(np.linalg.norm(inv, 1))
    if not cond <= CONDITION_LIMIT:
        raise NumericError(f"matrix near-singular: condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return inv


def _spectral_radius(a) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix, from
    ``numpy.linalg.eigvalsh``, for callers that need no Perron vector."""
    return float(_eigensolve(np.linalg.eigvalsh, _as_adjacency(a))[-1])


def _eigensolve(solver, a: np.ndarray):
    """``solver(a)``, its failure to converge raised as :class:`NumericError`."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from None


def spectral_data(a) -> SpectralData:
    """Spectral radius and Perron vector of a connected nonnegative
    symmetric adjacency matrix, from ``numpy.linalg.eigh``.

    The top eigenvector is sign-fixed and normalized to sum 1.  Raises
    :class:`NumericError` when ``eigh`` does not converge, when its
    eigen-residual exceeds ``EIGEN_RESIDUAL_RTOL * rho``, or when an entry
    is not strictly positive: on disconnected input, and where the smallest
    Perron entries lie below the eigensolver's precision, about 1e-16 of
    the largest (long chains of blocks).
    """
    values, vectors = _perron_eigh(a)
    v = vectors[:, -1]
    return SpectralData(rho=float(values[-1]), perron=v / v.sum())


def _perron_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair from one ``numpy.linalg.eigh``: the eigenvalues,
    ascending, and the orthonormal eigenvectors as columns, the last one
    the Perron vector with its sign fixed to a positive sum.  The Perron
    pair is checked as :func:`spectral_data` documents; the other columns
    are returned as ``eigh`` gives them."""
    mat = _as_adjacency(a)
    values, vectors = _eigensolve(np.linalg.eigh, mat)
    rho = float(values[-1])
    if vectors[:, -1].sum() < 0.0:
        vectors[:, -1] *= -1.0
    v = vectors[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is refused below
        residual = float(np.abs(mat @ v - rho * v).max())
    if not residual <= EIGEN_RESIDUAL_RTOL * rho:
        raise NumericError(f"eigen-residual {residual:.3e} exceeds {EIGEN_RESIDUAL_RTOL:.0e} * rho")
    if not np.all(v > 0.0):
        raise NumericError(
            "Perron vector has non-positive entries; the input is not a connected adjacency matrix "
            "or its smallest Perron entries are below the eigensolver's precision"
        )
    return values, vectors


def symmetric_pseudoinverse(m, kernel) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix with a known
    one-dimensional kernel.

    With ``P`` the orthogonal projector onto the kernel direction,
    ``(m + P)`` is nonsingular and ``pinv = (m + P)^-1 - P``.  The caller
    supplies the kernel vector, finite and nonzero at any scale; the
    function rejects vectors that fail the kernel residual check and
    verifies ``m @ pinv = I - P`` to 1e-9.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n <= 1:
        raise ParameterError("pseudoinverse requires order > 1")
    k = np.asarray(kernel, dtype=float)
    if k.shape != (n,):
        raise ParameterError(f"kernel vector must have shape ({n},), got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ParameterError("kernel vector has non-finite entries")
    # Scaled to a largest entry of 1 first, the norm can neither overflow nor
    # underflow; the all-ones kernel is left exactly as it is.
    peak = float(np.abs(k).max())
    if peak == 0.0:
        raise ParameterError("kernel vector must be nonzero")
    k = k / peak
    khat = k / np.linalg.norm(k)
    scale = max(1.0, float(a.max()), -float(a.min()))
    if not float(np.abs(a @ khat).max()) <= 1e-8 * scale:
        raise ParameterError("supplied vector is not in the kernel (residual check failed)")
    # a + P is finite, as a and P are, so only its symmetry is tested again.
    system = np.outer(khat, khat)
    system += a
    inv = _pd_inverse(system) if np.array_equal(system, system.T) else None
    pinv = _invert(system, inv, _one_norm(system))
    projector = np.outer(khat, khat, out=system)  # P again, in the spent system's buffer
    pinv -= projector
    if inv is None:  # only the recursion's inverse is exactly symmetric
        pinv = 0.5 * (pinv + pinv.T)
    _check_pseudoinverse(a, pinv, projector)
    return pinv


def _check_pseudoinverse(a: np.ndarray, pinv: np.ndarray, projector: np.ndarray) -> None:
    """Raise :class:`NumericError` unless ``a @ pinv = I - projector`` to
    1e-9: the contract of the pseudoinverse of a symmetric ``a`` whose
    kernel ``projector`` projects onto.  The residual is formed in the
    product's buffer: off the diagonal ``r - (0 - P)`` is ``r + P``."""
    residual = a @ pinv
    diagonal = residual.diagonal() - (1.0 - projector.diagonal())
    residual += projector
    np.fill_diagonal(residual, diagonal)
    worst = float(np.abs(residual, out=residual).max())
    if not worst <= 1e-9:  # a NaN residual fails too
        raise NumericError(f"pseudoinverse contract violated: residual {worst:.3e}")
