"""Distance constructions and the structural checkers.

The central transform turns any strictly positive transitional measure S
into a matrix of distances:

    d(i, j) = (ln S[i,i] + ln S[j,j] - ln S[i,j] - ln S[j,i]) / 2

Applied to the path, reliability, forest, and walk measures this yields
metrics whose triangle equality cases coincide exactly with the cutpoints
of the graph.  The classical resistance distance and the limiting long-walk
distance are built here as well, along with the metric-axioms and
cutpoint-additivity checkers, each one call of ``measures._checks``.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg, measures
from .errors import NumericError, ParameterError
from .graph import Graph, adjacency_matrix, laplacian, separation_labels
from .types import DistanceMatrix, TransitionalMeasure, ValidationReport, _integer

__all__ = [
    "log_distance",
    "path_distance",
    "reliability_distance",
    "forest_distance",
    "walk_distance",
    "resistance_distance",
    "long_walk_distance",
    "rescaled_long_walk_distance",
    "check_metric_axioms",
    "check_cutpoint_additivity",
    "normalize_distances",
]

LONG_WALK_RTOL = 1e-8


def log_distance(s: TransitionalMeasure) -> DistanceMatrix:
    """Logarithmic distance transform of a positive measure.

    Scale-invariant: replacing S by c*S leaves the result unchanged, since
    the ln(c) terms cancel.  The diagonal is exactly zero.
    """
    m = s.matrix
    if np.any(m <= 0.0):
        raise NumericError(f"log transform requires strictly positive entries ({s.kind} measure)")
    return DistanceMatrix(measures._log_distance(m), s.kind, dict(s.params))


def path_distance(
    g: Graph,
    tau: float,
    tol: float = 1e-9,
    max_vertices: int = measures.PATH_VERTEX_CAP,
) -> DistanceMatrix:
    """Logarithmic distance of the path measure at discount ``tau``.

    The measure is valid only for sufficiently small ``tau``, so it is
    validated first, every triple in one pass, and an invalid choice is
    refused with the count of violating triples.
    """
    measures._tolerance(tol)
    d = log_distance(measures.path_accessibility(g, tau, max_vertices))
    failures = measures._transition_test(g, tol)(d.values)
    if failures:
        raise ParameterError(
            f"tau={tau} fails transitional-measure validation ({failures} violating triples); try a smaller value"
        )
    return d


def reliability_distance(g: Graph) -> DistanceMatrix:
    """Logarithmic distance of the connection-reliability measure."""
    return log_distance(measures.connection_reliability(g))


def forest_distance(g: Graph, t: float = 1.0) -> DistanceMatrix:
    """Logarithmic forest distance with edge-scale parameter ``t``.

    The parameter re-weights every edge by ``t``, exactly: the result is
    the ``t = 1`` distance of the graph whose edges weigh ``t w``.  The log
    transform is scale-invariant, so the determinant factor of the forest
    matrix cancels and the distance is taken from ``(I + tL)^-1`` alone.
    """
    return log_distance(measures._forest_inverse(g, t))


def walk_distance(g: Graph, t: float) -> DistanceMatrix:
    """Logarithmic distance of the walk measure at parameter ``t``."""
    return log_distance(measures.walk_matrix(g, t))


def resistance_distance(g: Graph) -> DistanceMatrix:
    """Effective resistance between vertex pairs, from the Laplacian
    pseudoinverse: ``d(i,j) = Lp[i,i] + Lp[j,j] - 2 Lp[i,j]``."""
    lp = linalg.symmetric_pseudoinverse(laplacian(g), np.ones(g.n))
    return DistanceMatrix(_from_diagonal(lp, np.empty_like(lp)), "resistance")


def _from_diagonal(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``m_ii + m_jj - 2 m_ij`` for every pair, in the float order of that
    expression, written to ``out``; ``m`` is overwritten."""
    diag = m.diagonal().copy()
    np.add.outer(diag, diag, out=out)
    m *= 2.0
    out -= m
    return out


def long_walk_distance(g: Graph, method: str = "closed_form") -> DistanceMatrix:
    """Long-walk distance: the limit of the scaled walk-distance quotient
    as ``t`` approaches ``1/rho`` from below (Chebotarev, "The walk
    distances in graphs", Discrete Appl. Math. 160, 2012).

    It is evaluated in closed form, ``(psi_ii + psi_kk - 2 psi_ik) / n``
    with ``psi`` the pseudoinverse of ``rho I - A`` divided by
    ``outer(p, p)``, ``p`` the unit Perron vector.  One ``eigh`` of ``A``
    gives both: the pseudoinverse is ``R R^T``, with ``R`` the other
    eigenvectors each scaled by ``1 / sqrt(rho - lambda)``, and it is
    checked against its contract ``(rho I - A) pinv = I - p p^T`` to 1e-9,
    a :class:`NumericError` otherwise.  ``eigh`` resolves ``p``
    to about ``eps * rho / (rho - lambda_2)`` absolute, so the division
    can lose ``n * eps * (p_max / p_min) * rho / (rho - lambda_2)``
    relative to first order; when that bound exceeds ``LONG_WALK_RTOL``
    (long chains of blocks, nearly equal far-apart blocks) the call raises
    :class:`NumericError` instead of returning a matrix it cannot vouch for.

    ``method`` takes only ``"closed_form"``.  The Richardson limit of the
    quotient is the independent reference
    :func:`cutmetrics.oracle.long_walk_limit`.
    """
    if method != "closed_form":
        raise ParameterError(
            f"unknown long-walk method {method!r}; the library computes only 'closed_form', "
            "and the Richardson limit is the reference oracle.long_walk_limit"
        )
    return DistanceMatrix(_long_walk(g)[0], "longwalk")


def rescaled_long_walk_distance(g: Graph) -> DistanceMatrix:
    """Long-walk distance rescaled by ``n * ||p||_2^2`` with ``p`` the
    sum-normalized Perron vector; the factor is exactly 1 on regular
    graphs."""
    values, perron = _long_walk(g)
    values *= g.n * float(perron @ perron)
    return DistanceMatrix(values, "longwalk-rescaled")


def _long_walk(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form long-walk distances of :func:`long_walk_distance`
    and the sum-normalized Perron vector, from one ``eigh``: the Perron
    pair gives the guard and ``p``, and the other eigenpairs sum the
    pseudoinverse of ``rho I - A``."""
    a = adjacency_matrix(g)
    eigenvalues, vectors = linalg._perron_eigh(a)
    rho = float(eigenvalues[-1])
    p_unit = vectors[:, -1]
    perron = p_unit / p_unit.sum()
    gap = rho - float(eigenvalues[-2])
    ratio = float(p_unit.max()) / float(p_unit.min())
    bound = g.n * float(np.finfo(float).eps) * ratio * rho / gap if gap > 0.0 else math.inf
    if not bound <= LONG_WALK_RTOL:
        raise NumericError(
            f"long-walk closed form may be off by {bound:.1e} relative, above {LONG_WALK_RTOL:.0e}: "
            f"Perron ratio p_max/p_min = {ratio:.1e}, spectral gap rho - lambda_2 = {gap:.1e}"
        )
    # rho - lambda >= gap > 0 past the guard; R @ R.T is one exactly symmetric syrk.
    # Subnormal weights put the distances past the float range (1/w on P2): the
    # pseudoinverse check or the DistanceMatrix refuses the inf and NaN left here.
    # R is scaled in the eigenvectors' buffer, released once R R^T is formed;
    # rho I - A is built in the adjacency's buffer, psi in the pseudoinverse's
    # and the distances in the projector's.
    with np.errstate(over="ignore", invalid="ignore"):
        projector = np.outer(p_unit, p_unit)
        r = vectors[:, :-1]
        r /= np.sqrt(rho - eigenvalues[:-1])
        pinv = r @ r.T
        del vectors, p_unit, r
        np.subtract(0.0, a, out=a)
        a.flat[:: g.n + 1] += rho
        linalg._check_pseudoinverse(a, pinv, projector)
        pinv /= projector
        values = _from_diagonal(pinv, projector)
        values /= g.n
        return values, perron


def check_metric_axioms(d: DistanceMatrix, tol: float = 1e-9) -> ValidationReport:
    """Verify symmetry, zero diagonal, off-diagonal positivity, and the
    triangle inequality (within ``tol`` relative plus a 1e-12 floor).

    Violation encoding: symmetry failures carry (i, j, i) with the two
    entries as lhs/rhs; diagonal and positivity failures carry the entry as
    lhs and 0 as rhs; triangle failures carry (i, j, k) with
    lhs = d(i,k) and rhs = d(i,j) + d(j,k).  Diagonal failures come first
    in i order, then for each pair i < j in row-major order its symmetry
    failure before its positivity failure, then triangle failures in
    (i, j, k) order.
    """
    return measures._checks(d.values, None, measures._tolerance(tol), ["metric-axioms"])[0]


def check_cutpoint_additivity(g: Graph, d: DistanceMatrix, tol: float = 1e-9) -> ValidationReport:
    """Verify both directions of the additivity characterization: for all
    triples of distinct vertices, ``d(i,j) + d(j,k) = d(i,k)`` (within
    ``tol`` relative to ``d(i,k)`` plus a 1e-12 floor) must hold exactly
    when every i-to-k path passes through ``j``.

    Violations carry lhs = d(i,j) + d(j,k) and rhs = d(i,k), in (i, j, k)
    order; the ``expected_equal`` flag tells which direction failed.
    """
    if d.order != g.n:
        raise ParameterError(f"distance order {d.order} does not match graph order {g.n}")
    return measures._checks(d.values, separation_labels(g), measures._tolerance(tol), ["cutpoint-additivity"])[0]


def normalize_distances(
    d: DistanceMatrix, pairs: list[tuple[int, int]], target: float
) -> DistanceMatrix:
    """Rescale so that the distances over ``pairs`` sum to ``target``, a
    positive finite number; a rescale that overflows is a NumericError.
    Each pair holds two vertex ids of integral value, as a :class:`Graph`
    edge's ends do; any other pair is a ParameterError."""
    if not 0.0 < target < math.inf:
        raise ParameterError(f"normalization target must be positive and finite, got {target!r}")
    if not pairs:
        raise ParameterError("normalization needs at least one vertex pair")
    total = 0.0
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):  # not a pair
            u = v = None
        iu, iv = _integer(u), _integer(v)
        if iu is None or iv is None:
            raise ParameterError(f"pair must be two integer vertex ids, got {pair!r}")
        if not (1 <= iu <= d.order and 1 <= iv <= d.order):
            raise ParameterError(f"pair ({u}, {v}) out of range 1..{d.order}")
        total += float(d.values[iu - 1, iv - 1])
    if not total > 0.0:
        raise ParameterError(f"normalization pairs sum to {total}, expected a positive value")
    scale = target / total
    with np.errstate(over="ignore", invalid="ignore"):
        values = d.values * scale
    if not np.isfinite(values).all():
        raise NumericError(f"rescaling {d.metric} distances to sum {target!r} overflows a float")
    params = dict(d.params)
    params["scale"] = scale
    return DistanceMatrix(values, d.metric, params)
