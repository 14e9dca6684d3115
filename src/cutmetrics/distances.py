"""Distance constructions and the structural checkers.

The central transform turns any strictly positive transitional measure S
into a matrix of distances:

    d(i, j) = (ln S[i,i] + ln S[j,j] - ln S[i,j] - ln S[j,i]) / 2

Applied to the path, reliability, forest, and walk measures this yields
metrics whose triangle equality cases coincide exactly with the cutpoints
of the graph.  The classical resistance distance and the limiting long-walk
distance are built here as well, along with checkers for the metric axioms
and for cutpoint additivity.
"""

from __future__ import annotations

import numpy as np

from . import linalg, measures
from .errors import NumericError, ParameterError
from .graph import Graph, adjacency_matrix, cutpoint_table, laplacian
from .types import DistanceMatrix, TransitionalMeasure, ValidationReport, Violation

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

EQUALITY_FLOOR = 1e-12
LONG_WALK_RTOL = 1e-8


def log_distance(s: TransitionalMeasure) -> DistanceMatrix:
    """Logarithmic distance transform of a positive measure.

    Scale-invariant: replacing S by c*S leaves the result unchanged, since
    the ln(c) terms cancel.  The diagonal is exactly zero.
    """
    m = s.matrix
    if np.any(m <= 0.0):
        raise NumericError(f"log transform requires strictly positive entries ({s.kind} measure)")
    h = np.log(m)
    diag = np.diag(h)
    values = 0.5 * (diag[:, None] + diag[None, :] - h - h.T)
    return DistanceMatrix(values, s.kind, dict(s.params))


def path_distance(
    g: Graph,
    tau: float,
    tol: float = 1e-9,
    max_vertices: int = measures.PATH_VERTEX_CAP,
) -> DistanceMatrix:
    """Logarithmic distance of the path measure at discount ``tau``.

    The measure is valid only for sufficiently small ``tau``, so it is
    validated first and an invalid choice is refused.
    """
    measure = measures.path_accessibility(g, tau, max_vertices)
    report = measures.validate_transitional_measure(g, measure, tol)
    if not report.passed:
        raise ParameterError(
            f"tau={tau} fails transitional-measure validation "
            f"({len(report.violations)} violating triples); try a smaller value"
        )
    return log_distance(measure)


def reliability_distance(g: Graph) -> DistanceMatrix:
    """Logarithmic distance of the connection-reliability measure."""
    return log_distance(measures.connection_reliability(g))


def forest_distance(g: Graph, t: float = 1.0) -> DistanceMatrix:
    """Logarithmic forest distance with edge-scale parameter ``t``.

    The parameter re-weights every edge by ``t``; ``t = 1`` is the plain
    forest distance.  The log transform is scale-invariant, so the
    determinant factor of the forest matrix cancels and the distance is
    taken from ``(I + tL)^-1`` alone.
    """
    inverse = linalg.invert(measures._forest_system(g, t))
    return log_distance(TransitionalMeasure("forest", inverse, {"t": t}))


def walk_distance(g: Graph, t: float) -> DistanceMatrix:
    """Logarithmic distance of the walk measure at parameter ``t``."""
    return log_distance(measures.walk_matrix(g, t))


def resistance_distance(g: Graph) -> DistanceMatrix:
    """Effective resistance between vertex pairs, from the Laplacian
    pseudoinverse: ``d(i,j) = Lp[i,i] + Lp[j,j] - 2 Lp[i,j]``."""
    lp = linalg.symmetric_pseudoinverse(laplacian(g), np.ones(g.n))
    diag = np.diag(lp)
    values = diag[:, None] + diag[None, :] - 2.0 * lp
    return DistanceMatrix(values, "resistance")


def _walk_log_quotient(g: Graph, a: np.ndarray, rho: float, t: float) -> np.ndarray:
    r = linalg.invert(np.eye(g.n) - t * a)
    lr = np.log(r)
    diag = np.diag(lr)
    return (diag[:, None] + diag[None, :] - 2.0 * lr) / (g.n * rho**2 * (1.0 / rho - t))


def long_walk_distance(
    g: Graph,
    rtol: float = LONG_WALK_RTOL,
    k_start: int = 2,
    k_max: int = 24,
    method: str = "limit",
) -> DistanceMatrix:
    """Limit of the scaled walk-distance quotient as ``t`` approaches
    ``1/rho`` from below.

    method="limit" (default) evaluates the quotient at
    ``t_k = (1 - 2^-k) / rho`` and Richardson-extrapolates, assuming a
    leading error term linear in ``1/rho - t``; iteration stops when two
    successive extrapolants agree to ``rtol`` relative.

    method="closed_form" is experimental: it evaluates the candidate
    closed form built from the pseudoinverse of ``rho I - A`` conjugated by
    the inverse Perron diagonal.  It matches the limit on every validated
    test graph but the limit stays the reference definition.
    """
    a = adjacency_matrix(g)
    if method == "closed_form":
        spectral = linalg.spectral_data(a)
        rho = spectral.rho
        p_unit = spectral.perron / np.linalg.norm(spectral.perron)
        pinv = linalg.symmetric_pseudoinverse(rho * np.eye(g.n) - a, p_unit)
        psi = pinv / np.outer(p_unit, p_unit)
        diag = np.diag(psi)
        values = (diag[:, None] + diag[None, :] - 2.0 * psi) / g.n
        return DistanceMatrix(values, "longwalk")
    if method != "limit":
        raise ParameterError(f"unknown long-walk method {method!r}")
    rho = linalg._spectral_radius(a)

    off_diag = ~np.eye(g.n, dtype=bool)
    previous_row: list[np.ndarray] | None = None
    previous_diag: np.ndarray | None = None
    last_change = np.inf
    for k in range(k_start, k_max + 1):
        t = (1.0 - 2.0**(-k)) / rho
        row = [_walk_log_quotient(g, a, rho, t)]
        if previous_row is not None:
            for m in range(1, len(previous_row) + 1):
                row.append(row[m - 1] + (row[m - 1] - previous_row[m - 1]) / (2.0**m - 1.0))
        extrapolant = row[-1]
        if previous_diag is not None:
            scale = np.maximum(np.abs(extrapolant), 1e-30)
            last_change = float((np.abs(extrapolant - previous_diag) / scale)[off_diag].max())
            if last_change < rtol:
                return DistanceMatrix(extrapolant, "longwalk")
        previous_diag = extrapolant
        previous_row = row
    # The quotient's float-noise floor grows like 4^k, so on larger graphs
    # the requested rtol can be unreachable; relaxing rtol or switching to
    # method="closed_form" both work there.
    raise NumericError(
        f"long-walk extrapolation did not converge by k={k_max}: last two "
        f"iterates differ by {last_change:.3e} relative (requested {rtol:.1e}); "
        "relax rtol or use method='closed_form'"
    )


def rescaled_long_walk_distance(g: Graph, **kwargs) -> DistanceMatrix:
    """Long-walk distance rescaled by ``n * ||p||_2^2`` with ``p`` the
    sum-normalized Perron vector; the factor is exactly 1 on regular
    graphs."""
    d = long_walk_distance(g, **kwargs)
    perron = linalg.spectral_data(adjacency_matrix(g)).perron
    factor = g.n * float(perron @ perron)
    return DistanceMatrix(d.values * factor, "longwalk-rescaled", dict(d.params))


def check_metric_axioms(d: DistanceMatrix, tol: float = 1e-9) -> ValidationReport:
    """Verify symmetry, zero diagonal, off-diagonal positivity, and the
    triangle inequality (within ``tol`` relative plus a 1e-12 floor).

    Violation encoding: symmetry failures carry (i, j, i) with the two
    entries as lhs/rhs; diagonal and positivity failures carry the entry as
    lhs and 0 as rhs; triangle failures carry (i, j, k) with
    lhs = d(i,k) and rhs = d(i,j) + d(j,k).
    """
    v = d.values
    n = v.shape[0]
    violations: list[Violation] = []
    for i in range(1, n + 1):
        entry = float(v[i - 1, i - 1])
        if abs(entry) > EQUALITY_FLOOR:
            violations.append(Violation(i, i, i, entry, 0.0, True))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = float(v[i - 1, j - 1]), float(v[j - 1, i - 1])
            if abs(a - b) > tol * max(abs(a), abs(b)) + EQUALITY_FLOOR:
                violations.append(Violation(i, j, i, a, b, True))
            if not a > 0.0:
                violations.append(Violation(i, j, i, a, 0.0, False))
    rows = v.tolist()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == i:
                continue
            for k in range(1, n + 1):
                if k == i or k == j:
                    continue
                direct = rows[i - 1][k - 1]
                detour = rows[i - 1][j - 1] + rows[j - 1][k - 1]
                if direct > detour + tol * detour + EQUALITY_FLOOR:
                    violations.append(Violation(i, j, k, direct, detour, False))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def check_cutpoint_additivity(g: Graph, d: DistanceMatrix, tol: float = 1e-9) -> ValidationReport:
    """Verify both directions of the additivity characterization: for all
    triples of distinct vertices, ``d(i,j) + d(j,k) = d(i,k)`` (within
    ``tol`` relative to ``d(i,k)`` plus a 1e-12 floor) must hold exactly
    when every i-to-k path passes through ``j``.

    Violations carry lhs = d(i,j) + d(j,k) and rhs = d(i,k); the
    ``expected_equal`` flag tells which direction failed.
    """
    if d.order != g.n:
        raise ParameterError(f"distance order {d.order} does not match graph order {g.n}")
    cut = cutpoint_table(g)
    rows = d.values.tolist()
    violations: list[Violation] = []
    n = g.n
    for i in range(1, n + 1):
        row_i = rows[i - 1]
        for j in range(1, n + 1):
            if j == i:
                continue
            d_ij = row_i[j - 1]
            row_j = rows[j - 1]
            cut_ji = cut[j][i]
            for k in range(1, n + 1):
                if k == i or k == j:
                    continue
                through = d_ij + row_j[k - 1]
                direct = row_i[k - 1]
                equal = abs(through - direct) <= tol * abs(direct) + EQUALITY_FLOOR
                if equal != cut_ji[k]:
                    violations.append(Violation(i, j, k, through, direct, cut_ji[k]))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def normalize_distances(
    d: DistanceMatrix, pairs: list[tuple[int, int]], target: float
) -> DistanceMatrix:
    """Rescale so that the distances over ``pairs`` sum to ``target``."""
    if not pairs:
        raise ParameterError("normalization needs at least one vertex pair")
    total = 0.0
    for u, v in pairs:
        if not (1 <= u <= d.order and 1 <= v <= d.order):
            raise ParameterError(f"pair ({u}, {v}) out of range 1..{d.order}")
        total += float(d.values[u - 1, v - 1])
    if not total > 0.0:
        raise ParameterError(f"normalization pairs sum to {total}, expected a positive value")
    scale = target / total
    params = dict(d.params)
    params["scale"] = scale
    return DistanceMatrix(d.values * scale, d.metric, params)
