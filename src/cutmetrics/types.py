"""Result containers shared by the graph, measure, distance, and oracle modules.

Vertex ids are 1-based everywhere in the public API; matrices are plain
``numpy.ndarray`` objects whose row/column ``i - 1`` corresponds to vertex
``i``.  All containers are immutable carriers: validity properties such as
the triangle inequality are established by the explicit checker functions,
not assumed at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

__all__ = [
    "TransitionalMeasure",
    "DistanceMatrix",
    "ValidationReport",
    "Violation",
    "SpectralData",
    "Path",
    "RootedForestSummary",
]

MEASURE_KINDS = ("path", "reliability", "forest", "walk")


@dataclass(frozen=True)
class Violation:
    """One failed triple comparison.

    ``lhs``/``rhs`` are the two compared quantities (their meaning depends on
    the check that produced the violation) and ``expected_equal`` records
    whether the cutpoint oracle demanded equality for the triple.
    """

    i: int
    j: int
    k: int
    lhs: float
    rhs: float
    expected_equal: bool


class ValidationReport:
    """Pass/fail evidence for a structural check.

    The violations are stored as columns: the 1-based (i, j, k) triples
    and the lhs, rhs and expected_equal arrays.  ``violations`` builds the
    tuple of :class:`Violation` from them on first read.  Immutable, and
    compared and hashed by ``(passed, violations)``.
    """

    __slots__ = ("passed", "_violations", "_columns")

    def __init__(self, passed: bool, violations: tuple[Violation, ...] = ()) -> None:
        violations = tuple(violations)
        if passed != (len(violations) == 0):
            raise ValueError("passed flag inconsistent with violation list")
        columns = (
            np.array([(v.i, v.j, v.k) for v in violations], dtype=int).reshape(-1, 3),
            np.array([v.lhs for v in violations], dtype=float),
            np.array([v.rhs for v in violations], dtype=float),
            np.array([v.expected_equal for v in violations], dtype=bool),
        )
        for name, value in (("passed", passed), ("_violations", None), ("_columns", columns)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_columns(
        cls, triples: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, expected: np.ndarray
    ) -> "ValidationReport":
        """A report with one violation per row of the 0-based ``triples``."""
        report = cls.__new__(cls)
        columns = (triples + 1, lhs, rhs, expected)
        for name, value in (("passed", len(lhs) == 0), ("_violations", None), ("_columns", columns)):
            object.__setattr__(report, name, value)
        return report

    @property
    def violations(self) -> tuple[Violation, ...]:
        if self._violations is None:
            triples, lhs, rhs, expected = self._columns
            found = tuple(map(Violation, *triples.T.tolist(), lhs.tolist(), rhs.tolist(), expected.tolist()))
            object.__setattr__(self, "_violations", found)
        return self._violations

    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The columns ``(triples, lhs, rhs, expected)``."""
        return self._columns

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a ValidationReport")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.passed, self.violations) == (other.passed, other.violations)

    def __hash__(self) -> int:
        return hash((self.passed, self.violations))

    def __repr__(self) -> str:
        return f"ValidationReport(passed={self.passed!r}, violations={self.violations!r})"


def _symmetric(m: np.ndarray) -> bool:
    """``np.allclose(m, m.T, rtol=1e-9, atol=1e-12)`` for finite ``m``,
    without its handling of infinities and NaN.  An exactly symmetric
    ``m``, as the dense families build, is settled by the difference alone.
    Otherwise the largest difference is first held to the bound at
    ``m.min()``, which is at most every ``|m[j, i]|``: both roundings of
    the bound are monotone, so it lies below every entry's own, and passing
    it passes them all.  Rounding is symmetric in sign, so ``m - m.T`` is
    exactly antisymmetric and its maximum is its largest magnitude."""
    diff = m - m.T
    if not diff.any():
        return True
    if diff.max() <= 1e-12 + 1e-9 * m.min():
        return True
    return bool((np.abs(diff, out=diff) <= 1e-12 + 1e-9 * np.abs(m.T)).all())


@dataclass(frozen=True, eq=False)
class TransitionalMeasure:
    """A positive symmetric matrix of vertex-to-vertex accessibility values."""

    kind: str
    matrix: np.ndarray
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("measure matrix must be square")
        # A NaN fails both comparisons; a 0 x 0 matrix has nothing to test.
        if m.size and not (m.min() > 0.0 and m.max() < np.inf):
            raise NumericError(f"{self.kind} measure has non-positive or non-finite entries")
        if not _symmetric(m):
            raise NumericError(f"{self.kind} measure is not symmetric")
        if self.kind in ("path", "reliability") and not (m.diagonal() == 1.0).all():
            raise NumericError(f"{self.kind} measure must have unit diagonal")

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """A square matrix of pairwise values tagged with its metric provenance.

    Construction checks only shape and finiteness; symmetry, zero diagonal,
    and the triangle inequality are verified by ``check_metric_axioms`` so
    that deliberately broken candidates can be fed to the checkers.
    """

    values: np.ndarray
    metric: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.all(np.isfinite(v)):
            raise NumericError(f"{self.metric} distance has non-finite entries")

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def value(self, u: int, v: int) -> float:
        """Distance between vertices ``u`` and ``v`` (1-based ids)."""
        if not (1 <= u <= self.order and 1 <= v <= self.order):
            raise IndexError(f"vertex pair ({u}, {v}) out of range 1..{self.order}")
        return float(self.values[u - 1, v - 1])


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectral radius and Perron vector of a weighted adjacency matrix.

    The Perron vector is strictly positive and normalized to sum 1.
    """

    rho: float
    perron: np.ndarray


@dataclass(frozen=True)
class Path:
    """A simple path: distinct vertices joined by explicit edge instances."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]
    length: int
    weight: float


@dataclass(frozen=True, eq=False)
class RootedForestSummary:
    """Aggregate weights of the spanning rooted forests of a multigraph.

    ``weights[i - 1, j - 1]`` totals the forests in which vertex ``i`` lies
    in the tree rooted at ``j``; ``total_weight`` totals all rooted forests.
    """

    total_weight: float
    weights: np.ndarray
