import contextlib

import numpy as np
import pytest

from cutmetrics import (
    Graph,
    NumericError,
    ParameterError,
    adjacency_matrix,
    determinant,
    invert,
    laplacian,
    long_walk_distance,
    rescaled_long_walk_distance,
    spectral_data,
    symmetric_pseudoinverse,
    walk_matrix,
)
from cutmetrics import linalg

from conftest import clique_edges, k3, p2, p3, p4, path_edges, sized_multigraph


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [
        invert,
        determinant,
        spectral_data,
        lambda m: symmetric_pseudoinverse(m, np.ones(2)),
    ],
    ids=["invert", "determinant", "spectral_data", "symmetric_pseudoinverse"],
)
def test_non_finite_input_rejected(call, bad):
    with pytest.raises(ParameterError, match="non-finite"):
        call(np.array([[1.0, bad], [bad, 1.0]]))


class TestInvert:
    def test_known_2x2(self):
        inv = invert(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(inv, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-14)

    def test_identity(self):
        assert np.array_equal(invert(np.eye(3)), np.eye(3))

    def test_singular_raises(self):
        with pytest.raises(NumericError, match="singular"):
            invert(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_near_singular_condition_estimate(self):
        with pytest.raises(NumericError, match="condition"):
            invert(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m = rng.normal(size=(n, n)) + n * np.eye(n)
            assert np.abs(m @ invert(m) - np.eye(n)).max() <= 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            invert(np.ones((2, 3)))


def _positive_definite_systems(n):
    """The forest ``I + tL``, walk ``I - tA`` and resistance ``L + 11^T/n``
    systems of a random multigraph of order ``n``."""
    g = sized_multigraph(np.random.default_rng([5, n]), n, n)
    a, lap = adjacency_matrix(g), laplacian(g)
    rho = np.linalg.eigvalsh(a)[-1]
    return {"forest": np.eye(n) + 0.7 * lap, "walk": np.eye(n) - (0.5 / rho) * a, "resistance": lap + 1.0 / n}


def _schur_indefinite(n, negative_from):
    """A symmetric matrix of order ``n`` with eigenvalues near +1 before
    index ``negative_from`` and near -1 from it on: its leading 64-block is
    positive definite, and the Schur complement that holds the first
    negative pivot is indefinite."""
    noise = np.random.default_rng([11, n]).normal(scale=0.01, size=(n, n))
    return np.diag(np.where(np.arange(n) < negative_from, 1.0, -1.0)) + noise + noise.T


class TestCholeskyRoute:
    """The positive-definite route: a Schur-complement recursion over
    blocks of order at most 64, each inverted through its Cholesky factor."""

    @pytest.mark.parametrize("n", [2, 8, 63, 64, 65, 127, 129, 200, 257, 400])
    def test_agrees_with_lu(self, n):
        for name, m in _positive_definite_systems(n).items():
            expected = np.linalg.inv(m)
            got = invert(m)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), name
            assert np.array_equal(got, got.T), name  # where LU is not exactly symmetric

    @pytest.mark.parametrize(
        "n, negative_from, leaves",
        [
            (65, 64, 2),  # 32-block, then its 33-order complement refuses
            (128, 64, 2),  # 64-block, then its 64-order complement refuses
            (200, 64, 2),  # inside the top 100-block: its 50-order complement refuses
            (200, 150, 4),  # inside the 100-order complement: its own complement refuses
        ],
    )
    def test_indefinite_schur_complement_goes_through_lu(self, monkeypatch, n, negative_from, leaves):
        m = _schur_indefinite(n, negative_from)
        np.linalg.cholesky(m[:64, :64])  # raises unless the leading 64-block is positive definite
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(len(a)) or cholesky(a))
        assert linalg._pd_inverse(m) is None
        assert len(factored) == leaves  # the recursion stops at the first leaf that refuses
        monkeypatch.undo()
        assert invert(m).tobytes() == np.linalg.inv(m).tobytes()

    def test_inv_only_on_leaves(self, monkeypatch):
        # Above the leaves every flop is a matmul: numpy.linalg.inv sees only
        # blocks of order <= 64, and never the whole matrix (the LU route).
        systems = _positive_definite_systems(200)
        orders = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: orders.append(len(a)) or inv(a))
        for name, m in systems.items():
            orders.clear()
            invert(m)
            assert orders == [50, 50, 50, 50], name

    def test_symmetric_indefinite_goes_through_lu(self):
        rng = np.random.default_rng(3)
        noise = rng.normal(scale=0.1, size=(100, 100))
        m = np.diag(np.repeat([1.0, -1.0], 50)) + noise + noise.T
        assert invert(m).tobytes() == np.linalg.inv(m).tobytes()

    def test_asymmetric_goes_through_lu(self):
        m = _positive_definite_systems(100)["forest"]
        m[0, 1] += 1e-3
        assert invert(m).tobytes() == np.linalg.inv(m).tobytes()

    def test_exactly_singular_symmetric_raises(self):
        with pytest.raises(NumericError, match="singular matrix: zero pivot"):
            invert(np.ones((100, 100)))

    @pytest.mark.parametrize("shift", [0.0, 1e-14])
    def test_near_singular_symmetric_raises(self, shift):
        g = sized_multigraph(np.random.default_rng(9), 100, 100)
        with pytest.raises(NumericError, match="near-singular: condition estimate"):
            invert(laplacian(g) + shift)

    def test_path_800_pseudoinverse_meets_contract(self):
        g = Graph(800, tuple(path_edges(range(1, 801))))
        lp = symmetric_pseudoinverse(laplacian(g), np.ones(800))  # raises if the contract fails
        # The end-to-end resistance of a unit path is its length.
        assert lp[0, 0] - 2.0 * lp[0, 799] + lp[799, 799] == pytest.approx(799.0, rel=1e-9)


class TestDeterminant:
    def test_forest_count_p2(self):
        assert determinant(np.eye(2) + laplacian(p2())) == pytest.approx(3.0, abs=1e-12)

    def test_forest_count_p4(self):
        assert determinant(np.eye(4) + laplacian(p4())) == pytest.approx(21.0, abs=1e-9)

    def test_laplacian_is_singular(self, small_corpus):
        for g in small_corpus[:8]:
            assert determinant(laplacian(g)) == pytest.approx(0.0, abs=1e-9)

    def test_overflow_raises(self):
        with pytest.raises(NumericError) as refused:
            determinant(np.diag([1e200, 1e200]))
        assert str(refused.value) == "determinant overflows a float: ln|det| = 921.034"


class TestSpectralData:
    def test_p2_exact(self):
        sd = spectral_data(adjacency_matrix(p2()))
        assert sd.rho == pytest.approx(1.0, abs=1e-13)
        assert sd.perron.tolist() == [0.5, 0.5]

    def test_k3_regular(self):
        sd = spectral_data(adjacency_matrix(k3()))
        assert sd.rho == pytest.approx(2.0, abs=1e-13)
        assert np.allclose(sd.perron, 1.0 / 3.0, atol=1e-15)

    def test_p3_sqrt2(self):
        sd = spectral_data(adjacency_matrix(p3()))
        assert sd.rho == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_eigenpair_residual_and_degree_bounds(self, corpus):
        for g in corpus[:40]:
            a = adjacency_matrix(g)
            sd = spectral_data(a)
            assert np.abs(a @ sd.perron - sd.rho * sd.perron).max() <= 1e-9 * sd.rho
            row_sums = a.sum(axis=1)
            assert row_sums.min() - 1e-9 <= sd.rho <= row_sums.max() + 1e-9
            assert np.all(sd.perron > 0)
            assert sd.perron.sum() == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            spectral_data(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("skew, accepted", [(1e-13, True), (1e-10, False)])
    @pytest.mark.parametrize("call", [spectral_data, linalg._spectral_radius], ids=["spectral_data", "radius"])
    def test_asymmetry_tolerance(self, call, skew, accepted):
        a = adjacency_matrix(p3())
        a[0, 1] += skew
        if accepted:
            call(a)
        else:
            with pytest.raises(ParameterError, match="requires a symmetric nonnegative matrix"):
                call(a)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ParameterError):
            spectral_data(np.zeros((2, 2)))

    def test_eigen_residual_refused(self, monkeypatch):
        original = np.linalg.eigh

        def tilted(a):
            values, vectors = original(a)
            vectors[0, -1] += 0.1
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", tilted)
        with pytest.raises(NumericError, match=r"eigen-residual \S+ exceeds 1e-12 \* rho"):
            spectral_data(adjacency_matrix(k3()))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: spectral_data(adjacency_matrix(k3())),
            lambda: linalg._spectral_radius(adjacency_matrix(k3())),
            lambda: long_walk_distance(k3()),
            lambda: rescaled_long_walk_distance(k3()),
            lambda: walk_matrix(k3(), 0.9),  # t above 1/rho: rho words the refusal
        ],
        ids=["spectral_data", "radius", "long_walk", "rescaled_long_walk", "walk"],
    )
    def test_unconverged_eigensolver_is_numeric_error(self, monkeypatch, call):
        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        with pytest.raises(NumericError, match="eigensolver failed: Eigenvalues did not converge"):
            call()

    def test_weights_spread_over_300_orders_give_a_typed_outcome(self):
        # With OpenBLAS's LAPACK, eigh does not converge on this tree; any
        # other exception fails the test.
        edges = ((1, 2, 1e26), (1, 3, 1e-22), (2, 4, 1e-131), (4, 5, 1e-150), (5, 6, 1e-48), (6, 7, 1e33), (1, 8, 1e-124))
        g = Graph(8, edges)
        for call in (lambda: spectral_data(adjacency_matrix(g)), lambda: long_walk_distance(g)):
            with contextlib.suppress(NumericError):
                call()

    def test_tiny_spectral_gap(self):
        # Two K7 cliques, weights 1 and 1.00001, joined by a 20-vertex path:
        # the top two eigenvalues differ by about 6e-5.
        edges = clique_edges(range(1, 8)) + clique_edges(range(8, 15), 1.00001)
        edges += path_edges([7, *range(15, 35), 8])
        a = adjacency_matrix(Graph(34, tuple(edges)))
        sd = spectral_data(a)
        assert np.all(sd.perron > 0.0)
        unit = sd.perron / np.linalg.norm(sd.perron)
        assert np.abs(a @ unit - sd.rho * unit).max() <= 1e-12 * sd.rho


class TestSymmetricPseudoinverse:
    def test_p2_laplacian(self):
        lp = symmetric_pseudoinverse(laplacian(p2()), np.ones(2))
        assert np.allclose(lp, np.array([[1, -1], [-1, 1]]) / 4.0, atol=1e-12)

    def test_para_laplacian_p2_matches(self):
        # On P2 the spectral radius is 1 and rho*I - A equals the Laplacian.
        a = adjacency_matrix(p2())
        sd = spectral_data(a)
        para = sd.rho * np.eye(2) - a
        psi = symmetric_pseudoinverse(para, sd.perron)
        assert np.allclose(psi, np.array([[1, -1], [-1, 1]]) / 4.0, atol=1e-12)

    def test_order_one_rejected(self):
        with pytest.raises(ParameterError, match="order"):
            symmetric_pseudoinverse(np.zeros((1, 1)), np.ones(1))

    def test_wrong_kernel_rejected(self):
        with pytest.raises(ParameterError, match="kernel"):
            symmetric_pseudoinverse(laplacian(p3()), np.array([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize(
        "kernel, message",
        [
            ([1.0, 1.0], "kernel vector must have shape (3,), got (2,)"),
            ([0.0, 0.0, 0.0], "kernel vector must be nonzero"),
            ([np.inf, 1.0, 1.0], "kernel vector has non-finite entries"),
            ([1.0, np.nan, 1.0], "kernel vector has non-finite entries"),
        ],
    )
    def test_malformed_kernel_rejected(self, kernel, message):
        with pytest.raises(ParameterError) as refused:
            symmetric_pseudoinverse(laplacian(p3()), np.array(kernel))
        assert str(refused.value) == message

    @pytest.mark.parametrize("scale", [1.7e308, 1e200, -1e200, 1e-200, 5e-324])
    def test_kernel_at_any_scale(self, scale):
        # Scaled to a largest entry of 1 before its norm is taken, a constant
        # kernel is the all-ones one exactly, whose norm neither overflows
        # nor underflows.
        lap = laplacian(p3())
        expected = symmetric_pseudoinverse(lap, np.ones(3))
        assert symmetric_pseudoinverse(lap, np.full(3, scale)).tobytes() == expected.tobytes()

    def test_indefinite_input_is_symmetrized_after_lu(self):
        # Q diag(1, -1, 2, -3, 0.5, 0) Q^T: m + P is indefinite, so the
        # positive-definite recursion refuses it and LU inverts it.
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))[0]
        m = q @ np.diag([1.0, -1.0, 2.0, -3.0, 0.5, 0.0]) @ q.T
        m = 0.5 * (m + m.T)
        kernel = q[:, 5]
        khat = kernel / np.abs(kernel).max()
        khat /= np.linalg.norm(khat)
        assert linalg._pd_inverse(np.outer(khat, khat) + m) is None
        pinv = symmetric_pseudoinverse(m, kernel)
        assert np.array_equal(pinv, pinv.T)
        assert np.abs(pinv - np.linalg.pinv(m)).max() <= 1e-14

    def test_symmetric_and_annihilates_kernel(self, small_corpus):
        for g in small_corpus[:10]:
            lap = laplacian(g)
            lp = symmetric_pseudoinverse(lap, np.ones(g.n))
            assert np.array_equal(lp, lp.T)
            assert np.abs(lp @ np.ones(g.n)).max() <= 1e-9
            assert np.abs(lp @ lap @ lp - lp).max() <= 1e-9
