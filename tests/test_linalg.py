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
    spectral_data,
    symmetric_pseudoinverse,
)

from conftest import clique_edges, k3, p2, p3, p4, path_edges


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


class TestDeterminant:
    def test_forest_count_p2(self):
        assert determinant(np.eye(2) + laplacian(p2())) == pytest.approx(3.0, abs=1e-12)

    def test_forest_count_p4(self):
        assert determinant(np.eye(4) + laplacian(p4())) == pytest.approx(21.0, abs=1e-9)

    def test_laplacian_is_singular(self, small_corpus):
        for g in small_corpus[:8]:
            assert determinant(laplacian(g)) == pytest.approx(0.0, abs=1e-9)


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

    def test_zero_matrix_rejected(self):
        with pytest.raises(ParameterError):
            spectral_data(np.zeros((2, 2)))

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

    def test_symmetric_and_annihilates_kernel(self, small_corpus):
        for g in small_corpus[:10]:
            lap = laplacian(g)
            lp = symmetric_pseudoinverse(lap, np.ones(g.n))
            assert np.array_equal(lp, lp.T)
            assert np.abs(lp @ np.ones(g.n)).max() <= 1e-9
            assert np.abs(lp @ lap @ lp - lp).max() <= 1e-9
