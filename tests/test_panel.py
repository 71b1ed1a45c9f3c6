import numpy as np
import pytest

from conftest import actor_set, random_graph
from ircnet.panel import (ActorCovariate, ActorSet, BinaryNetwork,
                          BinaryNetSeries, DyadCovariate, PanelError,
                          WeightedNetwork, degree_sequence, density,
                          edge_count, empty_network, hamming, isolate_count)


def complete_k3():
    x = np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8)
    return BinaryNetwork(actor_set(3), 0, x)


def path_abc():
    x = np.zeros((3, 3), dtype=np.int8)
    x[0, 1] = x[1, 0] = 1
    x[1, 2] = x[2, 1] = 1
    return BinaryNetwork(actor_set(3), 0, x)


class TestActorSet:
    def test_sorted_and_unique(self):
        a = ActorSet(("NLD", "CHN", "USA"))
        assert a.ids == ("CHN", "NLD", "USA")
        assert a.index("NLD") == 1
        assert "USA" in a and "ATL" not in a

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PanelError):
            ActorSet(("USA", "USA"))


class TestNetworkValidation:
    def test_asymmetric_rejected(self):
        x = np.zeros((3, 3), dtype=np.int8)
        x[0, 1] = 1
        with pytest.raises(PanelError):
            BinaryNetwork(actor_set(3), 0, x)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(PanelError):
            WeightedNetwork(actor_set(2), 0, np.eye(2, dtype=int))

    def test_negative_weight_rejected(self):
        w = np.zeros((2, 2), dtype=int)
        w[0, 1] = w[1, 0] = -1
        with pytest.raises(PanelError):
            WeightedNetwork(actor_set(2), 0, w)

    def test_series_requires_shared_actor_set(self):
        with pytest.raises(PanelError):
            BinaryNetSeries((empty_network(actor_set(3), 1),
                             empty_network(actor_set(4), 2)))


class TestDegreeSequence:
    def test_empty_network(self):
        assert degree_sequence(empty_network(actor_set(4))).tolist() == [0, 0, 0, 0]

    def test_complete_k3(self):
        assert degree_sequence(complete_k3()).tolist() == [2, 2, 2]

    def test_path(self):
        assert degree_sequence(path_abc()).tolist() == [1, 2, 1]

    def test_sums_to_twice_edge_count(self, rng):
        for _ in range(1000):
            net = random_graph(rng, int(rng.integers(2, 15)), rng.random())
            assert degree_sequence(net).sum() == 2 * edge_count(net)


class TestDensity:
    @pytest.mark.parametrize("edges,expected", [(289, 0.021), (1632, 0.119), (0, 0.0)])
    def test_166_node_values(self, edges, expected):
        n = 166
        x = np.zeros((n, n), dtype=np.int8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:edges]
        for i, j in pairs:
            x[i, j] = x[j, i] = 1
        assert round(density(BinaryNetwork(actor_set(n), 0, x)), 3) == expected

    def test_degenerate_n(self):
        with pytest.raises(PanelError):
            density(empty_network(actor_set(1)))

    def test_density_recovers_integer_edge_count(self, rng):
        for _ in range(200):
            net = random_graph(rng, int(rng.integers(2, 20)), rng.random())
            n = net.actors.n
            e = density(net) * n * (n - 1) / 2
            assert abs(e - round(e)) < 1e-9
            assert round(e) == edge_count(net)


class TestIsolates:
    def test_empty(self):
        assert isolate_count(empty_network(actor_set(5))) == 5

    def test_complete(self):
        assert isolate_count(complete_k3()) == 0

    def test_single_edge_among_166(self):
        n = 166
        x = np.zeros((n, n), dtype=np.int8)
        x[0, 1] = x[1, 0] = 1
        assert isolate_count(BinaryNetwork(actor_set(n), 0, x)) == 164


class TestCovariates:
    def test_centering_zero_mean(self, rng):
        vals = rng.random((20, 5))
        mask = rng.random((20, 5)) < 0.2
        cov = ActorCovariate("c", np.where(mask, np.nan, vals))
        centered = np.concatenate([cov.centered(p)[cov.observed(p)]
                                   for p in range(5)])
        assert abs(centered.mean()) < 1e-12

    def test_missing_entries_center_to_zero(self):
        vals = np.array([[1.0], [np.nan], [3.0]])
        cov = ActorCovariate("c", vals)
        assert cov.centered(0)[1] == 0.0
        assert cov.grand_mean == 2.0
        assert cov.value_range == 2.0

    def test_similarity_mean_matches_pairs(self, rng):
        vals = rng.random((7, 3))
        vals[[0, 5], 0] = np.nan
        vals[3, 2] = np.nan
        cov = ActorCovariate("c", vals)
        span = np.nanmax(vals) - np.nanmin(vals)
        sims = [1.0 - abs(vals[i, p] - vals[j, p]) / span
                for p in range(3) for i in range(7) for j in range(i + 1, 7)
                if not np.isnan(vals[i, p]) and not np.isnan(vals[j, p])]
        assert len(sims) == 10 + 21 + 15
        assert cov.similarity_mean == pytest.approx(np.mean(sims), rel=1e-12)
        assert ActorCovariate("k", np.full((4, 2), 3.0)).similarity_mean == 1.0

    def test_log1p_transform(self):
        cov = ActorCovariate.from_raw("c", [[0.0], [np.e - 1]], transform="log1p")
        assert np.allclose(cov.values[:, 0], [0.0, 1.0])

    @pytest.mark.parametrize("raw", [-1.0, -0.5, -3.0])
    def test_log1p_rejects_negative_raw_value(self, raw):
        # log1p(-1) is -inf and log1p(< -1) is nan: neither is a value
        with pytest.raises(PanelError, match="covariate gdp"):
            ActorCovariate.from_raw("gdp", [[1.0], [raw]], transform="log1p")
        with pytest.raises(PanelError, match="covariate dist"):
            DyadCovariate.from_raw("dist", [[0.0, raw], [raw, 0.0]],
                                   transform="log1p")

    def test_log1p_keeps_nan_missing(self):
        cov = ActorCovariate.from_raw("gdp", [[np.nan], [0.0]], transform="log1p")
        assert cov.missing[:, 0].tolist() == [True, False]
        assert cov.values[1, 0] == 0.0

    def test_constant_covariate_broadcasts(self):
        cov = ActorCovariate("c", np.array([[1.0], [2.0]]))
        assert np.array_equal(cov.filled(7), cov.filled(0))

    def test_dyad_centering_ignores_diagonal(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        cov = DyadCovariate("d", m)
        assert cov.centering_constant == 2.0
        assert cov.centered()[0, 0] == 0.0


def test_hamming_counts_dyads():
    a = empty_network(actor_set(4))
    x = a.x.copy()
    x[0, 1] = x[1, 0] = 1
    b = BinaryNetwork(a.actors, 0, x)
    assert hamming(a, b) == 1
    assert hamming(a, a) == 0
