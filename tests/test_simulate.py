import numpy as np
import pytest

from conftest import actor_set, random_graph
from ircnet.effects import (ALL_KINDS, STRUCTURAL_KINDS, EffectSpec,
                            ModelSpec, change_row, contribution, statistic)
from ircnet.panel import (ActorCovariate, ActorSet, BinaryNetwork,
                          CovariateSet, DyadCovariate, empty_network)
from ircnet.simulate import (SimState, SimulationError, ministep,
                             simulate_period)

ACTORS3 = ActorSet(("A", "B", "C"))


def density_model(beta, rate):
    return ModelSpec((EffectSpec("density"),), beta=np.array([beta]),
                     rates=np.array([rate]))


def option_probs(model, x, i, covs=None):
    """Hand oracle: multinomial logit over actor i's n options."""
    n = x.shape[0]
    beta = model.beta
    deltas = np.zeros(n)
    for j in range(n):
        if j == i:
            continue
        d = 0.0
        for k, eff in enumerate(model.effects):
            from ircnet.effects import change_statistic
            net = BinaryNetwork(actor_set(n), 0, x)
            d += beta[k] * change_statistic(eff, net, i, j, covs, 0)
        deltas[j] = d
    w = np.exp(deltas - deltas.max())
    return w / w.sum()


def exact_stationary_density(beta, lam=1.0):
    """8-state generator of the n=3 density-only forcing chain, solved exactly."""
    dyads = [(0, 1), (0, 2), (1, 2)]
    q = np.zeros((8, 8))
    for s in range(8):
        x = np.zeros((3, 3))
        for k, (i, j) in enumerate(dyads):
            if (s >> k) & 1:
                x[i, j] = x[j, i] = 1
        for k, (i, j) in enumerate(dyads):
            rate = 0.0
            for actor, other in ((i, j), (j, i)):
                deltas = np.zeros(3)
                for partner in range(3):
                    if partner != actor:
                        deltas[partner] = beta * (1.0 if x[actor, partner] == 0 else -1.0)
                w = np.exp(deltas - deltas.max())
                rate += lam * (w / w.sum())[other]
            q[s, s ^ (1 << k)] = rate
        q[s, s] = -q[s].sum()
    a = np.vstack([q.T, np.ones(8)])
    b = np.zeros(9)
    b[-1] = 1
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def state_index(net):
    return int(net.x[0, 1] + 2 * net.x[0, 2] + 4 * net.x[1, 2])


class TestMinistep:
    def test_uniform_options_at_zero_beta(self, rng):
        # all betas zero: each of the n options (keep or toggle) is 1/n
        n = 4
        model = ModelSpec((EffectSpec("density"),), beta=np.array([0.0]),
                          rates=np.array([1.0]))
        for graph_p in (0.0, 0.5):
            net = random_graph(rng, n, graph_p)
            for i in range(n):
                p = option_probs(model, net.x.astype(float), i)
                assert np.allclose(p, 1.0 / n)

    def test_large_negative_beta_drops_ties(self):
        # dense start, beta = -10: keep/drop probabilities concentrate on drops
        n = 5
        x = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
        model = ModelSpec((EffectSpec("density"),), beta=np.array([-10.0]),
                          rates=np.array([1.0]))
        p = option_probs(model, x.astype(float), 0)
        drop_mass = p[[j for j in range(n) if j != 0]].sum()
        assert drop_mass > 1 - 1e-3

    def test_n3_option_probabilities_all_states(self):
        # every state of the 8-state chain matches the hand-computed logit
        model = density_model(0.5, 1.0)
        for s in range(8):
            x = np.zeros((3, 3))
            for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
                if (s >> k) & 1:
                    x[i, j] = x[j, i] = 1
            state = SimState(BinaryNetwork(ACTORS3, 0, x.astype(np.int8)), model)
            for i in range(3):
                deltas = state.objective_delta_row(i)
                deltas[i] = 0.0
                w = np.exp(deltas - deltas.max())
                got = w / w.sum()
                expected = option_probs(model, x, i)
                assert np.allclose(got, expected)

    def test_nonfinite_objective_raises(self):
        # at -inf every toggle's weight is exp(-inf) = 0 and only the keep
        # option has mass: the max and the cumulative sum stay finite
        for beta in (np.inf, -np.inf):
            model = density_model(beta, 1.0)
            state = SimState(empty_network(ACTORS3), model,
                             rng=np.random.default_rng(0))
            with pytest.raises(SimulationError):
                for _ in range(50):
                    ministep(state)

    def test_symmetry_preserved(self, rng):
        n = 8
        model = density_model(0.0, 5.0)
        start = random_graph(rng, n, 0.3)
        end, _, _ = simulate_period(start, model, None, 0, seed=3)
        assert np.array_equal(end.x, end.x.T)
        assert np.all(np.diagonal(end.x) == 0)


class TestSimulatePeriod:
    def test_tiny_rate_leaves_network_unchanged(self, rng):
        # rate -> 0+ freezes the network: total rate n * lambda, so the
        # no-step probability is exp(-n * lambda)
        n = 10
        start = random_graph(rng, n, 0.3)
        for lam, bound in ((0.001, 990), (0.01, 880)):
            model = density_model(0.0, lam)
            unchanged = 0
            for r in range(1000):
                _, _, changed = simulate_period(start, model, None, 0, seed=r)
                unchanged += changed == 0
            assert unchanged >= bound

    def test_seed_determinism(self, rng):
        n = 8
        start = random_graph(rng, n, 0.3)
        model = density_model(-0.5, 3.0)
        a, sa, _ = simulate_period(start, model, None, 0, seed=42)
        b, sb, _ = simulate_period(start, model, None, 0, seed=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(sa, sb)

    def test_expected_ministep_count(self):
        # mean steps per period ~ n * lambda within 5%
        n, lam = 10, 2.0
        model = density_model(0.0, lam)
        start = empty_network(actor_set(n))
        rng = np.random.default_rng(99)
        total = 0
        runs = 10000
        for _ in range(runs):
            state = SimState(start, model, rng=rng)
            while state.t < 1.0:
                ministep(state)
            total += state.steps
        assert total / runs == pytest.approx(n * lam, rel=0.05)

    @pytest.mark.slow
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5])
    def test_stationary_distribution(self, beta):
        pi = exact_stationary_density(beta)
        model = density_model(beta, 5.0)
        rng = np.random.default_rng(7)
        x = empty_network(ACTORS3)
        counts = np.zeros(8)
        for rep in range(9000):
            x, _, _ = simulate_period(x, model, None, 0, rng=rng)
            if rep >= 500:
                counts[state_index(x)] += 1
        emp = counts / counts.sum()
        assert 0.5 * np.abs(emp - pi).sum() < 0.02

    def test_pairwise_conjunctive_runs(self, rng):
        n = 8
        start = random_graph(rng, n, 0.2)
        model = ModelSpec((EffectSpec("density"),), beta=np.array([0.5]),
                          rates=np.array([3.0]), model_type="pairwise-conjunctive")
        end, _, _ = simulate_period(start, model, None, 0, seed=5)
        assert np.array_equal(end.x, end.x.T)


def kernel_covs(rng, n):
    vals = rng.random((n, 1))
    vals[rng.random((n, 1)) < 0.2] = np.nan
    vals[0, 0] = 0.5  # at least one observed value
    d = rng.random((n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0)
    return (CovariateSet().add(ActorCovariate("ac", vals))
            .add(DyadCovariate("dist", d)))


COVARIATE_OF = {"egoPlusAltX": "ac", "egoPlusAltSqX": "ac", "simX": "ac",
                "dyadX": "dist"}


def effect_of(kind):
    return EffectSpec(kind, COVARIATE_OF.get(kind))


FULL_MODEL_EFFECTS = tuple(effect_of(k) for k in ALL_KINDS)


class TestKernel:
    """The values SimState maintains per toggle against a rebuild from x."""

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_maintained_state_matches_rebuild(self, rng, rule):
        beta = np.array([-1.0, 0.6, -0.05, 0.4, -0.3, 0.8, 0.5])
        assert len(beta) == len(FULL_MODEL_EFFECTS)
        for n in (4, 11, 30):
            covs = kernel_covs(rng, n)
            for p in (0.05, 0.3, 0.7):
                model = ModelSpec(FULL_MODEL_EFFECTS, beta=beta,
                                  rates=np.array([6.0]), model_type=rule)
                state = SimState(random_graph(rng, n, p), model, covs, 0,
                                 np.random.default_rng(n))
                toggles = 0
                while state.t < 1.0:
                    before = state.deg.sum()
                    ministep(state)
                    toggles += state.deg.sum() != before
                    x = state.x
                    off = ~np.eye(n, dtype=bool)
                    assert np.array_equal(state.esp[off], (x @ x)[off])
                    fresh = SimState(BinaryNetwork(actor_set(n), 0,
                                                   x.astype(np.int8)),
                                     model, covs, 0)
                    assert np.array_equal(state.deg, fresh.deg)
                    assert np.array_equal(state.sign, fresh.sign)
                    assert np.array_equal(state.fixed, fresh.fixed)
                assert toggles > 0

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_period_totals_match_statistic(self, rng, kind, rule):
        # simulated totals and observed targets read one formula: the
        # totals a period returns are the masked statistic of its end network
        eff = effect_of(kind)
        effects = (EffectSpec("density"),) + ((eff,) if kind != "density" else ())
        beta = np.array([-0.7, 0.4][:len(effects)])
        for n in (5, 17):
            covs = kernel_covs(rng, n)
            assert covs.actor["ac"].missing.any()
            model = ModelSpec(effects, beta=beta, rates=np.array([4.0]),
                              model_type=rule)
            for p in (0.1, 0.5):
                end, totals, _ = simulate_period(random_graph(rng, n, p), model,
                                                 covs, 0, seed=n)
                expected = [statistic(e, end, covs, 0, use_mask=True)[0]
                            for e in effects]
                assert totals.tolist() == expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_partner_entry_matches_full_row(self, rng, kind):
        eff = effect_of(kind)
        effects = (EffectSpec("density"),) + ((eff,) if kind != "density" else ())
        beta = np.array([-0.7, 0.9][:len(effects)])
        for n in (3, 9, 20):
            covs = kernel_covs(rng, n)
            for p in (0.1, 0.4, 0.8):
                model = ModelSpec(effects, beta=beta, rates=np.array([1.0]),
                                  model_type="pairwise-conjunctive")
                state = SimState(random_graph(rng, n, p), model, covs, 0)
                contrib = (None if kind in STRUCTURAL_KINDS
                           else contribution(eff, covs, 0)[0])
                for j in range(n):
                    row = state.objective_delta_row(j)
                    eff_row = change_row(eff, state, j, contrib)
                    for i in range(n):
                        if i == j:
                            continue
                        assert state.partner_delta(j, i) == pytest.approx(
                            row[i], rel=1e-12, abs=1e-12)
                        assert state.change_entry(eff, j, i, contrib) == \
                            pytest.approx(eff_row[i], rel=1e-12, abs=1e-12)
