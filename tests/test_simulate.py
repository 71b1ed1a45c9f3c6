import numpy as np
import pytest

from conftest import actor_set, random_graph, toggled
import ircnet.simulate as simulate
from ircnet.effects import (ALL_KINDS, STRUCTURAL_KINDS, EffectSpec,
                            ModelSpec, NetState, contribution, statistic)
from ircnet.panel import (ActorCovariate, ActorSet, BinaryNetSeries,
                          BinaryNetwork, CovariateSet, DyadCovariate,
                          empty_network)
from ircnet.simulate import (Lanes, SimulationError, Task, ministep,
                             panel_stats, simulate_panel, simulate_period)

ACTORS3 = ActorSet(("A", "B", "C"))


LANE0 = np.zeros(1, dtype=np.intp)


def one_lane(start, model, covs=None, period=0, stream=None):
    """The lockstep state of one task from the network `start`."""
    return Lanes([Task(start, model, period, stream)], covs)


def density_model(beta, rate, rule="forcing"):
    return ModelSpec((EffectSpec("density"),), beta=np.array([beta]),
                     rates=np.array([rate]), model_type=rule)


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


def exact_stationary_density(beta, rule="forcing", lam=1.0):
    """8-state generator of the n=3 density-only chain, solved exactly. Under
    the pairwise-conjunctive rule an addition also needs the partner to
    agree, with probability sigma(beta): its own change for the tie is beta."""
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
            if rule == "pairwise-conjunctive" and x[i, j] == 0:
                rate /= 1.0 + np.exp(-beta)
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
            state = one_lane(BinaryNetwork(ACTORS3, 0, x.astype(np.int8)), model)
            for i in range(3):
                deltas = state.objective(LANE0, np.array([i]))[0]
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
            state = one_lane(empty_network(ACTORS3), model,
                             stream=np.random.default_rng(0))
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
            state = one_lane(start, model, stream=rng)
            while state.live.size:
                ministep(state)
            total += state.steps
        assert total / runs == pytest.approx(n * lam, rel=0.05)

    @pytest.mark.slow
    @pytest.mark.parametrize("beta,rule", [
        pytest.param(beta, rule, id=f"{beta}" if rule == "forcing"
                     else f"{beta}-{rule}")
        for rule in ("forcing", "pairwise-conjunctive")
        for beta in (-1.0, 0.0, 0.5)])
    def test_stationary_distribution(self, beta, rule):
        pi = exact_stationary_density(beta, rule)
        model = density_model(beta, 5.0, rule)
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


def kernel_tasks(rng, n, rule, covs, count, effects=FULL_MODEL_EFFECTS):
    """`count` tasks on n actors that differ in start, period, beta and rate."""
    starts = [random_graph(rng, n, p) for p in (0.05, 0.3, 0.7)]
    tasks = []
    for k in range(count):
        beta = rng.normal(0.0, 0.5, len(effects))
        beta[0] = rng.uniform(-1.5, 0.0)
        model = ModelSpec(effects, beta=beta, rates=rng.uniform(1.0, 6.0, 2),
                          model_type=rule)
        tasks.append(Task(starts[k % 3], model, k % 2,
                          np.random.SeedSequence([n, k]), keep_end=k % 2 == 0))
    return tasks


class TestKernel:
    """The values the lanes maintain per toggle against a rebuild from x,
    and results that do not depend on the lanes a task shares."""

    @staticmethod
    def check_rebuild(rng, rule, keep):
        """Lanes on the effects FULL_MODEL_EFFECTS[keep], one per start
        density; x and deg of every lane checked against a rebuild from x
        after every step."""
        beta = np.array([-1.0, 0.6, -0.05, 0.4, -0.3, 0.8, 0.5])
        assert len(beta) == len(FULL_MODEL_EFFECTS)
        effects = tuple(FULL_MODEL_EFFECTS[k] for k in keep)
        for n in (4, 11, 30):
            covs = kernel_covs(rng, n)
            model = ModelSpec(effects, beta=beta[keep],
                              rates=np.array([6.0]), model_type=rule)
            tasks = [Task(random_graph(rng, n, p), model, 0,
                          np.random.SeedSequence([n, k]))
                     for k, p in enumerate((0.05, 0.3, 0.7))]
            state = Lanes(tasks, covs)
            toggles = np.zeros(len(tasks), dtype=int)
            while state.live.size:
                before = state.deg.sum(axis=1)
                ministep(state)
                toggles += state.deg.sum(axis=1) != before
                fresh = NetState(state.x)
                assert np.array_equal(state.x, state.x.transpose(0, 2, 1))
                assert np.array_equal(state.deg, fresh.deg)
            assert np.all(toggles > 0)

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_maintained_state_matches_rebuild(self, rng, rule):
        self.check_rebuild(rng, rule, list(range(len(FULL_MODEL_EFFECTS))))

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_lanes_keep_no_esp_without_gwesp(self, rng, rule):
        self.check_rebuild(rng, rule, [k for k, eff in enumerate(FULL_MODEL_EFFECTS)
                                       if eff.kind != "gwesp"])

    def test_gwesp_rows_match_statistic_difference(self, rng):
        """Every gwesp change row of a three-lane state against actor i's
        statistic after and before the toggle."""
        n, gwesp = 11, EffectSpec("gwesp")
        x = np.stack([random_graph(rng, n, p).x for p in (0.05, 0.3, 0.7)])
        x[:, 4] = x[:, :, 4] = 0        # actor 4 isolated in every lane
        nets = [BinaryNetwork(actor_set(n), 0, lane) for lane in x]
        state = NetState(x)
        lanes, i = np.repeat(np.arange(3), n), np.tile(np.arange(n), 3)
        rows = state.change_rows(gwesp, lanes, i)
        for r, (lane, actor) in enumerate(zip(lanes, i)):
            before = statistic(gwesp, nets[lane])[1][actor]
            others = np.delete(np.arange(n), actor)
            diff = [statistic(gwesp, toggled(nets[lane], actor, j))[1][actor]
                    - before for j in others]
            np.testing.assert_allclose(rows[r, others], diff, rtol=1e-12,
                                       atol=1e-12)

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_results_do_not_depend_on_lane_cap_or_batch(self, rng, rule,
                                                         monkeypatch):
        n = 13
        covs = kernel_covs(rng, n)
        tasks = kernel_tasks(rng, n, rule, covs, 12)
        reference = simulate_period(tasks, covs=covs)
        runs = []
        for cap in (1, 3):
            monkeypatch.setattr(simulate, "LANE_CAP", cap)
            runs.append((list(range(12)), simulate_period(tasks, covs=covs)))
        monkeypatch.undo()
        # other mixes: reversed, and every third task alone with a stranger
        order = list(range(11, -1, -1))
        runs.append((order, simulate_period([tasks[k] for k in order], covs=covs)))
        stranger = kernel_tasks(rng, n, rule, covs, 1)[0]
        for k in range(0, 12, 3):
            runs.append(([k], simulate_period([stranger, tasks[k]],
                                              covs=covs)))
        for order, (totals, changed, ends) in runs:
            skip = len(totals) - len(order)     # the stranger comes first
            for pos, k in enumerate(order):
                assert totals[skip + pos].tobytes() == reference[0][k].tobytes()
                assert changed[skip + pos] == reference[1][k]
                if tasks[k].keep_end:
                    assert np.array_equal(ends[skip + pos], reference[2][k])
                else:
                    assert ends[skip + pos] is None
        assert len(set(reference[1].tolist())) > 3   # the tasks differ

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


class TestFold:
    """The objective's folded matrices: one per distinct (beta, period)."""

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_objective_equals_weighted_change_rows(self, rng, rule):
        n = 13
        covs = kernel_covs(rng, n)
        tasks = kernel_tasks(rng, n, rule, covs, 6)
        state = Lanes(tasks, covs)
        assert len({t.period for t in tasks}) > 1
        assert len({t.model.beta.tobytes() for t in tasks}) == len(tasks)
        lanes, i = np.repeat(np.arange(6), n), np.tile(np.arange(n), 6)
        expected = np.zeros((lanes.size, n))
        for k, eff in enumerate(FULL_MODEL_EFFECTS):
            contrib = None
            if eff.kind not in STRUCTURAL_KINDS:
                stack, _ = contribution(eff, covs)
                contrib = stack[np.minimum([t.period for t in tasks],
                                           len(stack) - 1)][lanes, i]
            expected += (state.beta[lanes, k, None]
                         * state.change_rows(eff, lanes, i, contrib))
        got = state.objective(lanes, i)
        off = np.arange(n) != i[:, None]        # entry i is not an option
        np.testing.assert_allclose(got[off], expected[off], rtol=1e-12,
                                   atol=1e-12)

    def test_one_matrix_per_beta_and_period(self, rng, monkeypatch):
        n = 9
        covs = kernel_covs(rng, n)
        betas = [rng.normal(0.0, 0.5, len(FULL_MODEL_EFFECTS)) for _ in range(3)]
        start = random_graph(rng, n, 0.3)
        tasks = [Task(start, ModelSpec(FULL_MODEL_EFFECTS, beta=betas[k % 3],
                                       rates=np.array([2.0, 3.0])),
                      k % 2, np.random.SeedSequence(k)) for k in range(24)]
        held = []

        class Counted(Lanes):
            def __init__(self, chunk, *args):
                super().__init__(chunk, *args)
                keys = {(t.model.beta.tobytes(), t.period) for t in chunk}
                held.append((len(self.folded), len(keys)))

        monkeypatch.setattr(simulate, "Lanes", Counted)
        simulate_period(tasks, covs=covs)
        assert held == [(6, 6)]     # task k: beta k % 3, period k % 2
        monkeypatch.setattr(simulate, "LANE_CAP", 5)
        held.clear()
        simulate_period(tasks, covs=covs)
        assert len(held) == 5
        assert all(count <= keys for count, keys in held)


class TestSimulatePanel:
    """Replicates of a panel simulated as one batch."""

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_replicates_equal_one_replicate_calls(self, rng, rule):
        n, waves, replicates = 11, 4, 5
        covs = kernel_covs(rng, n)
        panel = BinaryNetSeries(tuple(random_graph(rng, n, 0.2, year=2000 + m)
                                      for m in range(waves)))
        beta = np.array([-1.0, 0.6, -0.05, 0.4, -0.3, 0.8, 0.5])
        model = ModelSpec(FULL_MODEL_EFFECTS, beta=beta,
                          rates=np.array([2.0, 3.5, 1.5]), model_type=rule)
        stats, finals = simulate_panel(panel, model, covs,
                                       np.random.default_rng(4),
                                       replicates=replicates)
        assert stats.shape == (replicates, waves - 1 + len(beta))
        assert len(finals) == replicates
        one_rng = np.random.default_rng(4)
        for r in range(replicates):
            one_stats, one_finals = simulate_panel(panel, model, covs, one_rng)
            assert stats[r].tobytes() == one_stats[0].tobytes()
            assert finals[r].x.tobytes() == one_finals[0].x.tobytes()
            assert finals[r].year == panel.wave(waves - 1).year

    @pytest.mark.parametrize("effects", [1, 4])
    def test_stacked_panel_stats_equal_per_replicate(self, rng, effects):
        changed = rng.integers(0, 40, (3, 2, 10))
        totals = rng.normal(0.0, 50.0, (3, 2, 10, effects))
        stacked = panel_stats(changed, totals)
        assert stacked.shape == (3, 2, 10 + effects)
        for idx in np.ndindex(3, 2):
            one = panel_stats(changed[idx], totals[idx])
            assert stacked[idx].tobytes() == one.tobytes()


class TestScores:
    """The beta-score a batch accumulates with `scores`."""

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_scores_leave_paths_unchanged(self, rng, rule):
        n = 13
        covs = kernel_covs(rng, n)
        tasks = kernel_tasks(rng, n, rule, covs, 12)
        plain = simulate_period(tasks, covs=covs)
        totals, changed, ends, score, info = simulate_period(tasks, covs=covs,
                                                             scores=True)
        assert totals.tobytes() == plain[0].tobytes()
        assert np.array_equal(changed, plain[1])
        assert all(a is None and b is None or np.array_equal(a, b)
                   for a, b in zip(ends, plain[2]))
        q = len(FULL_MODEL_EFFECTS)
        assert score.shape == (12, q) and info.shape == (12, q, q)
        assert np.allclose(info, info.transpose(0, 2, 1))

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_score_mean_zero_and_covariance_equals_information(self, rng, rule):
        # E[G] = 0 and Cov(G) = E[sum of per-step conditional covariances]
        n, runs = 8, 4000
        covs = kernel_covs(rng, n)
        beta = np.array([-1.0, 0.3, -0.05, 0.4, -0.3, 0.8, 0.5])
        model = ModelSpec(FULL_MODEL_EFFECTS, beta=beta, rates=np.array([3.0]),
                          model_type=rule)
        start = random_graph(rng, n, 0.3)
        tasks = [Task(start, model, 0, np.random.SeedSequence([7, r]))
                 for r in range(runs)]
        _, _, _, score, info = simulate_period(tasks, covs=covs, scores=True)
        se = score.std(axis=0, ddof=1) / np.sqrt(runs)
        assert np.all(np.abs(score.mean(axis=0)) < 4 * se)
        var = score.var(axis=0, ddof=1)
        assert np.all(np.abs(var / np.diagonal(info.mean(axis=0)) - 1) < 0.15)

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_scores_of_some_tasks(self, rng, rule, monkeypatch):
        # scores asked per task come back in task order, equal to those of
        # a batch where every task asks, whatever the chunks hold
        n = 11
        covs = kernel_covs(rng, n)
        tasks = kernel_tasks(rng, n, rule, covs, 10)
        _, _, _, score, info = simulate_period(tasks, covs=covs, scores=True)
        asks = np.arange(10) >= 8     # at cap 4, tasks 4-7 ask for none
        asks[1] = True
        for cap in (128, 4):
            monkeypatch.setattr(simulate, "LANE_CAP", cap)
            *_, some, some_info = simulate_period(tasks, covs=covs, scores=asks)
            assert some.tobytes() == score[asks].tobytes()
            assert some_info.tobytes() == info[asks].tobytes()
