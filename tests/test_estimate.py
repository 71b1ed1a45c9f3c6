from dataclasses import replace

import numpy as np
import pytest

from conftest import actor_set, random_graph
import ircnet.estimate as estimate_module
from ircnet.effects import EffectSpec, ModelSpec
from ircnet.estimate import (DivergenceError, EstimationError,
                             EstimationOptions, EstimationResult,
                             OptionRangeError,
                             SingularDerivativeError,
                             estimate, initialize,
                             observed_targets, p_value, p_values,
                             phase1_derivative, phase2_update, phase3_finalize,
                             stars)
from ircnet.panel import (ActorCovariate, BinaryNetwork, BinaryNetSeries,
                          CovariateSet, empty_network)
from ircnet.simulate import simulate_panel, simulate_period


def make_panel(rng, n, waves, model=None, covs=None, start_p=0.1, seed=0):
    """Simulate a panel from a generating model (or random waves if None)."""
    net = random_graph(rng, n, start_p, year=2000)
    waves_list = [net]
    gen_rng = np.random.default_rng(seed)
    for m in range(waves - 1):
        if model is None:
            nxt = random_graph(rng, n, start_p, year=2001 + m)
        else:
            end, _, _ = simulate_period(waves_list[-1], model, covs, m, rng=gen_rng)
            nxt = BinaryNetwork(net.actors, 2001 + m, end.x)
        waves_list.append(nxt)
    return BinaryNetSeries(tuple(waves_list))


def density_model(n_effects_extra=()):
    return ModelSpec((EffectSpec("density"),) + tuple(n_effects_extra))


class TestInitialize:
    def test_identical_waves_floor(self, rng):
        net = random_graph(rng, 10, 0.2)
        panel = BinaryNetSeries((net, BinaryNetwork(net.actors, 2001, net.x)))
        theta0 = initialize(panel, density_model())
        assert theta0[0] == 0.5

    def test_one_toggle_scales_inverse_n(self, rng):
        n = 10
        a = empty_network(actor_set(n), 2000)
        x = a.x.copy()
        x[0, 1] = x[1, 0] = 1
        panel = BinaryNetSeries((a, BinaryNetwork(a.actors, 2001, x)))
        theta0 = initialize(panel, density_model())
        assert theta0[0] == pytest.approx(2.0 * 1 * n / (n - 1) / n)

    def test_structure_for_30_wave_panel(self, rng):
        panel = make_panel(rng, 8, 30, start_p=0.3)
        effects = (EffectSpec("density"), EffectSpec("gwesp"), EffectSpec("degPlus"))
        theta0 = initialize(panel, ModelSpec(effects))
        assert len(theta0) == 29 + 3
        assert theta0[29] == -1.0           # density start
        assert np.all(theta0[30:] == 0.0)   # other effects start at 0


class TestPhase1:
    def test_density_derivative_positive(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([2.0]), beta=np.array([-1.0]))
        panel = make_panel(rng, 10, 2, model)
        theta0 = initialize(panel, model)
        opts = EstimationOptions(n1=20, seed=1)
        d = phase1_derivative(theta0, panel, model, None, opts)
        assert d[1, 1] > 0  # expected edge count rises with the density parameter

    def test_duplicated_effect_is_singular(self, rng):
        effects = (EffectSpec("density"), EffectSpec("degPlus"),
                   EffectSpec("degPlus"))
        model = ModelSpec(effects, rates=np.array([2.0]),
                          beta=np.array([-1.0, 0.0, 0.0]))
        panel = make_panel(rng, 8, 2, model)
        theta0 = initialize(panel, model)
        with pytest.raises(SingularDerivativeError):
            phase1_derivative(theta0, panel, model, None,
                              EstimationOptions(n1=10, seed=2))

    def test_matches_oversampled_oracle_on_diagonal(self, rng):
        # high-precision finite differences with 10x simulations
        effects = (EffectSpec("density"), EffectSpec("degPlus"))
        model = ModelSpec(effects, rates=np.array([2.0]),
                          beta=np.array([-1.5, 0.05]))
        panel = make_panel(rng, 12, 2, model)
        theta0 = np.array([2.0, -1.5, 0.05])
        fast = phase1_derivative(theta0, panel, model, None,
                                 EstimationOptions(n1=40, seed=3))
        slow = phase1_derivative(theta0, panel, model, None,
                                 EstimationOptions(n1=400, seed=4))
        # the rate diagonal is small and noisy; compare effect diagonals
        assert fast[0, 0] >= 0.0
        for k in (1, 2):
            assert fast[k, k] == pytest.approx(slow[k, k], rel=0.25)

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_score_columns_match_central_differences(self, rng, rule,
                                                     monkeypatch):
        # the effects' score-function columns against central finite
        # differences (step 0.05) of the same expectations
        effects = (EffectSpec("density"), EffectSpec("gwesp"),
                   EffectSpec("egoPlusAltX", "ac"))
        model = ModelSpec(effects, rates=np.full(2, 2.5),
                          beta=np.array([-1.2, 0.4, 0.5]), model_type=rule)
        covs = CovariateSet().add(ActorCovariate("ac", rng.random((12, 2))))
        panel = make_panel(rng, 12, 3, model, covs, start_p=0.2, seed=3)
        theta = np.array([2.5, 2.5, -1.2, 0.4, 0.5])
        score = phase1_derivative(theta, panel, model, covs,
                                  EstimationOptions(n1=1000, seed=1))
        monkeypatch.setattr(estimate_module, "SCORE_REPLICATES", 10**6)
        central = sum(phase1_derivative(theta, panel, model, covs,
                                        EstimationOptions(n1=1000, seed=2,
                                                          derivative_step=step),
                                        check=False)
                      for step in (0.05, -0.05)) / 2
        block = np.s_[2:, 2:]
        scale = np.abs(central[block]).max()
        assert np.abs(score[block] - central[block]).max() < 0.15 * scale


class TestRateColumns:
    """Rate m moves period m alone, so its column re-simulates period m."""

    def long_panel(self, rng, rule):
        effects = (EffectSpec("density"), EffectSpec("gwesp"),
                   EffectSpec("egoPlusAltX", "ac"))
        model = ModelSpec(effects, rates=np.full(4, 2.0),
                          beta=np.array([-1.2, 0.4, 0.5]), model_type=rule)
        covs = CovariateSet().add(ActorCovariate("ac", rng.random((14, 4))))
        return make_panel(rng, 14, 5, model, covs, start_p=0.15, seed=3), \
            model, covs

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_cross_period_entries_are_zero(self, rng, rule):
        panel, model, covs = self.long_panel(rng, rule)
        theta = np.array([2.0, 1.5, 2.5, 1.0, -1.2, 0.4, 0.5])
        d = phase1_derivative(theta, panel, model, covs,
                              EstimationOptions(n1=6, seed=4), check=False)
        rates = d[:4, :4]
        assert np.all(rates[~np.eye(4, dtype=bool)] == 0.0)
        assert np.any(np.diag(rates) != 0.0)   # the columns do move

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    def test_rate_column_equals_panel_resimulation(self, rng, rule):
        # one replicate: each column is (S(theta + h e_k) - S(theta)) / h
        # with S the full panel simulated from the replicate's streams
        panel, model, covs = self.long_panel(rng, rule)
        theta = np.array([2.0, 1.5, 2.5, 1.0, -1.2, 0.4, 0.5])
        opts = EstimationOptions(n1=1, seed=5, derivative_step=0.3)
        d = phase1_derivative(theta, panel, model, covs, opts,
                              np.random.default_rng(9), check=False)

        def stats(th):
            m = replace(model, rates=th[:4], beta=th[4:])
            return simulate_panel(panel, m, covs, rng=np.random.default_rng(9))[0][0]

        base = stats(theta)
        for k in range(len(theta)):
            pert = theta.copy()
            pert[k] += 0.3
            assert d[:, k].tobytes() == ((stats(pert) - base) / 0.3).tobytes()


class TestPhase2And3:
    def test_fixed_point_near_truth(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([2.0]), beta=np.array([-2.0]))
        panel = make_panel(rng, 20, 2, model, seed=11)
        opts = EstimationOptions(n1=60, n3=400, seed=5, initial_gain=0.05,
                                 keep_draws=False)
        truth = np.array([2.0, -2.0])
        d = phase1_derivative(truth, panel, model, None, opts,
                              np.random.default_rng(1))
        theta_hat, _ = phase2_update(truth, d, panel, model, None, opts,
                                     np.random.default_rng(2))
        res = phase3_finalize(theta_hat, panel, model, None, opts,
                              np.random.default_rng(3))
        assert np.all(np.abs(res.theta - truth) < 3 * res.se + 1e-9)

    def test_density_recovery(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([2.0]), beta=np.array([-2.0]))
        panel = make_panel(rng, 20, 2, model, seed=21)
        res = estimate(panel, model, None,
                       EstimationOptions(n1=30, n3=300, seed=6, keep_draws=False))
        assert abs(res.beta[0] - (-2.0)) < 3 * res.beta_se[0]

    def test_rates_recovery(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([1.5]), beta=np.array([-1.5]))
        panel = make_panel(rng, 20, 2, model, seed=31)
        res = estimate(panel, model, None,
                       EstimationOptions(n1=30, n3=300, seed=7, keep_draws=False))
        assert abs(res.rates[0] - 1.5) < 3 * res.se[0]

    def test_deterministic_given_seed(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([1.5]), beta=np.array([-1.5]))
        panel = make_panel(rng, 10, 2, model, seed=41)
        opts = EstimationOptions(n1=25, n3=60, seed=8)
        r1 = estimate(panel, model, None, opts)
        r2 = estimate(panel, model, None, opts)
        assert np.array_equal(r1.theta, r2.theta)
        assert np.array_equal(r1.se, r2.se)
        assert r1.conv_ratio == r2.conv_ratio
        assert np.array_equal(r1.draws_stats, r2.draws_stats)

    def test_moments_match_at_estimate(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([2.0]), beta=np.array([-2.0]))
        panel = make_panel(rng, 15, 2, model, seed=51)
        res = estimate(panel, model, None,
                       EstimationOptions(n1=30, n3=400, seed=9, keep_draws=False))
        s_obs = observed_targets(panel, model, None)
        dev = res.draws_stats.mean(axis=0) - s_obs
        sd = res.draws_stats.std(axis=0, ddof=1)
        assert np.all(np.abs(dev) < 4 * sd / np.sqrt(400) + 1e-9)

    def test_actor_relabeling_invariance(self, rng):
        # permuting actor labels leaves estimates within noise
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([2.0]), beta=np.array([-2.0]))
        panel = make_panel(rng, 12, 2, model, seed=61)
        perm = np.random.default_rng(0).permutation(12)
        relabeled = BinaryNetSeries(tuple(
            BinaryNetwork(panel.actors, net.year, net.x[np.ix_(perm, perm)])
            for net in panel))
        opts = EstimationOptions(n1=40, n3=200, seed=10, keep_draws=False)
        r1 = estimate(panel, model, None, opts)
        r2 = estimate(relabeled, model, None, opts)
        assert np.all(np.abs(r1.theta - r2.theta) < 3 * (r1.se + r2.se) + 1e-9)


def result_bytes(res):
    """Every array and number of an `EstimationResult`, as bytes."""
    parts = [res.theta, res.se, res.derivative, res.covariance, res.tratios,
             np.array([res.conv_ratio, res.iterations]), res.draws_stats]
    parts += [net.x for net in res.draws_final_networks]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


class TestBatchMerges:
    """Phase 1 runs phase 2's first iteration in its batch, and phase 3 its
    draws and derivative in one batch; both equal the separate calls."""

    def covariate_panel(self, rng, rule):
        effects = (EffectSpec("density"), EffectSpec("gwesp"),
                   EffectSpec("egoPlusAltX", "ac"))
        model = ModelSpec(effects, rates=np.full(3, 2.0),
                          beta=np.array([-1.2, 0.4, 0.5]), model_type=rule)
        covs = CovariateSet().add(ActorCovariate("ac", rng.random((12, 3))))
        return make_panel(rng, 12, 4, model, covs, start_p=0.15, seed=3), \
            model, covs

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    @pytest.mark.parametrize("n1", [3, 16])      # finite differences, scores
    @pytest.mark.parametrize("t_max", [np.inf, 0.0])    # restarts at 0
    def test_estimate_equals_phases_in_turn(self, rng, rule, n1, t_max):
        panel, model, covs = self.covariate_panel(rng, rule)
        opts = EstimationOptions(n1=n1, n3=12, seed=4, subphases=2,
                                 max_subphase_iter=6, t_max=t_max)
        got = estimate(panel, model, covs, opts)
        rng1, rng2, rng3 = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(4).spawn(3))
        theta0 = initialize(panel, model, covs)
        for attempt in range(3):    # n1 = 3 is singular at first: a retry
            try:
                deriv = phase1_derivative(theta0, panel, model, covs,
                                          replace(opts, n1=n1 * 2 ** attempt),
                                          rng1)
                break
            except SingularDerivativeError:
                assert n1 == 3 and attempt < 2
        theta, iters = phase2_update(theta0, deriv, panel, model, covs, opts,
                                     rng2)
        want = phase3_finalize(theta, panel, model, covs, opts, rng3,
                               iterations=iters)
        for _ in range(estimate_module.RESTARTS):
            if want.conv_ratio <= t_max:
                break
            deriv = phase1_derivative(want.theta, panel, model, covs, opts,
                                      rng1, check=False)
            theta, more = phase2_update(want.theta, deriv, panel, model, covs,
                                        opts, rng2)
            again = phase3_finalize(theta, panel, model, covs, opts, rng3,
                                    iterations=iters + more)
            if again.conv_ratio >= want.conv_ratio:
                break
            iters += more
            want = again
        assert result_bytes(got) == result_bytes(want)

    @pytest.mark.parametrize("rule", ["forcing", "pairwise-conjunctive"])
    @pytest.mark.parametrize("n1", [3, 16])
    def test_phase3_equals_draws_then_derivative(self, rng, rule, n1):
        panel, model, covs = self.covariate_panel(rng, rule)
        opts = EstimationOptions(n1=n1, n3=15, seed=4)
        theta = np.array([2.0, 1.5, 2.5, -1.2, 0.4, 0.5])
        got = phase3_finalize(theta, panel, model, covs, opts,
                              np.random.default_rng(6))
        one = np.random.default_rng(6)
        at = replace(model, rates=theta[:3], beta=theta[3:])
        stats, finals = simulate_panel(panel, at, covs, one, replicates=15)
        deriv = phase1_derivative(theta, panel, model, covs, opts, one,
                                  check=False)
        assert got.draws_stats.tobytes() == stats.tobytes()
        assert [f.x.tobytes() for f in got.draws_final_networks] == \
            [f.x.tobytes() for f in finals]
        assert got.derivative.tobytes() == deriv.tobytes()


class TestRestarts:
    """A restart is another pass of phases 1-3 from the estimate: one that
    diverges keeps the last result, while a divergence in the first pass
    reaches the caller."""

    OPTIONS = EstimationOptions(n1=16, n3=12, seed=4, subphases=2,
                                max_subphase_iter=6)

    def diverge_at(self, monkeypatch, call):
        """Make the `call`-th phase-2 run raise; returns the list of runs."""
        calls = []
        real = estimate_module.phase2_update

        def phase2(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == call:
                raise DivergenceError("parameter vector diverged in phase 2")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate_module, "phase2_update", phase2)
        return calls

    def test_divergence_in_restart_keeps_first_pass(self, rng, monkeypatch):
        panel, model, covs = TestBatchMerges().covariate_panel(rng, "forcing")
        want = estimate(panel, model, covs, replace(self.OPTIONS, t_max=np.inf))
        calls = self.diverge_at(monkeypatch, 2)
        got = estimate(panel, model, covs, replace(self.OPTIONS, t_max=0.0))
        assert len(calls) == 2 and np.array_equal(calls[1], want.theta)
        assert result_bytes(got) == result_bytes(want)

    def test_divergence_in_first_pass_propagates(self, rng, monkeypatch):
        panel, model, covs = TestBatchMerges().covariate_panel(rng, "forcing")
        calls = self.diverge_at(monkeypatch, 1)
        with pytest.raises(DivergenceError, match="diverged in phase 2"):
            estimate(panel, model, covs, self.OPTIONS)
        assert len(calls) == 1


class TestPValues:
    def test_table_strong_effect(self):
        p = p_value(0.6447, 0.0548)
        assert p < 0.001 and stars(p) == "***"

    def test_table_boundary_effect(self):
        p = p_value(1.1806, 0.5354)
        assert 0.01 < p < 0.05 and stars(p) == "*"

    def test_zero_estimate(self):
        assert p_value(0.0, 1.0) == 1.0

    def test_zero_se_rejected(self):
        with pytest.raises(EstimationError):
            p_value(1.0, 0.0)

    def test_rows_exclude_rates(self, rng):
        model = ModelSpec((EffectSpec("density"),),
                          rates=np.array([1.5]), beta=np.array([-1.5]))
        panel = make_panel(rng, 10, 2, model, seed=71)
        res = estimate(panel, model, None,
                       EstimationOptions(n1=25, n3=60, seed=12, keep_draws=False))
        rows = p_values(res)
        assert len(rows) == 1 and rows[0][0] == "density"

    def test_zero_se_row_is_blank(self):
        res = EstimationResult(
            theta=np.array([2.0, -1.2, 0.4]), se=np.array([0.3, 0.0, 0.1]),
            rate_labels=["rate period 1"], effect_labels=["density", "gwesp"],
            derivative=np.eye(3), covariance=np.eye(3), tratios=np.zeros(3),
            conv_ratio=0.1, iterations=5, seed=0)
        (lbl0, b0, se0, p0, s0), row1 = p_values(res)
        assert (lbl0, b0, se0, s0) == ("density", -1.2, 0.0, "")
        assert np.isnan(p0)
        assert row1 == ("gwesp", 0.4, 0.1, p_value(0.4, 0.1), "***")


class TestOptionsValidation:
    def test_gain_bounds(self):
        with pytest.raises(EstimationError):
            EstimationOptions(initial_gain=1.5)

    def test_positive_counts(self):
        with pytest.raises(EstimationError):
            EstimationOptions(n1=0)

    @pytest.mark.parametrize("key,value", [
        ("max_subphase_iter", 0), ("max_subphase_iter", -3),
        ("derivative_step", 0.0), ("derivative_step", float("nan")),
        ("derivative_step", float("inf")), ("t_max", float("nan"))])
    def test_out_of_range(self, key, value):
        with pytest.raises(OptionRangeError) as info:
            EstimationOptions(**{key: value})
        assert info.value.key == key

    def test_edge_values_accepted(self):
        # a backward step (central differences) and no convergence threshold
        opts = EstimationOptions(derivative_step=-0.05, t_max=float("inf"),
                                 max_subphase_iter=1)
        assert opts.derivative_step == -0.05
