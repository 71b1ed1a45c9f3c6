import math

import numpy as np
import pytest

from conftest import actor_set, random_graph, toggled
from ircnet.effects import (EffectError, EffectSpec, ModelSpec, _gwesp_tables,
                            change_statistic, contribution, statistic,
                            target_statistics)
from ircnet.panel import (ActorCovariate, BinaryNetwork, BinaryNetSeries,
                          CovariateSet, DyadCovariate)

LN2 = math.log(2.0)


def k3():
    x = np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8)
    return BinaryNetwork(actor_set(3), 0, x)


def make_covs(rng, n, periods=2, missing_frac=0.0):
    vals = rng.random((n, periods))
    if missing_frac:
        vals[rng.random((n, periods)) < missing_frac] = np.nan
    covs = CovariateSet()
    covs.add(ActorCovariate("ac", vals))
    d = rng.random((n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0)
    covs.add(DyadCovariate("dist", d))
    return covs


class TestEffectSpec:
    def test_unknown_kind(self):
        with pytest.raises(EffectError):
            EffectSpec("reciprocity")

    def test_covariate_requirements(self):
        with pytest.raises(EffectError):
            EffectSpec("simX")
        with pytest.raises(EffectError):
            EffectSpec("density", covariate="ac")

    def test_model_requires_density(self):
        with pytest.raises(EffectError):
            ModelSpec((EffectSpec("gwesp"),))


class TestStatistic:
    def test_density_on_k3(self):
        total, per_actor = statistic(EffectSpec("density"), k3())
        assert per_actor.tolist() == [2, 2, 2]
        assert total == 6

    @pytest.mark.parametrize("esp,expected", [(1, 1.0), (2, 1.5), (3, 1.75)])
    def test_gwesp_edge_weights(self, esp, expected):
        # one edge (0,1) with `esp` shared partners
        n = esp + 2
        x = np.zeros((n, n), dtype=np.int8)
        x[0, 1] = x[1, 0] = 1
        for h in range(2, 2 + esp):
            x[0, h] = x[h, 0] = 1
            x[1, h] = x[h, 1] = 1
        net = BinaryNetwork(actor_set(n), 0, x)
        _, per_actor = statistic(EffectSpec("gwesp"), net)
        # actor 0's edge to 1 contributes `expected`; edges to partners have esp=1
        assert per_actor[0] == pytest.approx(expected + esp * 1.0)

    def test_gwesp_zero_on_triangle_free(self, rng):
        x = np.zeros((4, 4), dtype=np.int8)
        x[0, 1] = x[1, 0] = 1
        x[2, 3] = x[3, 2] = 1
        total, _ = statistic(EffectSpec("gwesp"), BinaryNetwork(actor_set(4), 0, x))
        assert total == 0.0

    def test_simx_similarity_values(self):
        vals = np.array([[0.2], [0.7], [1.2]])  # range 1.0
        covs = CovariateSet().add(ActorCovariate("ac", vals))
        x = np.zeros((3, 3), dtype=np.int8)
        x[0, 1] = x[1, 0] = 1
        net = BinaryNetwork(actor_set(3), 0, x)
        eff = EffectSpec("simX", "ac")
        from ircnet.effects import dyadic_contribution
        contrib = dyadic_contribution(eff, covs, 0)
        sim_mean = covs.actor["ac"].similarity_mean
        assert contrib[0, 1] + sim_mean == pytest.approx(0.5)
        # identical values -> similarity 1 before centering
        assert contrib[1, 1] == 0.0
        vals2 = np.array([[0.4], [0.4], [1.4]])
        covs2 = CovariateSet().add(ActorCovariate("ac", vals2))
        contrib2 = dyadic_contribution(eff, covs2, 0)
        assert contrib2[0, 1] + covs2.actor["ac"].similarity_mean == pytest.approx(1.0)

    def test_simx_affine_invariance(self, rng):
        from ircnet.effects import dyadic_contribution
        vals = rng.random((8, 1))
        eff = EffectSpec("simX", "ac")
        c1 = dyadic_contribution(eff, CovariateSet().add(ActorCovariate("ac", vals)), 0)
        c2 = dyadic_contribution(eff, CovariateSet().add(ActorCovariate("ac", 3.0 * vals + 11.0)), 0)
        assert np.allclose(c1, c2)

    def test_missing_covariate_raises(self):
        with pytest.raises(EffectError):
            statistic(EffectSpec("egoPlusAltX", "nope"), k3(), CovariateSet())

    @pytest.mark.parametrize("kind,key", [("egoPlusAltX", "actor_covariates"),
                                          ("simX", "actor_covariates"),
                                          ("dyadX", "dyad_covariates")])
    def test_omitted_covariate_set_is_empty(self, kind, key):
        """Without `covs` a covariate effect fails as on an empty set, at
        every entry point, naming the effect and its config key."""
        from ircnet.estimate import observed_targets
        eff = EffectSpec(kind, "ac")
        model = ModelSpec((EffectSpec("density"), eff))
        panel = BinaryNetSeries((k3(), BinaryNetwork(k3().actors, 1, k3().x)))
        for call in (lambda: statistic(eff, k3()),
                     lambda: change_statistic(eff, k3(), 0, 1),
                     lambda: target_statistics(panel, model),
                     lambda: observed_targets(panel, model)):
            with pytest.raises(EffectError) as err:
                call()
            assert str(err.value) == (f"effect ac ({kind}): covariate 'ac' "
                                      f"not provided; set it in {key}")


class TestContributionStacks:
    """The beta-free stacks of `contribution`: one for simulation, one for
    targets with the dyads of unobserved actors zeroed."""

    @pytest.mark.parametrize("kind", ["egoPlusAltX", "egoPlusAltSqX", "simX"])
    def test_target_stack_matches_mask_oracle(self, rng, kind):
        n = 9
        vals = rng.random((n, 3))
        vals[[1, 6], 0] = np.nan         # period 1 stays fully observed
        vals[4, 2] = np.nan
        covs = CovariateSet().add(ActorCovariate("ac", vals))
        contrib, target = contribution(EffectSpec(kind, "ac"), covs)
        assert target is not contrib
        for q in range(3):
            obs = ~np.isnan(vals[:, q])
            oracle = np.where(obs[:, None] & obs[None, :], contrib[q], 0.0)
            assert np.array_equal(target[q], oracle)
        assert np.count_nonzero(target[0] != contrib[0]) > 0
        assert np.array_equal(target[1], contrib[1])

    @pytest.mark.parametrize("kind,covname", [
        ("egoPlusAltX", "ac"), ("egoPlusAltSqX", "ac"), ("simX", "ac"),
        ("dyadX", "dist")])
    def test_stacks_read_only_and_shared_when_observed(self, rng, kind, covname):
        eff = EffectSpec(kind, covname)
        contrib, target = contribution(eff, make_covs(rng, 7, periods=3))
        assert target is contrib
        assert not contrib.flags.writeable
        if covname == "ac":
            contrib, target = contribution(
                eff, make_covs(rng, 7, periods=3, missing_frac=0.3))
            assert target is not contrib
        for stack in (contrib, target):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 1] = 1.0

    def test_gwesp_tables_shared_and_read_only(self):
        weight, steps = _gwesp_tables(7)
        assert _gwesp_tables(7)[0] is weight and _gwesp_tables(7)[1] is steps
        assert len(_gwesp_tables(8)[0]) == 9
        e = np.arange(8)
        # decay ln 2: weight 2 (1 - 2^-e), a step up adds 2^-e
        np.testing.assert_allclose(weight, 2.0 * (1.0 - 0.5 ** e), rtol=1e-15)
        np.testing.assert_allclose(steps[0], 0.5 ** e, rtol=1e-15)
        for table in (weight, steps):
            with pytest.raises(ValueError):
                table[..., 1] = 0.0


class TestChangeStatistic:
    def test_self_tie_rejected(self):
        with pytest.raises(EffectError):
            change_statistic(EffectSpec("density"), k3(), 1, 1)

    def test_density_add_is_plus_one(self, rng):
        net = random_graph(rng, 6, 0.3)
        for i in range(6):
            for j in range(6):
                if i != j and net.x[i, j] == 0:
                    assert change_statistic(EffectSpec("density"), net, i, j) == 1.0

    @pytest.mark.parametrize("kind,covname", [
        ("density", None), ("gwesp", None), ("degPlus", None),
        ("egoPlusAltX", "ac"), ("egoPlusAltSqX", "ac"),
        ("simX", "ac"), ("dyadX", "dist")])
    def test_matches_full_recomputation(self, rng, kind, covname):
        eff = EffectSpec(kind, covname)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            net = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
            covs = make_covs(rng, n)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    delta = change_statistic(eff, net, i, j, covs, period=0)
                    _, s1 = statistic(eff, net, covs, 0, use_mask=False)
                    _, s2 = statistic(eff, toggled(net, i, j), covs, 0,
                                      use_mask=False)
                    assert delta == pytest.approx(s2[i] - s1[i], abs=1e-10)

    def test_simx_delta_is_signed_similarity(self, rng):
        from ircnet.effects import dyadic_contribution
        n = 7
        net = random_graph(rng, n, 0.4)
        covs = make_covs(rng, n)
        eff = EffectSpec("simX", "ac")
        contrib = dyadic_contribution(eff, covs, 0)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                sign = 1.0 if net.x[i, j] == 0 else -1.0
                got = change_statistic(eff, net, i, j, covs, 0)
                assert got == pytest.approx(sign * contrib[i, j])

    def test_recentering_argmax_invariance(self, rng):
        # deltas between two alters depend only on covariate differences
        n = 8
        net = random_graph(rng, n, 0.0)
        vals = rng.random((n, 1))
        eff = EffectSpec("egoPlusAltX", "ac")
        covs1 = CovariateSet().add(ActorCovariate("ac", vals))
        covs2 = CovariateSet().add(ActorCovariate("ac", vals + 5.0))
        d1 = [change_statistic(eff, net, 0, j, covs1, 0) for j in range(1, n)]
        d2 = [change_statistic(eff, net, 0, j, covs2, 0) for j in range(1, n)]
        assert np.allclose(np.diff(d1), np.diff(d2))


class TestTargetStatistics:
    def make_panel(self, rng, n, waves):
        nets = tuple(random_graph(rng, n, 0.3, year=2000 + m) for m in range(waves))
        return BinaryNetSeries(nets)

    def test_two_wave_density_target(self, rng):
        panel = self.make_panel(rng, 8, 2)
        model = ModelSpec((EffectSpec("density"),))
        t = target_statistics(panel, model)
        assert t[0] == int(panel.wave(1).x.sum())  # twice the edge count

    def test_three_wave_matches_brute_force(self, rng):
        n = 8
        panel = self.make_panel(rng, n, 3)
        covs = make_covs(rng, n, periods=2, missing_frac=0.15)
        effects = (EffectSpec("density"), EffectSpec("gwesp"),
                   EffectSpec("egoPlusAltX", "ac"), EffectSpec("dyadX", "dist"))
        model = ModelSpec(effects)
        t = target_statistics(panel, model, covs)
        expected = np.zeros(len(effects))
        for m in range(2):
            for k, eff in enumerate(effects):
                total, _ = statistic(eff, panel.wave(m + 1), covs, m, use_mask=True)
                expected[k] += total
        assert np.allclose(t, expected)

    def test_constant_panel(self, rng):
        net = random_graph(rng, 8, 0.3)
        nets = tuple(BinaryNetwork(net.actors, 2000 + m, net.x) for m in range(4))
        panel = BinaryNetSeries(nets)
        model = ModelSpec((EffectSpec("density"), EffectSpec("gwesp")))
        t = target_statistics(panel, model)
        w1 = np.array([statistic(e, net)[0] for e in model.effects])
        assert np.allclose(t, 3 * w1)

    def test_missing_dyads_excluded(self, rng):
        n = 6
        panel = self.make_panel(rng, n, 2)
        vals = rng.random((n, 1))
        vals[2, 0] = np.nan
        covs = CovariateSet().add(ActorCovariate("ac", vals))
        model = ModelSpec((EffectSpec("density"), EffectSpec("egoPlusAltX", "ac")))
        t = target_statistics(panel, model, covs)
        # recompute by hand, skipping dyads touching actor 2
        cov = covs.actor["ac"]
        v = cov.centered(0)
        x = panel.wave(1).x
        expected = 0.0
        for i in range(n):
            for j in range(n):
                if x[i, j] and i != 2 and j != 2:
                    expected += v[i] + v[j]
        assert t[1] == pytest.approx(expected)
