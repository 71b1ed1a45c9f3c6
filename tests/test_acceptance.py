"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import itertools
import json
import os

import numpy as np
import pytest

from conftest import actor_set, random_graph, toggled
from ircnet.backbone import disparity_scores, extract_backbone
from ircnet.cli import main as cli_main
from ircnet.effects import EffectSpec, ModelSpec, change_statistic, statistic
from ircnet.estimate import EstimationOptions, estimate, p_value, stars
from ircnet.gof import gof_test, triad_census_undirected
from ircnet.panel import (ActorCovariate, BinaryNetwork, BinaryNetSeries,
                          CovariateSet, WeightedNetwork, density,
                          empty_network)
from ircnet.simulate import simulate_period

from test_cli import (YEARS, random_records, read_bytes, write_config,
                      write_fixtures)
from test_estimate import make_panel
from test_simulate import (ACTORS3, density_model, exact_stationary_density,
                           state_index)


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


# (edges S&T, edges SocSci, edges A&H, density S&T, SocSci, A&H) per year
TABLE1 = {
    1993: (289, 35, 2, 0.021, 0.003, 0.000),
    1994: (324, 57, 1, 0.024, 0.004, 0.000),
    1995: (367, 53, 2, 0.027, 0.004, 0.000),
    1996: (365, 52, 2, 0.027, 0.004, 0.000),
    1997: (426, 58, 4, 0.031, 0.004, 0.000),
    1998: (456, 87, 10, 0.033, 0.006, 0.001),
    1999: (459, 115, 9, 0.034, 0.008, 0.001),
    2000: (479, 104, 12, 0.035, 0.008, 0.001),
    2001: (479, 86, 6, 0.035, 0.006, 0.000),
    2002: (510, 93, 14, 0.037, 0.007, 0.001),
    2003: (545, 141, 14, 0.040, 0.010, 0.001),
    2004: (592, 152, 11, 0.043, 0.011, 0.001),
    2005: (609, 125, 16, 0.044, 0.009, 0.001),
    2006: (665, 226, 30, 0.049, 0.017, 0.002),
    2007: (706, 180, 40, 0.052, 0.013, 0.003),
    2008: (790, 253, 44, 0.058, 0.018, 0.003),
    2009: (826, 285, 57, 0.060, 0.021, 0.004),
    2010: (873, 263, 64, 0.064, 0.019, 0.005),
    2011: (840, 284, 67, 0.061, 0.021, 0.005),
    2012: (933, 299, 73, 0.068, 0.022, 0.005),
    2013: (948, 338, 98, 0.069, 0.025, 0.007),
    2014: (1104, 375, 99, 0.081, 0.027, 0.007),
    2015: (1200, 406, 107, 0.088, 0.030, 0.008),
    2016: (1280, 478, 146, 0.093, 0.035, 0.011),
    2017: (1330, 486, 148, 0.097, 0.035, 0.011),
    2018: (1355, 531, 148, 0.099, 0.039, 0.011),
    2019: (1571, 564, 156, 0.115, 0.041, 0.011),
    2020: (1630, 574, 154, 0.119, 0.042, 0.011),
    2021: (1643, 590, 157, 0.120, 0.043, 0.011),
    2022: (1632, 566, 142, 0.119, 0.041, 0.010),
}

# (estimate, SE, stars) triples as printed; one published cell with an
# internally inconsistent SE (0.0524, 0.0524, ***) is excluded as a
# source-table typo (z = 1.0 cannot earn stars under the stated rule)
TABLE2 = [
    (0.6447, 0.0548, "***"), (0.9616, 0.0854, "***"), (1.7048, 0.1994, "***"),
    (0.7564, 0.1761, "***"), (0.8778, 0.2714, "**"), (1.1806, 0.5354, "*"),
    (0.5181, 0.0660, "***"), (0.4186, 0.1024, "***"), (0.3217, 0.2374, ""),
    (0.1528, 0.0241, "***"), (0.4859, 0.0444, "***"), (0.8565, 0.0792, "***"),
    (-2.4104, 0.1945, "***"), (-2.3771, 0.3288, "***"), (2.2769, 0.6858, "***"),
    (-0.0071, 0.0040, ""), (-0.0331, 0.0057, "***"), (-0.0210, 0.0102, "*"),
    (0.2593, 0.0890, "**"), (-0.1205, 0.1258, ""), (-0.3717, 0.2153, ""),
    (0.1423, 0.0204, "***"), (-0.0267, 0.0368, ""), (-0.2221, 0.0694, "**"),
    (1.1144, 0.1399, "***"), (1.8609, 0.2306, "***"), (-0.4631, 0.4640, ""),
    (0.0050, 0.0009, "***"), (0.0063, 0.0014, "***"), (0.0078, 0.0028, "**"),
    (-0.2400, 0.0830, "**"), (-0.4060, 0.1391, "**"), (0.6935, 0.3147, "*"),
    (-1.1062, 0.0212, "***"), (-0.7712, 0.0287, "***"), (-0.5436, 0.0491, "***"),
    (-5.1258, 0.0924, "***"), (-6.7346, 0.0937, "***"), (-9.2565, 0.1889, "***"),
    (0.8789, 0.0527, "***"), (1.1365, 0.0537, "***"), (0.7597, 0.0862, "***"),
    (0.0212, 0.0007, "***"), (0.0273, 0.0013, "***"),
]


def network_with_edges(n, e):
    x = np.zeros((n, n), dtype=np.int8)
    pairs = itertools.combinations(range(n), 2)
    for _, (i, j) in zip(range(e), pairs):
        x[i, j] = x[j, i] = 1
    return BinaryNetwork(actor_set(n), 0, x)


def test_criterion_1_table1_densities():
    ok = True
    for year, (e1, e2, e3, d1, d2, d3) in TABLE1.items():
        for e, d in ((e1, d1), (e2, d2), (e3, d3)):
            got = density(network_with_edges(166, e))
            ok = ok and round(got, 3) == pytest.approx(d, abs=1e-12)
    report(1, "Table 1 densities to 3 decimals", ok)


def test_criterion_2_table2_stars():
    ok = all(stars(p_value(est_, se)) == st for est_, se, st in TABLE2)
    boundary = stars(p_value(1.1806, 0.5354)) == "*"
    report(2, "Table 2 star assignments incl. boundary case", ok and boundary)


def brute_force_backbone(w, alpha_level):
    n = w.shape[0]
    keep = np.zeros((n, n), dtype=np.int8)
    s = w.sum(axis=1)
    k = (w > 0).sum(axis=1)
    for i in range(n):
        for j in range(n):
            if i == j or w[i, j] == 0:
                continue
            best = 1.0
            for a, b in ((i, j), (j, i)):
                if k[a] >= 2:
                    best = min(best, (1.0 - w[a, b] / s[a]) ** (k[a] - 1))
            if best < alpha_level:
                keep[i, j] = keep[j, i] = 1
    return keep


def test_criterion_3_backbone_oracle(rng):
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 21))
        w = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    w[i, j] = w[j, i] = int(rng.pareto(1.2) * 5) + 1
        net = WeightedNetwork(actor_set(n), 0, w)
        scores = disparity_scores(net)
        for alpha in (0.01, 0.05, 0.2):
            got, _ = extract_backbone(net, alpha, scores)
            ok = ok and np.array_equal(got.x, brute_force_backbone(w, alpha))
    report(3, "disparity-filter backbone vs brute-force oracle", ok)


def test_criterion_4_change_statistic_oracle(rng):
    kinds = [("density", None), ("gwesp", None), ("degPlus", None),
             ("egoPlusAltX", "ac"), ("egoPlusAltSqX", "ac"),
             ("simX", "ac"), ("dyadX", "dist")]
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 13))
        net = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        vals = rng.random((n, 1))
        d = rng.random((n, n))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0)
        from ircnet.panel import DyadCovariate
        covs = CovariateSet().add(ActorCovariate("ac", vals))
        covs.add(DyadCovariate("dist", d))
        for kind, cov in kinds:
            eff = EffectSpec(kind, cov)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    delta = change_statistic(eff, net, i, j, covs, period=0)
                    _, s1 = statistic(eff, net, covs, 0, use_mask=False)
                    _, s2 = statistic(eff, toggled(net, i, j), covs, 0,
                                      use_mask=False)
                    ok = ok and abs(delta - (s2[i] - s1[i])) < 1e-10
    report(4, "incremental change statistics vs full recomputation", ok)


@pytest.mark.slow
def test_criterion_5_stationarity_oracle():
    ok = True
    for beta in (-1.0, 0.0, 0.5):
        pi = exact_stationary_density(beta)
        model = density_model(beta, 5.0)
        rng = np.random.default_rng(7)
        x = empty_network(ACTORS3)
        counts = np.zeros(8)
        for rep in range(9000):
            x, _, _ = simulate_period(x, model, None, 0, rng=rng)
            if rep >= 500:
                counts[state_index(x)] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - pi).sum()
        ok = ok and tv < 0.02
    report(5, "simulator matches exact stationary distribution (TV < 0.02)", ok)


def recovery_model(n_periods):
    effects = (EffectSpec("density"), EffectSpec("gwesp"),
               EffectSpec("egoPlusAltX", "ac"))
    return ModelSpec(effects, rates=np.full(n_periods, 2.0),
                     beta=np.array([-2.0, 0.5, 0.8]))


@pytest.mark.slow
def test_criterion_6_parameter_recovery():
    n, waves = 30, 4
    truth = np.array([-2.0, 0.5, 0.8])
    model = recovery_model(waves - 1)
    hits, convs = 0, []
    for rep in range(20):
        rng = np.random.default_rng(1000 + rep)
        vals = rng.random((n, waves - 1))
        covs = CovariateSet().add(ActorCovariate("ac", vals))
        panel = make_panel(rng, n, waves, model, covs, start_p=0.1,
                           seed=2000 + rep)
        res = estimate(panel, model, covs,
                       EstimationOptions(n1=60, n3=800, seed=3000 + rep,
                                         subphases=6, initial_gain=0.1,
                                         min_subphase_iter=40,
                                         keep_draws=False))
        convs.append(res.conv_ratio)
        if np.all(np.abs(res.beta - truth) < 3 * res.beta_se):
            hits += 1
    ok = hits >= 18 and max(convs) < 0.25
    print(f"\n  recovery hits: {hits}/20, max convergence ratio "
          f"{max(convs):.4f}")
    report(6, "parameter recovery within 3 SEs in >= 90% of fits", ok)


def test_criterion_7_gof_self_consistency():
    n, waves = 20, 2
    model = ModelSpec((EffectSpec("density"),), rates=np.array([2.0]),
                      beta=np.array([-2.0]))
    good, census_ok = 0, True
    for rep in range(20):
        rng = np.random.default_rng(500 + rep)
        panel = make_panel(rng, n, waves, model, seed=600 + rep)
        res = estimate(panel, model, None,
                       EstimationOptions(n1=30, n3=200, seed=700 + rep))
        observed = panel.wave(waves - 1)
        ps = []
        for kind in ("degree_distribution", "triad_census"):
            ps.append(gof_test(res, observed, kind).p)
        if min(ps) > 0.05:
            good += 1
        for net in res.draws_final_networks[:20]:
            total = triad_census_undirected(net).sum()
            census_ok = census_ok and total == n * (n - 1) * (n - 2) // 6
    ok = good >= 18 and census_ok
    print(f"\n  gof replicates with both p > 0.05: {good}/20")
    report(7, "GOF self-consistency and triad-census totals", ok)


def test_criterion_8_ingest_example(rng):
    from ircnet.ingest import (ArticleRecord, DisambiguationDictionary,
                               aggregate, expand_pairs)
    mapping = {"United States": "USA", "Netherlands": "NLD",
               "Peoples R China": "CHN", "Germany": "DEU"}
    dictionary = DisambiguationDictionary(mapping)
    rec = ArticleRecord("p", 2000, ("S&T",),
                        ("United States", "United States", "Netherlands",
                         "Peoples R China"))
    pairs = expand_pairs(rec, dictionary)
    ok = pairs == {("NLD", "USA"), ("CHN", "USA"), ("CHN", "NLD")}
    actors = actor_set(0).__class__(("CHN", "DEU", "NLD", "USA"))
    raws = list(mapping)
    records = []
    for r in range(10):
        k = int(rng.integers(1, 5))
        affs = tuple(raws[i] for i in rng.integers(0, len(raws), size=k))
        records.append(ArticleRecord(f"a{r}", 2000, ("S&T",), affs))
    w1 = aggregate(records, dictionary, actors, 2000, "S&T").w
    w2 = aggregate(records[::-1], dictionary, actors, 2000, "S&T").w
    tally = np.zeros_like(w1)
    for r in records:
        codes = sorted({mapping[a] for a in r.affiliations})
        for a, b in itertools.combinations(codes, 2):
            i, j = actors.index(a), actors.index(b)
            tally[i, j] += 1
            tally[j, i] += 1
    ok = ok and np.array_equal(w1, w2) and np.array_equal(w1, tally)
    report(8, "ingest pair expansion and order-independent aggregation", ok)


@pytest.mark.slow
def test_criterion_9_cli_determinism(tmp_path):
    root = str(tmp_path)
    write_fixtures(root, random_records(9))
    cfg = write_config(root)
    snapshots = []
    for _ in range(2):
        for command in ("ingest", "backbone", "estimate", "gof", "export"):
            assert cli_main([command, cfg]) == 0
        out = os.path.join(root, "out")
        snapshots.append({name: read_bytes(os.path.join(out, name))
                          for name in sorted(os.listdir(out))})
    ok = snapshots[0] == snapshots[1] and len(snapshots[0]) > 0
    report(9, "CLI reruns with identical config + seed are byte-identical", ok)
