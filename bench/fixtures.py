"""Seeded synthetic inputs for the benchmark workloads.

Every workload runs the five-command pipeline (ingest, backbone, estimate,
gof, export) on inputs built here from one seed; the same seed gives the
same files byte for byte. `build(workload, seed, root)` writes the inputs
under `root` and returns a `Fixture` holding the config files and the
expected values the output checks compare against.

- ingest-paper: 166 actors, years 1993-2022, JSONL records with 2-6
  affiliation strings each (variant spellings, unmatched and out-of-set
  names, three domains, about 80% S&T). Its estimate/gof fit a small model
  on the last three backbone waves, so every layer runs, while ingest,
  backbone and export dominate.
- fit-paper / fit-long-panel: a panel simulated with
  `ircnet.simulate.simulate_period` from fixed generating parameters, then
  written as one S&T record per tie per year, so that `backbone` at
  alpha = 1 reproduces the panel exactly and `estimate` fits it.
"""

from __future__ import annotations

import itertools
import json
import os
import string
from dataclasses import dataclass

import numpy as np

N_PAPER = 166
PAPER_YEARS = list(range(1993, 2023))
PAPER_RECORDS = 12_000
DOMAIN = "S&T"
OTHER_DOMAINS = ("SocSci", "A&H")
N_REGIONS = 8
N_PREFERRED = 4
N_UNMATCHED = 12
N_OUT_OF_SET = 6

# Generating parameters of the simulated panels. fit-paper uses six effects
# of the paper's model; at rate 4 they give density ~0.035, within the range
# of the paper's Table 1.
FIT_SPECS = {
    "fit-paper": dict(
        n=N_PAPER, years=list(range(2020, 2023)), rate=4.0,
        model_type="forcing",
        effects=["density", "gwesp", "degPlus", "egoPlusAltX:gdp",
                 "simX:acfree", "dyadX:dist"],
        beta=[-2.2, 0.5, 0.0, 0.1, 0.5, -0.3],
        # one phase-1 replicate is 9 panel simulations at n = 166
        n1=1),
    "fit-long-panel": dict(
        n=40, years=list(range(2015, 2023)), rate=3.0,
        model_type="pairwise-conjunctive",
        effects=["density", "gwesp", "egoPlusAltX:gdp"],
        beta=[-1.0, 0.6, 0.2], n1=2),
}
# ingest-paper's fit: a small model on the last three backbone waves.
INGEST_FIT = dict(years=PAPER_YEARS[-3:], model_type="forcing",
                  effects=["density", "egoPlusAltX:gdp"],
                  # sparse waves, few ministeps: n1 = 2 let density run off
                  # to -25 on some seeds
                  n1=6)
# Reduced fits with a fixed amount of work. Phase 2 stops at its minimum of
# 5 iterations, and restarts, which re-run phases 1-3 a data-dependent number
# of times, are off through an infinite convergence threshold. n3 = 20
# is the fewest draws gof accepts. With so few phase-1 replicates the
# default finite-difference step of 0.1 gives derivatives noisy enough to
# send some fits' rates from ~3 to 20-35 (3x the ministeps); a step of 0.5
# keeps every seed tried near the generating values.
FIT_OPTIONS = dict(n3=20, subphases=1, initial_gain=0.1,
                   max_subphase_iter=5, t_max=float("inf"),
                   derivative_step=0.5)
BURN_IN_PERIODS = 3

WORKLOADS = ("ingest-paper",) + tuple(FIT_SPECS)


@dataclass
class Fixture:
    """Generated inputs of one workload and what the outputs must show."""

    configs: dict                      # command -> config path
    years: list
    actors: list
    n3: int
    tally: dict                        # (year, a, b) -> S&T weight
    panel_edges: dict = None           # year -> sorted [(a, b)]; fit workloads


def actor_codes(n):
    """n distinct three-letter codes spread over AAA..ZZZ."""
    combos = ["".join(p) for p in itertools.product(string.ascii_uppercase,
                                                    repeat=3)]
    step = len(combos) // N_PAPER
    return [combos[k * step] for k in range(n)]


def spellings(code):
    """Canonical name first, then the variant spellings the dictionary maps."""
    return [f"Land of {code}", f"LAND OF {code}", f"{code} (Land)"]


def _name(rng, code):
    names = spellings(code)
    return names[0] if rng.random() < 0.8 else names[1 + int(rng.integers(2))]


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_common(root, codes, years, rng):
    """Actors, dictionary and covariates for exactly `codes` over `years`."""
    _write_lines(os.path.join(root, "actors.txt"), codes)
    dictionary = ["# policy=drop"]
    for code in codes:
        dictionary += [f"{raw}\t{code}" for raw in spellings(code)]
    # mapped, but to codes outside the actor set
    dictionary += [f"Outland {k}\tZZ{k}" for k in range(N_OUT_OF_SET)]
    _write_lines(os.path.join(root, "dictionary.tsv"), dictionary)

    n = len(codes)
    base = rng.lognormal(9.0, 1.2, size=n)
    growth = rng.normal(0.02, 0.01, size=n)
    gdp = ["iso3,year,value"]
    acfree = ["iso3,year,value"]
    free = rng.integers(1, 8, size=n)
    for i, code in enumerate(codes):
        for m, year in enumerate(years):
            gdp.append(f"{code},{year},{base[i] * (1 + growth[i]) ** m:.6g}")
            if rng.random() >= 0.02:  # a few missing (actor, year) values
                acfree.append(f"{code},{year},{int(free[i])}")
    _write_lines(os.path.join(root, "gdp.csv"), gdp)
    _write_lines(os.path.join(root, "acfree.csv"), acfree)

    pos = rng.random((n, 2)) * 10_000.0
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    rows = ["," + ",".join(codes)]
    for i, code in enumerate(codes):
        rows.append(code + "," + ",".join(f"{v:.1f}" for v in dist[i]))
    _write_lines(os.path.join(root, "dist.csv"), rows)


def _write_records(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, (year, domains, affs) in enumerate(records):
            fh.write(json.dumps({"id": f"R{k:07d}", "year": int(year),
                                 "domain": list(domains),
                                 "affiliations": affs}) + "\n")


def _config(root, name, years, extra):
    """One key=value config. Commands run from a sibling directory of
    `root`, so every pass sees the same config text and config hash."""
    fx = "../" + os.path.basename(os.path.normpath(root))
    lines = [f"actors = {fx}/actors.txt",
             f"records = {fx}/records.jsonl",
             f"dictionary = {fx}/dictionary.tsv",
             f"years = {years[0]}-{years[-1]}",
             f"domain = {DOMAIN}",
             "actor_covariates = "
             f"gdp:{fx}/gdp.csv:log1p, acfree:{fx}/acfree.csv",
             f"dyad_covariates = dist:{fx}/dist.csv:log1p",
             "outdir = out"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = os.path.join(root, name)
    _write_lines(path, lines)
    return path


def _fit_extra(spec, seed):
    return dict(effects=", ".join(spec["effects"]),
                model_type=spec["model_type"], n1=spec["n1"], seed=seed,
                **FIT_OPTIONS)


def _paper_records(rng, codes):
    """Records with regional co-authorship structure and the S&T tally.

    Each record has a lead country drawn by a skewed popularity and 1-5
    partners: half of them among a few fixed preferred partners of the lead,
    the rest by popularity, mostly from the lead's region. Preferred pairs
    stand out in every year, so consecutive backbones share most ties.
    """
    n, size = len(codes), PAPER_RECORDS
    popularity = 1.0 / (1.0 + rng.permutation(n)) ** 0.9
    popularity /= popularity.sum()
    region = rng.integers(N_REGIONS, size=n)
    members = [np.flatnonzero(region == r) for r in range(N_REGIONS)]
    member_cdf = [np.cumsum(popularity[m]) / popularity[m].sum()
                  for m in members]
    years = rng.integers(len(PAPER_YEARS), size=size)
    u_domain = rng.random(size)
    second_domain = rng.random(size) < 0.05
    lead = rng.choice(n, size=size, p=popularity)
    n_partners = rng.integers(1, 6, size=size)
    total = int(n_partners.sum())
    preferred = [rng.choice(members[region[i]], size=N_PREFERRED)
                 for i in range(n)]
    u_kind = rng.random(total)
    pref_k = rng.integers(N_PREFERRED, size=total)
    u_regional = rng.random(total)
    anywhere = rng.choice(n, size=total, p=popularity)
    u_aff = rng.random(size + total)
    variant = rng.random(size + total) < 0.2
    variant_k = rng.integers(1, 3, size=size + total)
    bad_k = rng.integers(N_UNMATCHED * N_OUT_OF_SET, size=size + total)

    names = [spellings(code) for code in codes]
    records, tally = [], {}
    p = a = 0
    for r in range(size):
        year = PAPER_YEARS[years[r]]
        u = u_domain[r]
        domains = [DOMAIN] if u < 0.8 else [OTHER_DOMAINS[int(u >= 0.92)]]
        if second_domain[r]:
            domains.append(OTHER_DOMAINS[0] if domains[0] == DOMAIN else DOMAIN)
        picks = [int(lead[r])]
        for _ in range(n_partners[r]):
            if u_kind[p] < 0.5:
                picks.append(int(preferred[lead[r]][pref_k[p]]))
            elif u_kind[p] < 0.8:
                reg = region[lead[r]]
                k = int(np.searchsorted(member_cdf[reg], u_regional[p]))
                picks.append(int(members[reg][min(k, len(members[reg]) - 1)]))
            else:
                picks.append(int(anywhere[p]))
            p += 1
        affs, in_set = [], set()
        for i in picks:
            if u_aff[a] < 0.03:
                affs.append(f"Atlantis {bad_k[a] % N_UNMATCHED}")
            elif u_aff[a] < 0.05:
                affs.append(f"Outland {bad_k[a] % N_OUT_OF_SET}")
            else:
                affs.append(names[i][variant_k[a] if variant[a] else 0])
                in_set.add(codes[i])
            a += 1
        records.append((year, domains, affs))
        if DOMAIN in domains:
            for pair in itertools.combinations(sorted(in_set), 2):
                key = (year,) + pair
                tally[key] = tally.get(key, 0) + 1
    return records, tally


def _simulate_panel(spec, root, rng):
    """Waves simulated from the generating parameters: year -> sorted ties."""
    from ircnet import fileio
    from ircnet.effects import EffectSpec, ModelSpec
    from ircnet.panel import BinaryNetwork, CovariateSet
    from ircnet.simulate import simulate_period

    actors = fileio.read_actor_set(os.path.join(root, "actors.txt"))
    years = spec["years"]
    covs = CovariateSet()
    covs.add(fileio.read_actor_covariate(os.path.join(root, "gdp.csv"), "gdp",
                                         actors, years, transform="log1p"))
    covs.add(fileio.read_actor_covariate(os.path.join(root, "acfree.csv"),
                                         "acfree", actors, years))
    covs.add(fileio.read_dyad_matrix(os.path.join(root, "dist.csv"), "dist",
                                     actors, transform="log1p"))
    effects = []
    for item in spec["effects"]:
        kind, _, cov = item.partition(":")
        effects.append(EffectSpec(kind, cov or None))
    n = actors.n
    model = ModelSpec(tuple(effects), beta=np.array(spec["beta"]),
                      rates=np.full(len(years), spec["rate"]),
                      model_type=spec["model_type"])
    x = np.triu((rng.random((n, n)) < 0.03).astype(np.int8), 1)
    net = BinaryNetwork(actors, years[0], x + x.T)
    for _ in range(BURN_IN_PERIODS):
        net, _, _ = simulate_period(net, model, covs, period=0, rng=rng)
    waves = [BinaryNetwork(actors, years[0], net.x)]
    for m in range(len(years) - 1):
        net, _, _ = simulate_period(waves[-1], model, covs, period=m, rng=rng)
        waves.append(BinaryNetwork(actors, years[m + 1], net.x))
    ids = actors.ids
    edges = {}
    for wave in waves:
        ii, jj = np.nonzero(np.triu(wave.x, 1))
        edges[wave.year] = sorted((ids[i], ids[j]) for i, j in zip(ii, jj))
    return edges


def _panel_records(rng, codes, edges):
    """One S&T record per tie, plus records that must add no S&T pair."""
    records, tally = [], {}
    n = len(codes)
    for year, pairs in edges.items():
        for a, b in pairs:
            records.append((year, [DOMAIN], [_name(rng, a), _name(rng, b)]))
            tally[(year, a, b)] = 1
        for _ in range(max(1, len(pairs) // 5)):
            i, j = rng.choice(n, size=2, replace=False)
            records.append((year, [OTHER_DOMAINS[int(rng.integers(2))]],
                            [_name(rng, codes[i]), _name(rng, codes[j])]))
            records.append((year, [DOMAIN],
                            [_name(rng, codes[i]),
                             f"Atlantis {int(rng.integers(N_UNMATCHED))}",
                             f"Outland {int(rng.integers(N_OUT_OF_SET))}"]))
    order = rng.permutation(len(records))
    return [records[k] for k in order], tally


def build(workload, seed, root) -> Fixture:
    """Write the inputs of `workload` for `seed` under `root`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    fit_seed = int(rng.integers(2**31))
    if workload == "ingest-paper":
        codes = actor_codes(N_PAPER)
        years = PAPER_YEARS
        _write_common(root, codes, years, rng)
        records, tally = _paper_records(rng, codes)
        _write_records(os.path.join(root, "records.jsonl"), records)
        full = _config(root, "pipeline.cfg", years, dict(alpha=0.05))
        fit = _config(root, "fit.cfg", INGEST_FIT["years"],
                      dict(_fit_extra(INGEST_FIT, fit_seed), alpha=0.05))
        return Fixture(dict(ingest=full, backbone=full, estimate=fit,
                            gof=fit, export=full),
                       years, codes, FIT_OPTIONS["n3"], tally)
    spec = FIT_SPECS[workload]
    codes = actor_codes(N_PAPER)[: spec["n"]]
    years = spec["years"]
    _write_common(root, codes, years, rng)
    edges = _simulate_panel(spec, root, rng)
    records, tally = _panel_records(rng, codes, edges)
    _write_records(os.path.join(root, "records.jsonl"), records)
    # alpha = 1 keeps every positive edge, so the backbone is the panel
    cfg = _config(root, "pipeline.cfg", years,
                  dict(_fit_extra(spec, fit_seed), alpha=1))
    return Fixture(dict.fromkeys(
        ("ingest", "backbone", "estimate", "gof", "export"), cfg),
        years, codes, FIT_OPTIONS["n3"], tally, panel_edges=edges)
