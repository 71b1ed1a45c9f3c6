"""Effect statistics for the tie-change objective function.

Each effect defines a per-actor statistic s_i(x), in `_dyad_terms` alone
(observed targets and simulated totals both read it), and an incremental
change form used by the simulator: the difference in actor i's statistic
when the tie (i, j) is toggled. Both read a `NetState`, which keeps the
degrees, shared-partner counts and toggle signs of the network up to date
per toggle. Covariate effects read grand-mean-centered values; missing
entries are imputed to the mean (contributing 0) during simulation and
excluded from observed target sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .panel import BinaryNetwork, BinaryNetSeries, CovariateSet

STRUCTURAL_KINDS = ("density", "gwesp", "degPlus")
ACTOR_COV_KINDS = ("egoPlusAltX", "egoPlusAltSqX", "simX")
DYAD_COV_KINDS = ("dyadX",)
ALL_KINDS = STRUCTURAL_KINDS + ACTOR_COV_KINDS + DYAD_COV_KINDS


class EffectError(ValueError):
    """Bad effect specification or missing covariate."""


@dataclass(frozen=True)
class EffectSpec:
    """One term of the objective function.

    kind: one of density, gwesp, degPlus, egoPlusAltX, egoPlusAltSqX,
    simX, dyadX. Covariate effects must name their covariate; gwesp takes
    a decay parameter (default ln 2: each extra shared partner adds half
    the previous increment).
    """

    kind: str
    covariate: str = None
    gwesp_decay: float = math.log(2.0)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise EffectError(f"unknown effect kind {self.kind!r}")
        needs_cov = self.kind in ACTOR_COV_KINDS + DYAD_COV_KINDS
        if needs_cov and not self.covariate:
            raise EffectError(f"effect {self.kind} requires a covariate name")
        if not needs_cov and self.covariate:
            raise EffectError(f"effect {self.kind} takes no covariate")
        if self.gwesp_decay <= 0:
            raise EffectError("gwesp decay must be positive")

    @property
    def label(self) -> str:
        return f"{self.covariate} ({self.kind})" if self.covariate else self.kind


@dataclass(frozen=True)
class ModelSpec:
    """Ordered effect list plus parameter values and the tie-change rule."""

    effects: tuple
    beta: np.ndarray = None
    rates: np.ndarray = None
    model_type: str = "forcing"

    def __post_init__(self):
        effects = tuple(self.effects)
        if not any(e.kind == "density" for e in effects):
            raise EffectError("model must include the density effect")
        if self.model_type not in ("forcing", "pairwise-conjunctive"):
            raise EffectError(f"unknown model type {self.model_type!r}")
        object.__setattr__(self, "effects", effects)
        if self.beta is not None:
            beta = np.asarray(self.beta, dtype=float)
            if beta.shape != (len(effects),):
                raise EffectError("beta length must match effect list")
            object.__setattr__(self, "beta", beta)
        if self.rates is not None:
            rates = np.asarray(self.rates, dtype=float)
            if np.any(rates <= 0):
                raise EffectError("rates must be strictly positive")
            object.__setattr__(self, "rates", rates)

    @property
    def n_effects(self) -> int:
        return len(self.effects)


def _actor_cov(effect, covs: CovariateSet):
    try:
        return covs.actor[effect.covariate]
    except KeyError:
        raise EffectError(f"actor covariate {effect.covariate!r} not provided")


def _dyad_cov(effect, covs: CovariateSet):
    try:
        return covs.dyad[effect.covariate]
    except KeyError:
        raise EffectError(f"dyadic covariate {effect.covariate!r} not provided")


def similarity_mean(cov) -> float:
    """Mean of sim_ij = 1 - |v_i - v_j| / range over observed dyads, all periods."""
    rng = cov.value_range
    if rng == 0.0:
        return 1.0
    total, count = 0.0, 0
    for p in range(cov.n_periods):
        v = cov.values[:, p]
        obs = ~np.isnan(v)
        vo = v[obs]
        if vo.size < 2:
            continue
        diff = np.abs(vo[:, None] - vo[None, :])
        iu = np.triu_indices(vo.size, k=1)
        sims = 1.0 - diff[iu] / rng
        total += sims.sum()
        count += sims.size
    if count == 0:
        return 1.0
    return total / count


def dyadic_contribution(effect: EffectSpec, covs: CovariateSet, period: int):
    """(contrib, valid): per-dyad contribution matrix for a covariate effect.

    contrib[i, j] is what toggling tie (i, j) adds to actor i's statistic.
    `valid` is None for fully observed effects, else a boolean dyad mask of
    entries backed by observed data (used for target statistics).
    """
    if effect.kind == "dyadX":
        return _dyad_cov(effect, covs).centered(), None
    cov = _actor_cov(effect, covs)
    valid = None
    if not cov.observed(period).all():
        obs = cov.observed(period)
        valid = obs[:, None] & obs[None, :]
    if effect.kind == "egoPlusAltX":
        v = cov.centered(period)
        contrib = v[:, None] + v[None, :]
    elif effect.kind == "egoPlusAltSqX":
        v = cov.centered(period)
        contrib = (v[:, None] + v[None, :]) ** 2
    elif effect.kind == "simX":
        v = cov.filled(period)
        rng = cov.value_range
        if rng == 0.0:
            contrib = np.ones((v.size, v.size)) - similarity_mean(cov)
        else:
            contrib = 1.0 - np.abs(v[:, None] - v[None, :]) / rng - similarity_mean(cov)
    else:
        raise EffectError(f"{effect.kind} is not a covariate effect")
    np.fill_diagonal(contrib, 0.0)
    return contrib, valid


def contribution(effect: EffectSpec, covs: CovariateSet, period: int):
    """`dyadic_contribution(effect, covs, period)`, built once per covariate set.

    The matrices do not depend on beta, so a fit that simulates hundreds of
    periods builds each (effect, period) pair once. The memo lives on `covs`
    and remembers the covariate object each entry was built from, so a
    replaced covariate is rebuilt. The returned arrays are read-only.
    """
    source = (_dyad_cov if effect.kind == "dyadX" else _actor_cov)(effect, covs)
    key = (effect, period)
    hit = covs.derived.get(key)
    if hit is None or hit[0] is not source:
        contrib, valid = dyadic_contribution(effect, covs, period)
        contrib.setflags(write=False)
        if valid is not None:
            valid.setflags(write=False)
        hit = covs.derived[key] = (source, contrib, valid)
    return hit[1], hit[2]


def statistic(effect: EffectSpec, net: BinaryNetwork, covs: CovariateSet = None,
              period: int = 0, use_mask: bool = True):
    """(total, per_actor) statistic of one effect on a network.

    use_mask=True excludes dyads with missing covariate data (the target-
    statistic convention); use_mask=False evaluates with imputed values
    (the simulation convention).
    """
    terms = _dyad_terms(effect, NetState(net.x), covs, period, use_mask)
    return float(terms.sum()), terms.sum(axis=1)


class NetState:
    """An undirected network plus the values change rows read, each kept up
    to date by `toggle` in O(n) work.

    x: float adjacency. deg: degrees. esp: shared-partner counts x @ x, as
    integers (the diagonal is not kept up to date). sign: 1 - 2x, the
    direction of toggling each dyad (+1 adds a tie, -1 removes it).
    """

    def __init__(self, x):
        x = np.array(x, dtype=float)
        self.x = x
        self.deg = x.sum(axis=1)
        self.esp = (x @ x).astype(np.intp)
        self.sign = 1.0 - 2.0 * x
        self._gwesp = {}

    def toggle(self, i: int, j: int):
        """Add tie (i, j) if absent, else remove it."""
        x, esp = self.x, self.esp
        s = self.sign[i, j]
        if s < 0:
            x[i, j] = x[j, i] = 0.0
        # neighbours taken while (i, j) is absent: the shared partners of i
        # and h move by one for every h adjacent to j, and vice versa
        ni, nj = x[i].nonzero()[0], x[j].nonzero()[0]
        if s > 0:
            x[i, j] = x[j, i] = 1.0
        d = 1 if s > 0 else -1
        # fancy-index a row or column view: cheaper than esp[i, nj]
        esp[i][nj] += d
        esp[:, i][nj] += d
        esp[j][ni] += d
        esp[:, j][ni] += d
        self.deg[i] += s
        self.deg[j] += s
        self.sign[i, j] = self.sign[j, i] = -s

    def gwesp_tables(self, decay: float):
        """(weight, steps) indexed by shared-partner count e = 0..n.

        weight[e] = e^a (1 - (1 - e^-a)^e) is the gwesp weight of an edge
        with e shared partners; steps[0, e] is what the edge gains when e
        rises by one, steps[1, e] what it loses when e falls by one.
        """
        tables = self._gwesp.get(decay)
        if tables is None:
            e = np.arange(self.x.shape[0] + 1, dtype=float)
            c = 1.0 - math.exp(-decay)
            ea = math.exp(decay)
            steps = np.stack((ea * (1.0 - c) * np.power(c, e),
                              ea * (1.0 - c) * np.power(c, np.maximum(e, 1) - 1)))
            weight = ea * (1.0 - np.power(c, e))
            tables = self._gwesp[decay] = (weight, steps)
        return tables

    def change_entry(self, effect: EffectSpec, i: int, j: int,
                     contrib: np.ndarray = None) -> float:
        """Entry j of `change_row(effect, self, i, contrib)`, computed alone."""
        s = self.sign[i, j]
        if effect.kind == "density":
            return s
        if effect.kind == "degPlus":
            return self.deg[j] + 1.0 if s > 0 else -self.deg[j]
        if effect.kind == "gwesp":
            weight, steps = self.gwesp_tables(effect.gwesp_decay)
            esp = self.esp[i]
            shared = (self.x[i] * self.x[j]).nonzero()[0]
            step = steps[0 if s > 0 else 1]
            return s * (weight[esp[j]] + step.take(esp.take(shared)).sum())
        if contrib is None:
            raise EffectError(f"effect {effect.kind} needs a contribution matrix")
        return s * contrib[i, j]


def change_row(effect: EffectSpec, state: NetState, i: int,
               contrib: np.ndarray = None) -> np.ndarray:
    """Vector over j of the change in actor i's statistic when (i, j) toggles.

    For covariate effects pass the `dyadic_contribution` matrix. Entry i of
    the result is meaningless (self-toggle is not an option).
    """
    sign = state.sign[i]
    if effect.kind == "density":
        return sign.copy()
    if effect.kind == "degPlus":
        # adding tie (i,j): partner degree becomes deg_j + 1; removing: -deg_j
        return np.where(sign > 0, state.deg + 1.0, -state.deg)
    if effect.kind == "gwesp":
        weight, steps = state.gwesp_tables(effect.gwesp_decay)
        esp = state.esp[i]
        nbrs = state.x[i].nonzero()[0]
        # toggling (i,j) shifts esp of every edge (i,h) with h adjacent to j:
        # row 0 sums the gains (adding), row 1 the losses (removing)
        corr = steps.take(esp.take(nbrs), axis=1) @ state.x.take(nbrs, axis=0)
        return sign * (weight.take(esp) + np.where(sign > 0, corr[0], corr[1]))
    if contrib is None:
        raise EffectError(f"effect {effect.kind} needs a contribution matrix")
    return sign * contrib[i]


def change_statistic(effect: EffectSpec, net: BinaryNetwork, i: int, j: int,
                     covs: CovariateSet = None, period: int = 0) -> float:
    """Change in actor i's statistic when tie (i, j) is toggled."""
    if i == j:
        raise EffectError("self-ties are not defined")
    contrib = None
    if effect.kind not in STRUCTURAL_KINDS:
        contrib, _ = contribution(effect, covs, period)
    return float(change_row(effect, NetState(net.x), i, contrib)[j])


def _dyad_terms(effect: EffectSpec, state: NetState, covs: CovariateSet,
                period: int, use_mask: bool) -> np.ndarray:
    """The one definition of each effect's statistic: a dyad matrix whose
    row i sums to actor i's statistic on `state` and whose sum is the total.

    use_mask=True zeroes dyads with missing covariate data.
    """
    x = state.x
    if effect.kind == "density":
        return x
    if effect.kind == "degPlus":
        return x * state.deg  # row i sums x_ij deg_j
    if effect.kind == "gwesp":
        weight, _ = state.gwesp_tables(effect.gwesp_decay)
        return x * weight[state.esp]  # the stale esp diagonal meets x_ii = 0
    contrib, valid = contribution(effect, covs, period)
    if use_mask and valid is not None:
        contrib = np.where(valid, contrib, 0.0)
    return x * contrib


def effect_totals(effects, state: NetState, covs: CovariateSet = None,
                  period: int = 0) -> np.ndarray:
    """Per-effect totals on `state`, dyads with missing covariate data excluded.

    Observed targets and simulated statistics both come from here, so the
    method-of-moments deviations compare like with like.
    """
    return np.array([_dyad_terms(eff, state, covs, period, True).sum()
                     for eff in effects])


def target_statistics(panel: BinaryNetSeries, model: ModelSpec,
                      covs: CovariateSet = None) -> np.ndarray:
    """Per-effect method-of-moments targets.

    For effect k: sum over periods m of the total statistic evaluated on
    observed wave m+1 with period-m covariate values, excluding dyads with
    missing covariate data.
    """
    if panel.n_waves < 2:
        raise EffectError("target statistics need at least 2 waves")
    targets = np.zeros(model.n_effects)
    for m in range(panel.n_waves - 1):
        targets += effect_totals(model.effects, NetState(panel.wave(m + 1).x),
                                 covs, m)
    return targets
