"""Effect statistics for the tie-change objective function.

Each effect defines a per-actor statistic s_i(x), in `_dyad_terms` alone
(observed targets and simulated totals both read it), and an incremental
change form, in `NetState.change_rows` alone (the simulator's lanes and
`change_statistic` both read it): the difference in actor i's statistic
when the tie (i, j) is toggled. Both read a `NetState`, which keeps the
degrees of its networks up to date per toggle; gwesp counts the shared
partners it reads on the rows of x.
Covariate effects read grand-mean-centered values; missing entries are
imputed to the mean (contributing 0) during simulation and excluded from
observed target sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .panel import BinaryNetwork, BinaryNetSeries, CovariateSet

STRUCTURAL_KINDS = ("density", "gwesp", "degPlus")
ACTOR_COV_KINDS = ("egoPlusAltX", "egoPlusAltSqX", "simX")
DYAD_COV_KINDS = ("dyadX",)
ALL_KINDS = STRUCTURAL_KINDS + ACTOR_COV_KINDS + DYAD_COV_KINDS
# kinds whose change rows read the network; every other kind's rows are
# fixed for a given period, so the simulator folds them (`simulate.Lanes`)
NETWORK_KINDS = ("gwesp", "degPlus")
# gwesp's decay a (RSiena's default parameter 69): each extra shared partner
# adds half the previous increment
GWESP_DECAY = math.log(2.0)


class EffectError(ValueError):
    """Bad effect specification or missing covariate."""


@dataclass(frozen=True)
class EffectSpec:
    """One term of the objective function.

    kind: one of density, gwesp, degPlus, egoPlusAltX, egoPlusAltSqX,
    simX, dyadX. Covariate effects must name their covariate; gwesp's decay
    is `GWESP_DECAY`.
    """

    kind: str
    covariate: str = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise EffectError(f"unknown effect kind {self.kind!r}")
        needs_cov = self.kind in ACTOR_COV_KINDS + DYAD_COV_KINDS
        if needs_cov and not self.covariate:
            raise EffectError(f"effect {self.kind} requires a covariate name")
        if not needs_cov and self.covariate:
            raise EffectError(f"effect {self.kind} takes no covariate")

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


def _covariate(effect, covs: CovariateSet):
    """The covariate a covariate effect reads; a missing one names the effect
    and the config key that sets it."""
    dyadic = effect.kind in DYAD_COV_KINDS
    try:
        return (covs.dyad if dyadic else covs.actor)[effect.covariate]
    except KeyError:
        key = "dyad_covariates" if dyadic else "actor_covariates"
        raise EffectError(f"effect {effect.label}: covariate "
                          f"{effect.covariate!r} not provided; set it in {key}")


def dyadic_contribution(effect: EffectSpec, covs: CovariateSet, period: int):
    """Per-dyad contribution matrix of a covariate effect at `period`:
    contrib[i, j] is what toggling tie (i, j) adds to actor i's statistic,
    with a missing value imputed by the grand mean."""
    cov = _covariate(effect, covs)
    if effect.kind == "dyadX":
        return cov.centered()
    if effect.kind in ("egoPlusAltX", "egoPlusAltSqX"):
        v = cov.centered(period)
        contrib = v[:, None] + v[None, :]
        if effect.kind == "egoPlusAltSqX":
            contrib = contrib ** 2
    elif effect.kind == "simX":
        # a constant covariate has range 0, no differences and mean 1
        v = cov.filled(period)
        contrib = (1.0 - np.abs(v[:, None] - v[None, :]) / (cov.value_range or 1.0)
                   - cov.similarity_mean)
    else:
        raise EffectError(f"{effect.kind} is not a covariate effect")
    np.fill_diagonal(contrib, 0.0)
    return contrib


def contribution(effect: EffectSpec, covs: CovariateSet):
    """(contrib, target): `dyadic_contribution` stacked over the covariate's
    periods, built once per covariate set since they do not depend on beta.

    Layer q is period q's matrix; `layer(contrib, period)` names the layer a
    period reads (a dyadic or single-column covariate has one). The
    simulation reads `contrib`; the targets read `target`, which zeroes the
    dyads of actors without an observed value and is `contrib` itself when
    no value is missing. The memo lives on `covs` and remembers the
    covariate each entry was built from, so a replaced covariate is
    rebuilt. The arrays are read-only.
    """
    source = _covariate(effect, covs)
    hit = covs.derived.get(effect)
    if hit is None or hit[0] is not source:
        periods = 1 if effect.kind == "dyadX" else source.n_periods
        contrib = np.stack([dyadic_contribution(effect, covs, q)
                            for q in range(periods)])
        target = contrib
        if effect.kind != "dyadX" and source.missing.any():
            obs = ~source.missing.T         # (periods, actors)
            target = np.where(obs[:, :, None] & obs[:, None, :], contrib, 0.0)
        contrib.setflags(write=False)
        target.setflags(write=False)
        hit = covs.derived[effect] = (source, contrib, target)
    return hit[1], hit[2]


def layer(contrib: np.ndarray, period):
    """The layer of a `contribution` stack that `period` reads (arrays too)."""
    return np.minimum(period, len(contrib) - 1)


def statistic(effect: EffectSpec, net: BinaryNetwork, covs: CovariateSet = None,
              period: int = 0, use_mask: bool = True):
    """(total, per_actor) statistic of one effect on a network.

    use_mask=True excludes dyads with missing covariate data (the target-
    statistic convention); use_mask=False evaluates with imputed values
    (the simulation convention).
    """
    terms = _dyad_terms(effect, NetState(net.x), covs, period, use_mask)
    return float(terms.sum()), terms.sum(axis=1)


TOGGLE_SIGN = np.array([1, -1], dtype=np.int8)   # 1 - 2x: +1 adds, -1 removes


@functools.cache
def _gwesp_tables(n: int):
    """(weight, steps) on n actors, indexed by shared-partner count e = 0..n;
    read-only, and built once per n.

    weight[e] = e^a (1 - (1 - e^-a)^e) is the gwesp weight of an edge with e
    shared partners; steps[0, e] is what the edge gains when e rises by one,
    steps[1, e] what it loses when e falls by one.
    """
    e = np.arange(n + 1, dtype=float)
    c = 1.0 - math.exp(-GWESP_DECAY)
    ea = math.exp(GWESP_DECAY)
    steps = np.stack((ea * (1.0 - c) * np.power(c, e),
                      ea * (1.0 - c) * np.power(c, np.maximum(e, 1) - 1)))
    weight = ea * (1.0 - np.power(c, e))
    weight.setflags(write=False)
    steps.setflags(write=False)
    return weight, steps


class NetState:
    """Undirected networks on one actor set, stacked as lanes along a leading
    axis, with their degrees, both kept up to date by `toggle` in O(1) work
    per lane. One network is a state of one lane.

    x: (L, n, n) int8 adjacency. deg: (L, n) int16 degrees, not recounted
    when given. Shared partners are not kept: gwesp counts them on the rows
    of x. The arrays are taken as given where their types allow, so a state
    of a read-only network cannot be toggled.
    """

    def __init__(self, x, deg=None):
        x = np.asarray(x, dtype=np.int8)
        self.x = x[None] if x.ndim == 2 else x
        self.deg = np.asarray(self.x.sum(axis=2) if deg is None else deg,
                              dtype=np.int16)

    def toggle(self, lanes, i, j):
        """In lane lanes[r], add tie (i[r], j[r]) if absent, else remove it."""
        d = TOGGLE_SIGN[self.x[lanes, i, j]]
        tie = d > 0
        self.x[lanes, i, j] = tie
        self.x[lanes, j, i] = tie
        self.deg[lanes, i] += d
        self.deg[lanes, j] += d

    def change_rows(self, effect: EffectSpec, lanes, i, contrib=None) -> np.ndarray:
        """The one definition of each effect's change: in lane lanes[r], the
        change in actor i[r]'s statistic when tie (i[r], j) toggles, as a
        (k, n) array over every j.

        Covariate effects pass `contrib`, their `contribution` rows. Entry i
        of a row is meaningless (self-toggle is not an option).
        """
        x_i = self.x[lanes, i]
        return (1 - 2 * x_i) * self.unsigned_rows(effect, lanes, x_i, contrib)

    def unsigned_rows(self, effect: EffectSpec, lanes, x_i, contrib=None):
        """`change_rows` without its sign 1 - 2x: what adding an absent tie
        adds, or what removing a present one takes away. x_i is
        `self.x[lanes, i]`, actor i[r]'s row in lane lanes[r]. Density gives
        the scalar 1."""
        if effect.kind == "density":
            return 1
        if effect.kind == "degPlus":
            # adding tie (i,j): partner degree becomes deg_j + 1; removing: deg_j
            return self.deg[lanes] + (1 - x_i)
        if effect.kind == "gwesp":
            return self._gwesp_rows(lanes, x_i)
        if contrib is None:
            raise EffectError(f"effect {effect.kind} needs its contribution")
        return contrib

    def _gwesp_rows(self, lanes, x_i):
        """gwesp's unsigned rows. The edge (i, j) weighs weight[e_ij]; toggling
        it shifts the shared partners of each edge (i, h) with h adjacent to
        j by one: a gain steps[0, e_ih] if added, a loss steps[1, e_ih] if
        removed. The ties (h, j) of i's neighbours' rows, counted per (row,
        j) cell, give e_i.; `bincount` adds each cell's steps in ascending h."""
        k, n = x_i.shape
        weight, steps = _gwesp_tables(n)
        near = x_i.view(bool).ravel().nonzero()[0]  # i's neighbours h, at r * n + h
        r, h = divmod(near, n)
        rows = self.x[lanes[r], h]              # their rows: ties (h, j) at
        hit = rows.view(bool).ravel().nonzero()[0]  # m * n + j, for row r[m]
        m, j = divmod(hit, n)
        cells = r[m] * n + j
        e = np.bincount(cells, minlength=k * n)             # e_ij at r * n + j
        w = steps[x_i.ravel()[cells], e[near][m]]
        total = weight[e] + np.bincount(cells, w, minlength=k * n)
        return total.reshape(k, n)


def change_statistic(effect: EffectSpec, net: BinaryNetwork, i: int, j: int,
                     covs: CovariateSet = None, period: int = 0) -> float:
    """Change in actor i's statistic when tie (i, j) is toggled."""
    if i == j:
        raise EffectError("self-ties are not defined")
    contrib = None
    if effect.kind not in STRUCTURAL_KINDS:
        stack, _ = contribution(effect, covs)
        contrib = stack[layer(stack, period), i][None]
    lane, actor = np.zeros(1, np.intp), np.array([i])
    return float(NetState(net.x).change_rows(effect, lane, actor, contrib)[0, j])


def shared_partners(x):
    """(i, j, e) over the ties (i, j) of x, both orders: e[t] counts the
    shared partners of tie t on its two rows (exact, no matrix product)."""
    i, j = np.nonzero(x)
    return i, j, np.count_nonzero(x[i] & x[j], axis=1)


def _dyad_terms(effect: EffectSpec, state: NetState, covs: CovariateSet,
                period: int, use_mask: bool, lane: int = 0) -> np.ndarray:
    """The one definition of each effect's statistic: a dyad matrix whose
    row i sums to actor i's statistic on lane `lane` of `state` and whose sum
    is the total.

    use_mask=True reads a covariate effect's target stack, where dyads with
    missing covariate data are zero.
    """
    x = state.x[lane]
    if effect.kind == "density":
        return x
    if effect.kind == "degPlus":
        return x * state.deg[lane]  # row i sums x_ij deg_j
    if effect.kind == "gwesp":
        weight, _ = _gwesp_tables(len(x))
        i, j, e = shared_partners(x)
        terms = np.zeros(x.shape)
        terms[i, j] = weight[e]
        return terms
    contrib, target = contribution(effect, covs)
    return x * (target if use_mask else contrib)[layer(contrib, period)]


def effect_totals(effects, state: NetState, covs: CovariateSet = None,
                  period: int = 0, lane: int = 0) -> np.ndarray:
    """Per-effect totals on lane `lane` of `state`, dyads with missing
    covariate data excluded.

    Observed targets and simulated statistics both come from here, so the
    method-of-moments deviations compare like with like.
    """
    return np.array([_dyad_terms(eff, state, covs, period, True, lane).sum()
                     for eff in effects], dtype=float)


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
