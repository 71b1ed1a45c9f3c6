"""Continuous-time ministep simulation of undirected network evolution.

Actors get change opportunities at total rate n * lambda within a unit-
length period. At each opportunity one uniformly chosen actor compares n
options (keep the network, or toggle any one of its n-1 ties) by
multinomial logit over the objective-function changes. Under the forcing
rule the chosen toggle is imposed on both endpoints; under the
pairwise-conjunctive rule tie creation additionally requires the partner
to agree (logistic in the partner's own objective change), dissolution is
unilateral.
"""

from __future__ import annotations

import numpy as np

from .effects import (STRUCTURAL_KINDS, ModelSpec, NetState, change_row,
                      contribution, effect_totals)
from .panel import BinaryNetwork, CovariateSet

MAX_MINISTEPS = 10_000_000


class SimulationError(RuntimeError):
    pass


class SimState(NetState):
    """One period's simulation: the network with the values kept up to date
    per toggle, the clock and the random stream.

    Beyond NetState's values it keeps `fixed`, the part of the objective
    change that does not depend on the network's structure: for each dyad,
    its toggle sign times (the density parameter plus the beta-weighted
    covariate contributions). A toggle flips two of its entries.
    """

    def __init__(self, start: BinaryNetwork, model: ModelSpec,
                 covs: CovariateSet = None, period: int = 0, rng=None):
        super().__init__(start.x)
        n = self.x.shape[0]
        rate = float(model.rates[period])
        if rate <= 0:
            raise SimulationError("rate must be positive")
        self.model = model
        self.rng = rng
        self.t = 0.0
        self.steps = 0
        self.holding_scale = 1.0 / (n * rate)
        self.conjunctive = model.model_type == "pairwise-conjunctive"
        covs = covs or CovariateSet()
        beta = model.beta
        combined = np.zeros((n, n))
        density = 0.0
        self.terms = []        # (beta_k, effect): structural rows per ministep
        for k, eff in enumerate(model.effects):
            if eff.kind == "density":
                density += beta[k]
            elif eff.kind in STRUCTURAL_KINDS:
                if beta[k] != 0.0:
                    self.terms.append((beta[k], eff))
            else:
                combined += beta[k] * contribution(eff, covs, period)[0]
        self.fixed = (combined + density) * self.sign

    def toggle(self, i: int, j: int):
        super().toggle(i, j)
        fixed = self.fixed
        fixed[i, j] = -fixed[i, j]
        fixed[j, i] = -fixed[j, i]

    def objective_delta_row(self, i: int) -> np.ndarray:
        """Vector over j of the objective-function change for toggling (i, j)."""
        delta = self.fixed[i].copy()
        for b, eff in self.terms:
            delta += b * change_row(eff, self, i)
        return delta

    def partner_delta(self, j: int, i: int) -> float:
        """Entry i of `objective_delta_row(j)`, computed alone."""
        delta = self.fixed[j, i]
        for b, eff in self.terms:
            delta += b * self.change_entry(eff, j, i)
        return delta


def ministep(state: SimState) -> SimState:
    """Advance one actor opportunity; mutates and returns `state`.

    Time is advanced by an exponential holding time with total rate
    n * lambda; the tie change (if any) is applied afterwards. If the
    holding time overshoots t = 1 the period is over and no change is made.
    """
    rng = state.rng
    state.t += rng.exponential(state.holding_scale)
    if state.t >= 1.0:
        return state
    state.steps += 1
    if state.steps > MAX_MINISTEPS:
        raise SimulationError("ministep budget exceeded; rates are diverging")

    n = state.x.shape[0]
    i = int(rng.integers(n))
    delta = state.objective_delta_row(i)
    delta[i] = 0.0  # slot i doubles as the keep-the-network option
    if not np.isfinite(delta).all():
        raise SimulationError(
            f"non-finite objective change for actor {i} (beta={state.model.beta})")
    delta -= delta.max()  # logits, then probabilities, in delta's buffer
    probs = np.exp(delta, out=delta)
    probs /= probs.sum()
    j = min(int(probs.cumsum().searchsorted(rng.random(), side="right")), n - 1)
    if j == i:
        return state

    if state.conjunctive and state.sign[i, j] > 0:
        if rng.random() >= 1.0 / (1.0 + np.exp(-state.partner_delta(j, i))):
            return state
    state.toggle(i, j)
    return state


def simulate_period(start: BinaryNetwork, model: ModelSpec,
                    covs: CovariateSet = None, period: int = 0,
                    rng=None, seed=None):
    """Run ministeps over one unit period.

    Returns (end_network, totals, n_changed_dyads) where the totals are
    `effect_totals` of the end network, read by the same formula as the
    observed targets, and n_changed_dyads is the Hamming distance from the
    start wave.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    state = SimState(start, model, covs, period, rng)
    while state.t < 1.0:
        ministep(state)
    xi = state.x.astype(np.int8)
    end = BinaryNetwork(start.actors, start.year, xi)
    totals = effect_totals(model.effects, state, covs, period)
    changed = int(np.count_nonzero(xi != start.x)) // 2
    return end, totals, changed


def simulate_panel(panel, model: ModelSpec, covs: CovariateSet = None, rng=None,
                   seed=None):
    """Simulate every period from its observed start wave.

    Returns (stats, end_networks): stats is the concatenated statistic
    vector [changed dyads per period, per-effect totals summed over
    periods]; end_networks holds each period's simulated end state.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    n_periods = panel.n_waves - 1
    changes = np.zeros(n_periods)
    totals = np.zeros(model.n_effects)
    ends = []
    for m in range(n_periods):
        end, per_effect, changed = simulate_period(panel.wave(m), model, covs,
                                                   period=m, rng=rng)
        changes[m] = changed
        totals += per_effect
        ends.append(end)
    return np.concatenate([changes, totals]), ends
