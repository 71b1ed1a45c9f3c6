"""Continuous-time ministep simulation of undirected network evolution.

Actors get change opportunities at total rate n * lambda within a unit-
length period. At each opportunity one uniformly chosen actor compares n
options (keep the network, or toggle any one of its n-1 ties) by
multinomial logit over the objective-function changes. Under the forcing
rule the chosen toggle is imposed on both endpoints; under the
pairwise-conjunctive rule tie creation additionally requires the partner
to agree (logistic in the partner's own objective change), dissolution is
unilateral.

A simulated period is an independent `Task`: a start network, a model, a
period and a random stream. Tasks run as lanes of a lockstep kernel: one
`ministep` call advances every unfinished lane by one ministep with one
numpy call per operation. Each lane reads its own stream in blocks of
uniforms, DRAWS per ministep whatever happens in it, so a task's result
does not depend on which tasks share its batch or on LANE_CAP.

A batch run with `scores` also accumulates, per lane, the score of its
path with respect to beta (the choice's change statistics minus their
expectation under the choice probabilities, plus the partner's term under
the pairwise-conjunctive rule) and the sum of the per-step conditional
covariances of that score, for the phase-1 derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import (NETWORK_KINDS, STRUCTURAL_KINDS, ModelSpec, NetState,
                      contribution, effect_totals, layer)
from .panel import BinaryNetwork, CovariateSet

MAX_MINISTEPS = 10_000_000
LANE_CAP = 128       # tasks advanced together; a batch runs in chunks of this
BLOCK = 128         # ministeps of uniforms a lane draws from its stream at once
DRAWS = 4           # uniforms per ministep: holding time, actor, choice, partner


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Task:
    """One period to simulate.

    start: the `BinaryNetwork` the period starts from (in a panel, its
    observed wave); the lane counts its degrees from it. stream: a
    `SeedSequence`, seed or `Generator` (anything `np.random.default_rng`
    takes). Tasks built from one SeedSequence read the same numbers.
    keep_end: return the end network.
    """

    start: BinaryNetwork
    model: ModelSpec
    period: int
    stream: object
    keep_end: bool = False


def period_streams(rng, n_periods: int) -> list:
    """One `SeedSequence` child per period of one replicate, spawned from
    one draw of `rng`."""
    return np.random.SeedSequence(int(rng.integers(2**63))).spawn(n_periods)


class Lanes(NetState):
    """Tasks advancing in lockstep: their networks as lanes of a `NetState`,
    plus each lane's clock, stream and parameters. `live` holds the lanes
    whose period has not ended; `steps` counts the lockstep steps in which
    at least one lane made a ministep. With `scores`, `score` (lanes,
    effects) and `info` (lanes, effects, effects) accumulate each lane's
    beta-score and its per-step conditional covariances; else both are None.

    The effects whose change rows do not read the network (density and the
    covariate effects) are folded: `folded` holds one (n, n) matrix per
    distinct (their betas, period) among the tasks, the beta-weighted sum
    of those effects' unsigned rows in effect order, and lane r reads
    matrix `fold[r]`. The matrices live as long as the lanes.
    """

    def __init__(self, tasks, covs: CovariateSet = None, scores: bool = False):
        model = tasks[0].model
        if any(t.model.effects != model.effects
               or t.model.model_type != model.model_type for t in tasks):
            raise SimulationError("the tasks of a batch must share effects and rule")
        super().__init__(np.stack([t.start.x for t in tasks]))
        n = self.x.shape[-1]
        period = np.array([t.period for t in tasks])
        rate = np.array([t.model.rates[t.period] for t in tasks], dtype=float)
        if np.any(rate <= 0):
            raise SimulationError("rate must be positive")
        self.effects = model.effects
        self.conjunctive = model.model_type == "pairwise-conjunctive"
        self.beta = np.array([t.model.beta for t in tasks], dtype=float)
        self.contrib = {}   # effect index -> (its stack, each lane's layer)
        for k, eff in enumerate(self.effects):
            if eff.kind not in STRUCTURAL_KINDS:
                stack, _ = contribution(eff, covs)
                self.contrib[k] = (stack, layer(stack, period))
        self.network = [k for k, eff in enumerate(self.effects)
                        if eff.kind in NETWORK_KINDS]
        fixed = [k for k in range(len(self.effects)) if k not in self.network]
        _, firsts, self.fold = np.unique(
            np.column_stack((self.beta[:, fixed], period)), axis=0,
            return_index=True, return_inverse=True)
        self.folded = np.zeros((len(firsts), n, n))
        # matrix by matrix, so that no temporary is larger than n x n
        for matrix, r in zip(self.folded, firsts):
            for k in fixed:
                matrix += self.beta[r, k] * self.unsigned_rows(
                    self.effects[k], None, None, self._contrib(k, r))
        self.streams = [np.random.default_rng(t.stream) for t in tasks]
        self.draws = 0      # ministeps of uniforms each live lane has read
        self.live = np.arange(len(tasks))
        self.scale = 1.0 / (n * rate)       # each live lane's holding-time scale
        # per live lane: its block of uniforms and, per ministep of the
        # block, its clock after the holding time and the actor drawn
        self.block = self.actors = None
        self.times = np.zeros((len(tasks), 1))
        self.steps = 0
        q = len(self.effects)
        self.score = np.zeros((len(tasks), q)) if scores else None
        self.info = np.zeros((len(tasks), q, q)) if scores else None

    def refill(self):
        """Read the next BLOCK ministeps of uniforms of every live lane, and
        turn them into clock times and actors in one pass: a lane's clock
        adds its holding times one by one, as a step at a time would."""
        n = self.x.shape[-1]
        block = np.empty((self.live.size, BLOCK, DRAWS))
        for r, lane in enumerate(self.live):
            self.streams[lane].random(out=block[r])
        times = -np.log1p(-block[:, :, 0]) * self.scale[:, None]
        times[:, 0] += self.times[:, -1]
        np.cumsum(times, axis=1, out=times)
        self.block, self.times = block, times
        self.actors = np.minimum((block[:, :, 1] * n).astype(np.intp), n - 1)

    def retire(self, going):
        """Keep only the live lanes where `going` holds."""
        self.live, self.scale, self.block, self.times, self.actors = (
            self.live[going], self.scale[going], self.block[going],
            self.times[going], self.actors[going])

    def _contrib(self, k, lanes, i=slice(None)):
        """Effect k's `contribution` values for lanes `lanes`: its rows i
        (whole matrices by default); None if effect k has no covariate."""
        if k not in self.contrib:
            return None
        stack, lay = self.contrib[k]
        return stack[lay[lanes], i]

    def objective(self, lanes, i, units=None) -> np.ndarray:
        """Objective change of actor i[r] in lane lanes[r] for toggling each
        tie (i[r], j): the lane's folded row plus the beta-weighted
        `change_rows` of the effects that read the network, with the common sign
        taken out of the sum (exact, as negation does not round). A list passed
        as `units` receives each effect's unsigned rows, in effect order."""
        x_i = self.x[lanes, i]
        total = self.folded[self.fold[lanes], i]
        beta = self.beta[lanes, :, None]
        rows = {k: self.unsigned_rows(self.effects[k], lanes, x_i)
                for k in self.network}
        for k, unsigned in rows.items():
            total += beta[:, k] * unsigned
        if units is not None:
            units += [rows[k] if k in rows else self.unsigned_rows(
                eff, lanes, x_i, self._contrib(k, lanes, i))
                for k, eff in enumerate(self.effects)]
        return np.negative(total, out=total, where=x_i.view(bool))

    def add_scores(self, lanes, rows, probs, chosen):
        """Add one choice to the scores of `lanes`: rows (r, effects, k) are
        the change statistics of k options, probs (r, k) their
        probabilities and chosen (r,) the option taken."""
        weighted = rows * probs[:, None, :]
        mean = weighted.sum(axis=2)
        self.score[lanes] += rows[np.arange(len(lanes)), :, chosen] - mean
        self.info[lanes] += (weighted @ rows.transpose(0, 2, 1)
                             - mean[:, :, None] * mean[:, None, :])


def _stacked(units, shape) -> np.ndarray:
    """The effects' rows from `objective(..., units=...)` as one (r,
    effects, ...) float array (density's scalar broadcast)."""
    rows = np.empty((shape[0], len(units)) + shape[1:])
    for k, unsigned in enumerate(units):
        rows[:, k] = unsigned
    return rows


def ministep(state: Lanes) -> Lanes:
    """Advance every live lane by one actor opportunity; mutates and returns
    `state`.

    A lane's clock moves by an exponential holding time with total rate
    n * lambda; the tie change (if any) is applied afterwards. A lane whose
    holding time overshoots t = 1 has ended its period, makes no change and
    leaves `live`.
    """
    row = state.draws % BLOCK
    if row == 0:
        state.refill()
    state.draws += 1
    going = state.times[:, row] < 1.0
    if np.count_nonzero(going) < going.size:    # as going.all(), but quicker
        state.retire(going)
        if state.live.size == 0:
            return state
    live = state.live
    state.steps += 1
    if state.steps > MAX_MINISTEPS:
        raise SimulationError("ministep budget exceeded; rates are diverging")

    n = state.x.shape[-1]
    rows = np.arange(live.size)
    i = state.actors[:, row]
    u = state.block[:, row]
    units = None if state.score is None else []
    delta = state.objective(live, i, units=units)
    delta[rows, i] = 0.0  # slot i doubles as the keep-the-network option
    if not np.isfinite(delta).all():
        lane = live[~np.isfinite(delta).all(axis=1)][0]
        raise SimulationError(
            f"non-finite objective change for actor {i[live == lane][0]} "
            f"(beta={state.beta[lane]})")
    delta -= delta.max(axis=1, keepdims=True)  # logits, then weights, then
    np.exp(delta, out=delta)                   # their running sums, in place
    if units is not None:
        probs = delta / delta.sum(axis=1, keepdims=True)
    np.cumsum(delta, axis=1, out=delta)
    j = np.minimum((delta <= u[:, 2:3] * delta[:, -1:]).sum(axis=1), n - 1)
    if units is not None:
        changes = _stacked(units, delta.shape)
        np.negative(changes, out=changes, where=state.x[live, i].view(bool)[:, None])
        changes[rows, :, i] = 0.0   # keeping the network changes nothing
        state.add_scores(live, changes, probs, j)
    lanes = live
    move = j != i
    moving = np.count_nonzero(move)
    if moving < move.size:
        if not moving:
            return state
        lanes, i, j, u = live[move], i[move], j[move], u[move]

    if state.conjunctive:
        adding = (state.x[lanes, i, j] == 0).nonzero()[0]
        if adding.size:
            units = None if state.score is None else []
            # partner j's objective row, read at i: its change for tie (j, i)
            asked, at = np.arange(adding.size), i[adding]
            partner = state.objective(lanes[adding], j[adding],
                                      units=units)[asked, at]
            agree = 1.0 / (1.0 + np.exp(-partner))
            refused = u[adding, 3] >= agree
            if units is not None:
                # the partner's two options: refuse (no change) or agree
                changes = np.zeros((adding.size, len(units), 2))
                changes[:, :, 1] = _stacked(units, (adding.size, n))[asked, :, at]
                state.add_scores(lanes[adding], changes,
                                 np.column_stack((1.0 - agree, agree)),
                                 (~refused).astype(np.intp))
            keep = np.ones(lanes.size, dtype=bool)
            keep[adding[refused]] = False
            lanes, i, j = lanes[keep], i[keep], j[keep]
    if lanes.size:
        state.toggle(lanes, i, j)
    return state


def _run(tasks, covs, scores=False):
    """Every task of a batch, LANE_CAP lanes at a time; see `simulate_period`."""
    asks = np.zeros(len(tasks), dtype=bool)
    asks[:] = scores
    q = len(tasks[0].model.effects) if tasks else 0
    score = np.empty((np.count_nonzero(asks), q))
    info = np.empty((score.shape[0], q, q))
    totals, changed, ends = [], [], []
    at = 0      # rows of score and info filled so far
    for first in range(0, len(tasks), LANE_CAP):
        chunk = tasks[first:first + LANE_CAP]
        ask = asks[first:first + LANE_CAP]
        state = Lanes(chunk, covs, ask.any())
        while state.live.size:
            ministep(state)
        if state.score is not None:
            done = at + np.count_nonzero(ask)
            score[at:done], info[at:done] = state.score[ask], state.info[ask]
            at = done
        for lane, task in enumerate(chunk):
            end = state.x[lane]
            totals.append(effect_totals(state.effects, state, covs,
                                        task.period, lane))
            changed.append(np.count_nonzero(end != task.start.x) // 2)
            ends.append(end.copy() if task.keep_end else None)
        del state   # its lanes go before the next chunk's are built
    if scores is False:
        return np.array(totals), np.array(changed), ends
    return np.array(totals), np.array(changed), ends, score, info


def simulate_period(start, model: ModelSpec = None, covs: CovariateSet = None,
                    period: int = 0, rng=None, seed=None, scores=False):
    """Run ministeps over one unit period from the network `start`; or, when
    `start` is a list of `Task`s, over each task's period.

    For one network, returns (end_network, totals, n_changed_dyads) where
    the totals are `effect_totals` of the end network, read by the same
    formula as the observed targets, and n_changed_dyads is the Hamming
    distance from the start wave. The period reads its uniforms from `rng`
    (or a generator seeded with `seed`).

    For a batch of tasks (which share effects, rule and `covs`), returns
    (totals, changed, ends): a (tasks, effects) array, a (tasks,) array and
    a list holding each task's end adjacency if it asked to keep it, else
    None. With `scores` (True for every task, or one bool per task), two
    more, over the tasks it names in batch order: each one's beta-score
    (tasks, effects) and the sum of its per-step score covariances (tasks,
    effects, effects), whose expectation is the score's covariance.
    """
    if not isinstance(start, BinaryNetwork):
        return _run(start, covs, scores)
    if rng is None:
        rng = np.random.default_rng(seed)
    task = Task(start, model, period, rng, keep_end=True)
    totals, changed, ends = _run([task], covs)
    return (BinaryNetwork(start.actors, start.year, ends[0]), totals[0],
            int(changed[0]))


def panel_stats(changed, totals) -> np.ndarray:
    """The statistic vectors of panel simulations from their periods'
    results: [changed dyads per period, per-effect totals summed over
    periods]. `changed` is (..., periods) and `totals` (..., periods,
    effects), one leading index per simulated panel."""
    return np.concatenate([changed, totals.sum(axis=-2)], axis=-1)


def panel_tasks(panel, model: ModelSpec, rng, replicates=1):
    """The tasks of `replicates` independent panel simulations, every period
    from its observed start wave: each replicate's periods in turn, on its
    own `period_streams(rng, periods)`, drawn in turn."""
    n_periods = panel.n_waves - 1
    last = n_periods - 1
    tasks = []
    for _ in range(replicates):
        tasks += [Task(panel.wave(m), model, m, stream, keep_end=m == last)
                  for m, stream in enumerate(period_streams(rng, n_periods))]
    return tasks


def panel_results(panel, totals, changed, ends):
    """(stats, finals) of the replicates of `panel_tasks`, from their
    tasks' `simulate_period` results: stats is the (replicates, p) array of
    `panel_stats`; finals holds each replicate's simulated last wave."""
    n_periods = panel.n_waves - 1
    replicates = len(changed) // n_periods
    stats = panel_stats(changed.reshape(replicates, n_periods),
                        totals.reshape(replicates, n_periods, -1))
    year = panel.wave(n_periods).year
    return stats, [BinaryNetwork(panel.actors, year, x)
                   for x in ends[n_periods - 1::n_periods]]


def simulate_panel(panel, model: ModelSpec, covs: CovariateSet, rng,
                   replicates=1):
    """Simulate `replicates` independent panels as one batch: the tasks of
    `panel_tasks`, read back by `panel_results`."""
    tasks = panel_tasks(panel, model, rng, replicates)
    return panel_results(panel, *simulate_period(tasks, covs=covs))
