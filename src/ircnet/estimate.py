"""Method-of-moments estimation by three-phase stochastic approximation.

Parameters are theta = [rates per period, beta per effect]. The observed
targets are the per-period changed-dyad counts and the per-effect totals
on the end-of-period waves. Phase 1 estimates the derivative of expected
statistics (rates by common-random-number finite differences, effects by
the score function given enough replicates), phase 2 iterates
Robbins-Monro updates with halving gains, phase 3 simulates at the fixed
estimate to obtain the statistic covariance, standard errors, and
convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm as _norm

from .effects import ModelSpec, target_statistics
from .panel import BinaryNetSeries, CovariateSet, hamming
from .simulate import (Task, panel_results, panel_stats, panel_tasks,
                       period_streams, simulate_panel, simulate_period)

RATE_FLOOR = 0.01
INITIAL_RATE_FALLBACK = 0.5
DIVERGENCE_NORM = 1e3
RESTARTS = 2        # phase-2 reruns while conv_ratio > t_max
# phase-1 replicates per coefficient of the score regression (q scores and
# an intercept); below that the regression is singular or too noisy, and
# the effects' columns fall back to finite differences
SCORE_REPLICATES = 4


class EstimationError(RuntimeError):
    pass


class OptionRangeError(EstimationError):
    """An estimation option outside its range; `key` names the option."""

    def __init__(self, key, rule):
        super().__init__(f"{key} must be {rule}")
        self.key = key


class SingularDerivativeError(EstimationError):
    """The derivative matrix is (numerically) singular; respecify the model."""


class DivergenceError(EstimationError):
    """The parameter vector left the DIVERGENCE_NORM ball in phase 2."""


@dataclass(frozen=True)
class EstimationOptions:
    n1: int = 50                 # phase-1 simulations
    subphases: int = 4
    n3: int = 1000               # phase-3 simulations
    initial_gain: float = 0.2
    t_max: float = 0.25          # rerun phases 1-3 while conv_ratio exceeds it
    seed: int = 0
    derivative_step: float = 0.1
    max_subphase_iter: int = None   # default 200 + 10 * n_parameters
    min_subphase_iter: int = 5
    keep_draws: bool = True

    def __post_init__(self):
        if not (0 < self.initial_gain < 1):
            raise OptionRangeError("initial_gain", "in (0, 1)")
        for name in ("n1", "subphases", "n3"):
            if getattr(self, name) <= 0:
                raise OptionRangeError(name, "positive")
        if self.max_subphase_iter is not None and self.max_subphase_iter <= 0:
            raise OptionRangeError("max_subphase_iter", "positive")
        if not (math.isfinite(self.derivative_step) and self.derivative_step):
            raise OptionRangeError("derivative_step", "finite and nonzero")
        if math.isnan(self.t_max):
            raise OptionRangeError("t_max", "a number")


@dataclass
class EstimationResult:
    theta: np.ndarray            # rates then effect parameters
    se: np.ndarray               # same layout
    rate_labels: list
    effect_labels: list
    derivative: np.ndarray
    covariance: np.ndarray
    tratios: np.ndarray          # per-parameter convergence t-ratios
    conv_ratio: float            # overall maximum convergence ratio
    iterations: int
    seed: int
    ridge_applied: bool = False
    draws_stats: np.ndarray = None       # n3 x p simulated statistic vectors
    draws_final_networks: list = field(default_factory=list)
    targets: np.ndarray = None

    @property
    def n_rates(self) -> int:
        return len(self.rate_labels)

    @property
    def rates(self) -> np.ndarray:
        return self.theta[: self.n_rates]

    @property
    def beta(self) -> np.ndarray:
        return self.theta[self.n_rates:]

    @property
    def beta_se(self) -> np.ndarray:
        return self.se[self.n_rates:]


def _with_theta(model: ModelSpec, theta, n_periods) -> ModelSpec:
    return replace(model, rates=np.maximum(theta[:n_periods], RATE_FLOOR),
                   beta=theta[n_periods:])


def observed_targets(panel: BinaryNetSeries, model: ModelSpec,
                     covs: CovariateSet = None) -> np.ndarray:
    """Target statistic vector: per-period changed dyads, then effect totals."""
    n_periods = panel.n_waves - 1
    changes = np.array([hamming(panel.wave(m), panel.wave(m + 1))
                        for m in range(n_periods)], dtype=float)
    return np.concatenate([changes, target_statistics(panel, model, covs)])


def initialize(panel: BinaryNetSeries, model: ModelSpec,
               covs: CovariateSet = None) -> np.ndarray:
    """Starting parameter vector.

    Rates start at 2 * H_m * n/(n-1) / n (twice the observed changed-dyad
    count per actor, inflated for cancelling back-and-forth toggles, with
    the small-sample n/(n-1) factor); a period with no observed change
    falls back to 0.5. The density parameter starts at -1, everything
    else at 0.
    """
    if panel.n_waves < 2:
        raise EstimationError("need at least 2 waves")
    n = panel.actors.n
    n_periods = panel.n_waves - 1
    rates = np.empty(n_periods)
    for m in range(n_periods):
        h = hamming(panel.wave(m), panel.wave(m + 1))
        rates[m] = 2.0 * h * n / (n - 1) / n if h > 0 else INITIAL_RATE_FALLBACK
    beta = np.zeros(model.n_effects)
    for k, eff in enumerate(model.effects):
        if eff.kind == "density":
            beta[k] = -1.0
    return np.concatenate([rates, beta])


def phase1_derivative(theta, panel, model, covs, options: EstimationOptions,
                      rng=None, check=True, draws=()):
    """Monte Carlo estimate of d E[S] / d theta from n1 panel replicates.

    Rate m's column is a finite difference with common random numbers: the
    replicate's period m re-simulated at rate m + h on the same stream. Rate
    m moves period m alone, so its entries for the other periods'
    changed-dyad counts are exactly 0.

    The effects' columns come from the score function when there are at
    least SCORE_REPLICATES * (effects + 1) replicates: d E[S] / d beta =
    Cov(S, G) with G the beta-score of the replicate's paths (Schweinberger
    & Snijders 2007), estimated per period as B I, where B regresses the
    period's statistics on its score and I, the mean of the score's summed
    per-step conditional covariances, estimates Cov(G) = E[G G'] without
    the regression's sampling noise. With fewer replicates each effect
    column is a finite difference like the rates', re-simulating every
    period. All replicates and columns run as one batch.

    `draws` are other tasks to run in the same batch, ahead of the
    derivative's own: panel simulations at theta (`panel_tasks`), whose
    streams the caller drew. With them, returns (d, their (totals, changed,
    ends)); a task's results do not depend on its batch, so they are those
    of a batch of their own.
    """
    if rng is None:
        rng = np.random.default_rng(options.seed)
    n_periods = panel.n_waves - 1
    p = len(theta)
    q = p - n_periods
    n1 = options.n1
    h = options.derivative_step
    by_score = n1 >= SCORE_REPLICATES * (q + 1)

    def perturbed(k):
        pert = np.array(theta, dtype=float)
        pert[k] += h
        return _with_theta(model, pert, n_periods)

    # one replicate's tasks, in rows of n_periods: its base periods, each
    # period again at its own perturbed rate and, without scores, every
    # period once per perturbed effect
    effect_models = [] if by_score else [perturbed(k) for k in range(n_periods, p)]
    layout = ([(_with_theta(model, theta, n_periods), m) for m in range(n_periods)]
              + [(perturbed(m), m) for m in range(n_periods)]
              + [(mdl, m) for mdl in effect_models for m in range(n_periods)])
    tasks = list(draws)
    for _ in range(n1):
        streams = period_streams(rng, n_periods)
        tasks += [Task(panel.wave(m), mdl, m, streams[m]) for mdl, m in layout]
    k = len(draws)
    asks = [False] * k + [True] * (len(tasks) - k) if by_score else False
    totals, changed, ends, *scores = simulate_period(tasks, covs=covs,
                                                     scores=asks)
    drawn = totals[:k], changed[:k], ends[:k]
    changed = changed[k:].reshape(n1, len(layout))
    totals = totals[k:].reshape(n1, len(layout), -1)
    # each column's task per period: rate column m reads the base row with
    # period m taken from the rates row, an effect column its own row
    rows = np.arange(len(layout)).reshape(-1, n_periods)
    index = np.vstack((np.where(np.eye(n_periods, dtype=bool), rows[1], rows[0]),
                       rows[2:]))
    base = panel_stats(changed[:, :n_periods], totals[:, :n_periods])
    diffs = (panel_stats(changed[:, index], totals[:, index]) - base[:, None]) / h
    d = np.zeros((p, p))
    d[:, :diffs.shape[1]] = diffs.sum(axis=0).T / n1
    if by_score:
        score = scores[0].reshape(n1, len(layout), q)
        info = scores[1].reshape(n1, len(layout), q, q)
        for m in range(n_periods):
            stats = np.column_stack((changed[:, m], totals[:, m]))
            g = score[:, m]
            coef = np.linalg.lstsq(g - g.mean(axis=0), stats - stats.mean(axis=0),
                                   rcond=None)[0]
            slope = coef.T @ info[:, m].mean(axis=0)
            d[m, n_periods:] = slope[0]
            d[n_periods:, n_periods:] += slope[1:]
    if check:
        cond = np.linalg.cond(d)
        if not np.isfinite(cond) or cond > 1e10:
            raise SingularDerivativeError(
                f"derivative matrix is singular (condition number {cond:.3g}); "
                "the model contains collinear or unidentified effects")
    return (d, drawn) if draws else d


def phase2_update(theta, deriv, panel, model, covs, options: EstimationOptions,
                  rng=None, first=None):
    """Robbins-Monro iterations over halving-gain subphases.

    Within a subphase: theta <- theta - a * D^-1 (S_sim - s_obs), one
    panel simulation (one batch of its periods) per iteration. A subphase
    ends when the running mean of successive deviation inner products turns
    negative (deviations are oscillating around zero, so the remaining
    error is noise) after a minimum number of iterations, or at the hard
    cap. The gain halves between subphases; the estimate is the average of
    theta over the final subphase. Returns (theta_hat, total_iterations).
    `first`, if given, is the first iteration's panel statistics, simulated
    by the caller at `theta` on `rng`'s next streams (`estimate` runs it in
    phase 1's batch).
    """
    if rng is None:
        rng = np.random.default_rng(options.seed)
    n_periods = panel.n_waves - 1
    s_obs = observed_targets(panel, model, covs)
    d_inv = np.linalg.pinv(deriv)
    p = len(theta)
    cap = options.max_subphase_iter or (200 + 10 * p)
    theta = np.asarray(theta, dtype=float).copy()
    gain = options.initial_gain
    total_iter = 0
    for sub in range(options.subphases):
        prev_dev = None
        cross_sum = 0.0
        thetas = []
        for it in range(cap):
            if first is None:
                stats = simulate_panel(panel, _with_theta(model, theta, n_periods),
                                       covs, rng)[0][0]
            else:
                stats, first = first, None
            dev = stats - s_obs
            theta = theta - gain * (d_inv @ dev)
            theta[:n_periods] = np.maximum(theta[:n_periods], RATE_FLOOR)
            thetas.append(theta.copy())
            total_iter += 1
            if np.linalg.norm(theta) > DIVERGENCE_NORM:
                raise DivergenceError("parameter vector diverged in phase 2")
            if prev_dev is not None:
                cross_sum += float(dev @ prev_dev)
                if it + 1 >= options.min_subphase_iter and cross_sum / it < 0:
                    break
            prev_dev = dev
        if sub == options.subphases - 1:
            theta = np.mean(thetas, axis=0)
        gain *= 0.5
    return theta, total_iter


def phase3_finalize(theta_hat, panel, model, covs, options: EstimationOptions,
                    rng=None, iterations=0) -> EstimationResult:
    """Simulate at the fixed estimate; derive SEs and convergence diagnostics.

    The n3 draws and the derivative run as one batch: the draws' streams
    come first from `rng`, then the derivative's."""
    if rng is None:
        rng = np.random.default_rng(options.seed)
    n_periods = panel.n_waves - 1
    s_obs = observed_targets(panel, model, covs)
    p = len(theta_hat)
    draws = panel_tasks(panel, _with_theta(model, theta_hat, n_periods), rng,
                        options.n3)
    deriv, drawn = phase1_derivative(theta_hat, panel, model, covs, options,
                                     rng, False, draws)
    stats, finals = panel_results(panel, *drawn)
    sigma = np.cov(stats, rowvar=False)
    sigma = np.atleast_2d(sigma)
    ridge = False
    if np.linalg.matrix_rank(sigma) < p or np.linalg.cond(sigma) > 1e12:
        sigma = sigma + 1e-8 * np.eye(p)
        ridge = True
    d_inv = np.linalg.pinv(deriv)
    cov_theta = d_inv @ sigma @ d_inv.T
    se = np.sqrt(np.maximum(np.diag(cov_theta), 0.0))
    dev = stats - s_obs
    dbar = dev.mean(axis=0)
    sd = dev.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tratios = np.where(sd > 0, dbar / sd, np.inf * np.sign(dbar))
    conv = float(np.sqrt(dbar @ np.linalg.solve(sigma, dbar)))
    rate_labels = [f"rate period {m + 1}" for m in range(n_periods)]
    effect_labels = [eff.label for eff in model.effects]
    return EstimationResult(
        theta=np.asarray(theta_hat, dtype=float),
        se=se,
        rate_labels=rate_labels,
        effect_labels=effect_labels,
        derivative=deriv,
        covariance=sigma,
        tratios=tratios,
        conv_ratio=conv,
        iterations=iterations,
        seed=options.seed,
        ridge_applied=ridge,
        draws_stats=stats,
        draws_final_networks=finals if options.keep_draws else [],
        targets=s_obs,
    )


def _fit(theta, panel, model, covs, options: EstimationOptions, rngs,
         iterations=0, check=False) -> EstimationResult:
    """Phases 1-3 from `theta`; the result's iterations include `iterations`.

    Phase 1's batch also runs phase 2's first iteration, which is at the
    same theta. With `check`, a singular derivative is retried at 2 and 4
    times n1 on the same first-iteration tasks, so rng2 is drawn once."""
    rng1, rng2, rng3 = rngs
    first = panel_tasks(panel, _with_theta(model, theta, panel.n_waves - 1),
                        rng2)
    for attempt in range(3):
        try:
            # noise can make a small-n1 derivative estimate singular;
            # retry with more replicates before giving up on the model
            opts1 = replace(options, n1=options.n1 * 2 ** attempt)
            deriv, drawn = phase1_derivative(theta, panel, model, covs, opts1,
                                             rng1, check, first)
            break
        except SingularDerivativeError:
            if attempt == 2:
                raise
    stats = panel_results(panel, *drawn)[0][0]
    theta_hat, iters = phase2_update(theta, deriv, panel, model, covs, options,
                                     rng2, stats)
    return phase3_finalize(theta_hat, panel, model, covs, options, rng3,
                           iterations + iters)


def estimate(panel: BinaryNetSeries, model: ModelSpec, covs: CovariateSet = None,
             options: EstimationOptions = None) -> EstimationResult:
    """Full three-phase estimation from default starting values. While the
    convergence ratio exceeds `t_max`, phases 1-3 rerun from the estimate,
    at most RESTARTS times; a rerun is kept only if its ratio is lower."""
    options = options or EstimationOptions()
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(options.seed).spawn(3)]
    theta0 = initialize(panel, model, covs)
    result = _fit(theta0, panel, model, covs, options, rngs, check=True)
    for _ in range(RESTARTS):
        if result.conv_ratio <= options.t_max:
            break
        try:
            candidate = _fit(result.theta, panel, model, covs, options, rngs,
                             result.iterations)
        except DivergenceError:
            break
        if candidate.conv_ratio >= result.conv_ratio:
            break
        result = candidate
    return result


def p_value(est: float, se: float) -> float:
    """Two-sided normal p-value from an estimate and its standard error."""
    if se <= 0:
        raise EstimationError("p-value undefined for SE <= 0")
    return float(2.0 * (1.0 - _norm.cdf(abs(est / se))))


def stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def p_values(result: EstimationResult) -> list:
    """Per-effect (label, estimate, se, p, stars) rows, Table-style; an SE
    of 0 or less has no p-value, so its row gets p = nan and no stars."""
    rows = []
    for label, est, se in zip(result.effect_labels, result.beta, result.beta_se):
        p = p_value(est, se) if se > 0 else float("nan")
        rows.append((label, float(est), float(se), p, stars(p)))
    return rows
