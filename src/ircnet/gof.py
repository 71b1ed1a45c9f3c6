"""Goodness of fit: auxiliary statistics against the phase-3 draws.

Observed auxiliaries on the final wave are compared to the distribution of
the same auxiliaries over the retained phase-3 end networks with a
Monte-Carlo Mahalanobis test (pseudo-inverse covariance, so constant
dimensions drop out).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .effects import shared_partners
from .panel import BinaryNetwork, PanelError, degree_sequence

PINV_TOL = 1e-10
MIN_DRAWS = 20

AUX_KINDS = ("degree_distribution", "triad_census")


class GofError(ValueError):
    pass


@dataclass
class AuxiliaryStat:
    kind: str
    labels: list
    observed: np.ndarray
    simulated: np.ndarray       # draws x dimensions
    q05: np.ndarray
    q50: np.ndarray
    q95: np.ndarray
    distances: np.ndarray       # Mahalanobis distance per draw
    observed_distance: float
    p: float


def degree_distribution_aux(net: BinaryNetwork, max_k: int) -> np.ndarray:
    """Counts of actors with degree 0..max_k plus an overflow bucket."""
    if max_k < 0:
        raise GofError("max_k must be >= 0")
    deg = degree_sequence(net)
    counts = np.bincount(np.minimum(deg, max_k + 1), minlength=max_k + 2)
    return counts.astype(np.int64)


def triad_census_undirected(net: BinaryNetwork) -> np.ndarray:
    """Counts of triples with 0/1/2/3 internal edges (MAN codes 003/102/201/300)."""
    n = net.actors.n
    if n < 3:
        raise PanelError("triad census needs n >= 3")
    deg = net.x.sum(axis=1, dtype=np.int64)
    edges = int(deg.sum()) // 2
    # a triangle is a shared partner of each of its 3 ties, both orders
    _, _, e = shared_partners(net.x)
    triangles = int(e.sum()) // 6
    two_paths = int((deg * (deg - 1) // 2).sum())  # open + closed 2-paths
    n201 = two_paths - 3 * triangles
    n102 = edges * (n - 2) - 2 * n201 - 3 * triangles
    n003 = comb(n, 3) - n102 - n201 - triangles
    return np.array([n003, n102, n201, triangles], dtype=np.int64)


TRIAD_LABELS = ["003", "102", "201", "300"]


def _aux_vector(kind: str, net: BinaryNetwork, max_k: int):
    if kind == "degree_distribution":
        v = degree_distribution_aux(net, max_k)
        labels = [str(k) for k in range(max_k + 1)] + [f">{max_k}"]
        return v.astype(float), labels
    if kind == "triad_census":
        return triad_census_undirected(net).astype(float), list(TRIAD_LABELS)
    raise GofError(f"unknown auxiliary kind {kind!r}")


def mahalanobis_test(observed: np.ndarray, simulated: np.ndarray):
    """Monte-Carlo Mahalanobis p: share of draws at least as far from the
    simulated mean as the observed vector (pseudo-inverse covariance)."""
    mu = simulated.mean(axis=0)
    cov = np.atleast_2d(np.cov(simulated, rowvar=False))
    icov = np.linalg.pinv(cov, rcond=PINV_TOL)

    def dist(v):
        d = v - mu
        return float(np.sqrt(max(d @ icov @ d, 0.0)))

    d_obs = dist(observed)
    d_draws = np.array([dist(s) for s in simulated])
    p = float(np.mean(d_draws >= d_obs - 1e-12))
    return d_obs, d_draws, p


def gof_test(result, final_wave: BinaryNetwork, kind: str) -> AuxiliaryStat:
    """Compare an observed auxiliary on the final wave to the phase-3 draws.

    Degree distributions run up to the largest degree over the wave and the
    draws."""
    draws = result.draws_final_networks or []
    if len(draws) < MIN_DRAWS:
        raise GofError(
            f"found {len(draws)} retained phase-3 draws, need at least "
            f"{MIN_DRAWS}: rerun the estimation with n3 >= {MIN_DRAWS}")
    max_k = int(max(degree_sequence(net).max() for net in [final_wave, *draws]))
    observed, labels = _aux_vector(kind, final_wave, max_k)
    simulated = np.array([_aux_vector(kind, d, max_k)[0] for d in draws])
    d_obs, d_draws, p = mahalanobis_test(observed, simulated)
    q05, q50, q95 = np.percentile(simulated, [5, 50, 95], axis=0)
    return AuxiliaryStat(kind=kind, labels=labels, observed=observed,
                         simulated=simulated, q05=q05, q50=q50, q95=q95,
                         distances=d_draws, observed_distance=d_obs, p=p)
