"""Core panel data structures: actor sets, network waves, covariates.

All matrices are dense numpy arrays; actor order is fixed by the ActorSet
and shared across every wave, covariate, and dyadic matrix built on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class PanelError(ValueError):
    """Invalid panel structure (asymmetry, size mismatch, bad labels)."""


@dataclass(frozen=True)
class ActorSet:
    """Fixed, lexicographically ordered set of actor labels (e.g. ISO3 codes)."""

    ids: tuple[str, ...]
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise PanelError("actor labels must be unique")
        object.__setattr__(self, "ids", tuple(sorted(self.ids)))
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(self.ids)})

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, label: str) -> int:
        """Position of `label`; KeyError if it is not in the set."""
        return self._pos[label]

    def __contains__(self, label: str) -> bool:
        return label in self._pos


def _check_square_symmetric(m: np.ndarray, n: int, what: str):
    if m.shape != (n, n):
        raise PanelError(f"{what} must be {n}x{n}, got {m.shape}")
    if not np.array_equal(m, m.T):
        raise PanelError(f"{what} must be symmetric")
    if np.any(np.diagonal(m) != 0):
        raise PanelError(f"{what} must have zero diagonal")


@dataclass(frozen=True)
class WeightedNetwork:
    """One year of co-authorship counts: symmetric nonnegative integer matrix."""

    actors: ActorSet
    year: int
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w)
        _check_square_symmetric(w, self.actors.n, "weight matrix")
        if np.any(w < 0):
            raise PanelError("weights must be nonnegative")
        w = w.astype(np.int64)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class BinaryNetwork:
    """One observation wave: symmetric 0/1 adjacency matrix, zero diagonal."""

    actors: ActorSet
    year: int
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        _check_square_symmetric(x, self.actors.n, "adjacency matrix")
        if not np.isin(x, (0, 1)).all():
            raise PanelError("adjacency entries must be 0 or 1")
        x = x.astype(np.int8)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class NetSeries:
    """Yearly sequence of networks over one actor set, sorted by year."""

    networks: tuple

    def __post_init__(self):
        nets = tuple(sorted(self.networks, key=lambda net: net.year))
        if not nets:
            raise PanelError("series must contain at least one wave")
        actors = nets[0].actors
        if any(net.actors is not actors and net.actors != actors for net in nets):
            raise PanelError("all waves must share one actor set")
        years = [net.year for net in nets]
        if len(set(years)) != len(years):
            raise PanelError("duplicate years in series")
        object.__setattr__(self, "networks", nets)

    @property
    def actors(self) -> ActorSet:
        return self.networks[0].actors

    @property
    def years(self) -> list[int]:
        return [net.year for net in self.networks]

    @property
    def n_waves(self) -> int:
        return len(self.networks)

    def wave(self, m: int):
        return self.networks[m]

    def __iter__(self):
        return iter(self.networks)


class WeightedNetSeries(NetSeries):
    pass


class BinaryNetSeries(NetSeries):
    pass


TRANSFORMS = ("none", "log1p")   # of a covariate's raw values


def _transformed(name, raw, transform):
    """Raw covariate values under `transform`. NaN entries stay missing; an
    observed value below 0 has no log1p."""
    raw = np.asarray(raw, dtype=float)
    if transform not in TRANSFORMS:
        raise PanelError(f"unknown transform {transform!r}")
    if transform == "none":
        return raw
    negative = raw < 0
    if negative.any():
        raise PanelError(f"covariate {name}: log1p needs raw values >= 0, "
                         f"got {raw[negative].min():g}")
    return np.log1p(raw)


@dataclass(frozen=True)
class ActorCovariate:
    """Actor-by-period attribute with missingness mask and centering metadata.

    Period m of the values applies to the transition between waves m and m+1;
    a single-column covariate is treated as constant; NaN values are
    missing. `from_raw` stores log(raw + 1) under the "log1p" transform.
    """

    name: str
    values: np.ndarray
    missing: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        missing = np.isnan(vals)
        if missing.all():
            raise PanelError(f"covariate {self.name}: no observed values")
        vals = vals.copy()
        vals.setflags(write=False)
        missing.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing", missing)

    @classmethod
    def from_raw(cls, name, raw, transform="none"):
        return cls(name, _transformed(name, raw, transform))

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def grand_mean(self) -> float:
        return float(np.nanmean(self.values))

    @functools.cached_property
    def value_range(self) -> float:
        # max - min over observed entries; 0 for a constant covariate
        return float(np.nanmax(self.values) - np.nanmin(self.values))

    @functools.cached_property
    def similarity_mean(self) -> float:
        """Mean of sim_ij = 1 - |v_i - v_j| / range over the pairs of actors
        observed in a period, all periods; 1 for a constant covariate."""
        if self.value_range == 0.0:
            return 1.0
        total, count = 0.0, 0
        for v in self.values.T:
            v = v[~np.isnan(v)]
            diff = np.abs(v[:, None] - v[None, :])[np.triu_indices(v.size, k=1)]
            sims = 1.0 - diff / self.value_range
            total += sims.sum()
            count += sims.size
        return total / count if count else 1.0

    def column(self, period: int) -> int:
        # constant covariates broadcast their single column to every period
        return min(period, self.n_periods - 1)

    def filled(self, period: int) -> np.ndarray:
        """Values at `period` with missing entries imputed by the grand mean."""
        col = self.values[:, self.column(period)].copy()
        col[np.isnan(col)] = self.grand_mean
        return col

    def centered(self, period: int) -> np.ndarray:
        """Grand-mean-centered values; missing entries contribute 0."""
        return self.filled(period) - self.grand_mean

    def observed(self, period: int) -> np.ndarray:
        """Boolean vector: actor has an observed value at `period`."""
        return ~self.missing[:, self.column(period)]


@dataclass(frozen=True)
class DyadCovariate:
    """Constant symmetric dyadic covariate (e.g. log(+1) geographic distance)."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != vals.shape[1]:
            raise PanelError(f"dyadic covariate {self.name}: matrix must be square")
        if not np.allclose(vals, vals.T):
            raise PanelError(f"dyadic covariate {self.name}: matrix must be symmetric")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_raw(cls, name, raw, transform="none"):
        return cls(name, _transformed(name, raw, transform))

    @property
    def centering_constant(self) -> float:
        n = self.values.shape[0]
        off = ~np.eye(n, dtype=bool)
        return float(self.values[off].mean())

    def centered(self) -> np.ndarray:
        c = self.values - self.centering_constant
        np.fill_diagonal(c, 0.0)
        return c


@dataclass
class CovariateSet:
    """Named actor and dyadic covariates available to a model."""

    actor: dict = field(default_factory=dict)
    dyad: dict = field(default_factory=dict)
    # beta-free matrices derived from the covariates, memoized per
    # effect by effects.contribution
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, cov):
        if isinstance(cov, ActorCovariate):
            self.actor[cov.name] = cov
        elif isinstance(cov, DyadCovariate):
            self.dyad[cov.name] = cov
        else:
            raise TypeError(type(cov))
        return self


def degree_sequence(net: BinaryNetwork) -> np.ndarray:
    """Per-actor degree vector."""
    return net.x.sum(axis=1, dtype=np.int64)


def edge_count(net: BinaryNetwork) -> int:
    return int(net.x.sum(dtype=np.int64)) // 2


def density(net: BinaryNetwork) -> float:
    """Fraction of possible ties present: 2E / (n(n-1))."""
    n = net.actors.n
    if n < 2:
        raise PanelError("density undefined for n < 2")
    return 2.0 * edge_count(net) / (n * (n - 1))


def isolate_count(net: BinaryNetwork) -> int:
    """Number of actors with degree zero."""
    return int(np.count_nonzero(degree_sequence(net) == 0))


def hamming(a: BinaryNetwork, b: BinaryNetwork) -> int:
    """Number of dyads (unordered pairs) whose tie status differs."""
    return int(np.count_nonzero(a.x != b.x)) // 2


def empty_network(actors: ActorSet, year: int = 0) -> BinaryNetwork:
    return BinaryNetwork(actors, year, np.zeros((actors.n, actors.n), dtype=np.int8))
