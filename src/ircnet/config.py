"""Run configuration: plain-text key=value files, CLI overrides, hashing.

Example:

    actors = fixtures/actors.txt
    records = fixtures/records.jsonl
    dictionary = fixtures/dictionary.tsv
    years = 1993-2022
    domain = S&T
    alpha = 0.05
    effects = density, gwesp, degPlus, egoPlusAltX:acfree, simX:acfree
    actor_covariates = acfree:fixtures/acfree.csv, gdp:fixtures/gdp.csv:log1p
    dyad_covariates = dist:fixtures/dist.csv:log1p
    seed = 42
    outdir = out
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .effects import EffectSpec
from .estimate import EstimationOptions, OptionRangeError


# Keys that do not change any output, so they stay out of the config hash.
NO_EFFECT_KEYS = frozenset({"threads"})


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)
    text: str = ""

    @classmethod
    def load(cls, path, overrides=None):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        cfg = cls(text=text)
        for lineno, ln in enumerate(text.splitlines(), 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ConfigError(f"{path}:{lineno}: expected key = value, "
                                  f"got {ln!r}")
            key, val = ln.split("=", 1)
            cfg.values[key.strip()] = val.strip()
        for key, val in (overrides or {}).items():
            if val is not None:
                cfg.values[key] = str(val)
        return cfg

    def get(self, key, default=None, required=False):
        if key in self.values:
            return self.values[key]
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def _cast(self, key, cast, default):
        v = self.get(key)
        if v is None:
            return default
        try:
            return cast(v)
        except ValueError:
            raise ConfigError(f"config key {key!r}: {v!r} is not a valid "
                              f"{cast.__name__}") from None

    def get_int(self, key, default=None):
        return self._cast(key, int, default)

    def get_float(self, key, default=None):
        return self._cast(key, float, default)

    @property
    def years(self) -> list:
        spec = self.get("years")
        if spec is None:
            return None
        try:
            if "-" in spec:
                lo, hi = spec.split("-")
                return list(range(int(lo), int(hi) + 1))
            return [int(y) for y in spec.split(",")]
        except ValueError:
            raise ConfigError(f"config key 'years': {spec!r} is not a year "
                              "range or list") from None

    @property
    def effects(self) -> tuple:
        spec = self.get("effects", "density")
        out = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if ":" in item:
                kind, cov = item.split(":", 1)
                out.append(EffectSpec(kind.strip(), cov.strip()))
            else:
                out.append(EffectSpec(item))
        return tuple(out)

    def covariate_files(self, key):
        """Parse 'name:path' or 'name:path:log1p' items."""
        out = []
        for item in (self.get(key, "") or "").split(","):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            if len(parts) == 2:
                out.append((parts[0], parts[1], "none"))
            elif len(parts) == 3:
                out.append((parts[0], parts[1], parts[2]))
            else:
                raise ConfigError(f"bad covariate entry {item!r} in {key}")
        return out

    def estimation_options(self) -> EstimationOptions:
        kwargs = {}
        for key, cast in (("n1", int), ("subphases", int), ("n3", int),
                          ("initial_gain", float), ("t_max", float),
                          ("seed", int), ("derivative_step", float),
                          ("max_subphase_iter", int)):
            v = self._cast(key, cast, None)
            if v is not None:
                kwargs[key] = v
        kwargs.setdefault("seed", 0)
        try:
            return EstimationOptions(**kwargs)
        except OptionRangeError as exc:
            raise ConfigError(f"config key {exc.key!r}: {self.get(exc.key)!r} "
                              f"is out of range ({exc})") from None

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0)

    def hash(self) -> str:
        """Hash of the settings that can change outputs (not `threads`)."""
        canon = "\n".join(f"{k}={v}" for k, v in sorted(self.values.items())
                          if k not in NO_EFFECT_KEYS)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.hash(), "seed": self.seed}
