"""Run configuration: plain-text key=value files, CLI overrides, hashing.

`KEYS` lists every key with its parser and default; README's "Config keys"
shows them all. A key that `KEYS` does not list is an error naming
`path:line`, and a key repeated in a file takes its last value. `cfg["key"]`
parses a value when a command reads it, so a command fails only on the keys
it uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

from .effects import MODEL_TYPES, EffectSpec
from .estimate import EstimationOptions, OptionRangeError
from .fileio import text_lines
from .panel import TRANSFORMS


class ConfigError(ValueError):
    pass


REQUIRED = object()   # default of a key that has none


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise ValueError("a seed must be >= 0")
    return seed


def _threads(text):
    threads = int(text)
    if threads < 1:
        raise ValueError("a thread count must be >= 1")
    return threads


def _alpha(text):
    alpha = float(text)
    if not 0 < alpha <= 1:
        raise ValueError("an alpha level must be in (0, 1]")
    return alpha


def _model_type(text):
    if text not in MODEL_TYPES:
        raise ValueError("expected " + " or ".join(MODEL_TYPES))
    return text


def _flag(text):
    if text.lower() not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError("expected true/false, 1/0 or yes/no")
    return text.lower() in ("true", "1", "yes")


def _years(text):
    """'lo-hi' (inclusive) or a comma list, each year once."""
    if "-" in text:
        bounds = text.split("-")
        if len(bounds) != 2:
            raise ValueError("expected one range lo-hi, such as 1993-2022")
        lo, hi = map(int, bounds)
        years = list(range(lo, hi + 1))
    else:
        years = [int(y) for y in text.split(",")]
    if not years:
        raise ValueError("the range holds no year")
    if len(set(years)) < len(years):
        twice = next(y for k, y in enumerate(years) if y in years[:k])
        raise ValueError(f"year {twice} is listed twice; expected a range "
                         "lo-hi or a comma list of distinct years")
    return years


def domain_slug(domain):
    """A domain's part of its output file names: its letters and digits."""
    return "".join(c for c in domain if c.isalnum()) or "all"


def _domains(text):
    """A comma list of domain names; a name given twice counts once, and no
    two names may share a slug, since each writes `weighted_<slug>.csv`."""
    domains = list(dict.fromkeys(map(str.strip, text.split(","))))
    if "" in domains:
        raise ValueError("a domain name is empty")
    first = {}   # slug -> the first domain of that slug
    for d in domains:
        other = first.setdefault(domain_slug(d), d)
        if other != d:
            raise ValueError(f"domains {other!r} and {d!r} both write "
                             f"weighted_{domain_slug(d)}.csv")
    return tuple(domains)


def _effects(text):
    """'kind' or 'kind:covariate' items, each once."""
    out = []
    for item in filter(None, map(str.strip, text.split(","))):
        kind, _, cov = item.partition(":")
        spec = EffectSpec(kind.strip(), cov.strip() or None)
        if spec in out:
            raise ValueError(f"effect {item!r} is given twice")
        out.append(spec)
    return tuple(out)


def _covariates(text, reserved=()):
    """'name:path' or 'name:path:transform' items, as (name, path, transform);
    each name once, none of `reserved`, and a transform of `TRANSFORMS`."""
    out = []
    for item in filter(None, map(str.strip, text.split(","))):
        parts = [part.strip() for part in item.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad covariate entry {item!r}")
        if len(parts) == 3 and parts[2] not in TRANSFORMS:
            raise ValueError(f"unknown transform {parts[2]!r} in {item!r}; "
                             "expected " + " or ".join(TRANSFORMS))
        name = parts[0]
        if name in reserved:
            raise ValueError(f"covariate name {name!r} is reserved for the "
                             "network degree")
        if any(name == seen for seen, _, _ in out):
            raise ValueError(f"covariate name {name!r} is given twice")
        out.append(tuple(parts) if len(parts) == 3 else (*parts, "none"))
    return tuple(out)


def _actor_covariates(text):
    # GraphML export writes each node's network degree under `degree`
    return _covariates(text, reserved=("degree",))


# key -> (parser of the value text, default when the key is absent). None for
# `weighted` and `panel`: the command's own file in `outdir`.
KEYS = {
    "actors": (str, REQUIRED),
    "records": (str, REQUIRED),
    "dictionary": (str, REQUIRED),
    "years": (_years, None),                   # None: the records' years
    "domain": (_domains, ("unclassified",)),
    "alpha": (_alpha, 0.05),
    "alpha_column": (_flag, False),
    "weighted": (str, None),
    "panel": (str, None),
    "outdir": (str, "out"),
    "effects": (_effects, (EffectSpec("density"),)),
    "actor_covariates": (_actor_covariates, ()),
    "dyad_covariates": (_covariates, ()),
    "model_type": (_model_type, "forcing"),
    "seed": (_seed, EstimationOptions.seed),
    "threads": (_threads, 1),
    "n1": (int, EstimationOptions.n1),
    "subphases": (int, EstimationOptions.subphases),
    "n3": (int, EstimationOptions.n3),
    "initial_gain": (float, EstimationOptions.initial_gain),
    "t_max": (float, EstimationOptions.t_max),
    "derivative_step": (float, EstimationOptions.derivative_step),
    "max_subphase_iter": (int, EstimationOptions.max_subphase_iter),
}


def _parse(key, text):
    try:
        return KEYS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {text!r} is not valid "
                          f"({exc})") from None


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)   # key -> raw value text

    @classmethod
    def load(cls, path, overrides=None):
        cfg = cls()
        for lineno, ln in enumerate(text_lines(path, ConfigError), 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ConfigError(f"{path}:{lineno}: expected key = value, "
                                  f"got {ln!r}")
            key, val = (s.strip() for s in ln.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg.values[key] = val
        # a flag's value is hashed in its parsed form, `--seed 07` as 7; a
        # domain list as it is given
        for key, val in (overrides or {}).items():
            if val is not None:
                parsed = _parse(key, val)
                cfg.values[key] = val if key == "domain" else str(parsed)
        return cfg

    def __getitem__(self, key):
        if key in self.values:
            return _parse(key, self.values[key])
        default = KEYS[key][1]
        if default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def estimation_options(self) -> EstimationOptions:
        try:
            return EstimationOptions(**{f.name: self[f.name]
                                        for f in fields(EstimationOptions)
                                        if f.name in KEYS})
        except OptionRangeError as exc:
            raise ConfigError(f"config key {exc.key!r}: "
                              f"{self.values.get(exc.key)!r} is out of range "
                              f"({exc})") from None

    def hash(self) -> str:
        """Hash of the value texts of all keys but `threads` (changes no output)."""
        canon = "\n".join(f"{k}={v}" for k, v in sorted(self.values.items())
                          if k != "threads")
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.hash(), "seed": self["seed"]}
