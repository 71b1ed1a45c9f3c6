"""Publication-record ingestion: country disambiguation, pair expansion,
and yearly aggregation into weighted co-authorship networks.

Each article with authors from k distinct countries contributes one count
to every one of the C(k, 2) unordered country pairs; counts stack across
articles within a (year, domain) cell.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .panel import (ActorSet, BinaryNetwork, NetSeries, WeightedNetSeries,
                    WeightedNetwork, density, edge_count, isolate_count)

OUT_OF_SET = "__OUT_OF_SET__"
POLICIES = ("drop", "error")    # what an unmatched country name does


class IngestError(ValueError):
    pass


class UnmatchedCountryError(IngestError):
    def __init__(self, raw: str, record=None):
        where = "" if record is None else f"record {record.id} ({record.year}): "
        super().__init__(f"{where}no dictionary entry for country name {raw!r}")
        self.raw = raw


@dataclass(frozen=True)
class ArticleRecord:
    id: str
    year: int
    domains: tuple
    affiliations: tuple

    def __post_init__(self):
        if not self.affiliations:
            raise IngestError(f"record {self.id}: affiliations must be non-empty")
        object.__setattr__(self, "domains", tuple(self.domains))
        object.__setattr__(self, "affiliations", tuple(self.affiliations))

    @classmethod
    def from_json(cls, line: str):
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise IngestError("record is not a JSON object")
        missing = [k for k in ("id", "year", "affiliations") if k not in obj]
        if missing:
            raise IngestError(f"record lacks {', '.join(missing)}")
        domains = obj.get("domain", "unclassified")
        if isinstance(domains, str):
            domains = [domains]
        for key, value in (("domain", domains), ("affiliations", obj["affiliations"])):
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise IngestError(f"record {obj['id']}: {key} must be a list of "
                                  f"strings, got {obj[key]!r}")
        return cls(str(obj["id"]), int(obj["year"]), domains, obj["affiliations"])


@dataclass(frozen=True)
class DisambiguationDictionary:
    """Raw country-name strings to ISO3 codes, with an unmatched policy."""

    mapping: dict
    policy: str = "drop"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise IngestError(f"unknown unmatched policy {self.policy!r}")
        object.__setattr__(self, "mapping", dict(self.mapping))


def disambiguate(raw: str, dictionary: DisambiguationDictionary) -> str:
    """Map a raw country name to ISO3, or to the out-of-set marker."""
    code = dictionary.mapping.get(raw)
    if code is None:
        if dictionary.policy == "error":
            raise UnmatchedCountryError(raw)
        return OUT_OF_SET
    return code


def expand_pairs(record: ArticleRecord, dictionary: DisambiguationDictionary,
                 actors: ActorSet = None) -> set:
    """Unordered pairs of distinct in-set country codes on one article."""
    codes = set()
    try:
        for raw in record.affiliations:
            code = disambiguate(raw, dictionary)
            if code != OUT_OF_SET and (actors is None or code in actors):
                codes.add(code)
    except UnmatchedCountryError as exc:
        raise UnmatchedCountryError(exc.raw, record) from None
    return set(itertools.combinations(sorted(codes), 2))   # each pair sorted


@dataclass
class AggregationReport:
    records_seen: int = 0
    records_used: int = 0


def aggregate(records, dictionary: DisambiguationDictionary, actors: ActorSet,
              year: int, domain: str = None,
              report: AggregationReport = None) -> WeightedNetwork:
    """Sum pair counts over records matching (year, domain)."""
    n = actors.n
    report = report if report is not None else AggregationReport()
    cells = []   # i * n + j of each pair, counted in one pass below
    for rec in records:
        report.records_seen += 1
        if rec.year != year or (domain is not None and domain not in rec.domains):
            continue
        report.records_used += 1
        cells.extend(actors.index(a) * n + actors.index(b)
                     for a, b in expand_pairs(rec, dictionary, actors))
    counts = np.bincount(np.array(cells, dtype=np.int64),
                         minlength=n * n).reshape(n, n)
    return WeightedNetwork(actors, year, counts + counts.T)


def aggregate_series(records, dictionary, actors, years, domain=None):
    """One WeightedNetwork per year over a fixed record list: the records
    are bucketed by year in one pass, and each year aggregates its own."""
    by_year = {year: [] for year in years}
    for rec in records:
        if rec.year in by_year:
            by_year[rec.year].append(rec)
    nets = [aggregate(by_year[year], dictionary, actors, year, domain)
            for year in years]
    return WeightedNetSeries(tuple(nets))


@dataclass
class DescribeRow:
    year: int
    nodes: int
    edges: int
    density: float
    isolates: int


def describe(series: NetSeries) -> list:
    """Per-wave descriptive rows: year, nodes, edges, density, isolates."""
    rows = []
    for net in series:
        if isinstance(net, WeightedNetwork):
            x = (net.w > 0).astype(np.int8)
            net = BinaryNetwork(net.actors, net.year, x)
        rows.append(DescribeRow(year=net.year, nodes=net.actors.n,
                                edges=edge_count(net), density=density(net),
                                isolates=isolate_count(net)))
    return rows
