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

POLICIES = ("drop", "error")    # what an unmatched country name does


class IngestError(ValueError):
    pass


class UnmatchedCountryError(IngestError):
    def __init__(self, raw: str, record):
        super().__init__(f"record {record.id} ({record.year}): no dictionary "
                         f"entry for country name {raw!r}")
        self.raw = raw


_STR = {str}
_EMPTY = "record {}: affiliations must be non-empty"


@dataclass(frozen=True)
class ArticleRecord:
    id: str
    year: int
    domains: tuple
    affiliations: tuple

    def __post_init__(self):
        if not self.affiliations:
            raise IngestError(_EMPTY.format(self.id))
        object.__setattr__(self, "domains", tuple(self.domains))
        object.__setattr__(self, "affiliations", tuple(self.affiliations))

    @classmethod
    def from_json(cls, line: str):
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise IngestError("record is not a JSON object")
        try:
            rid, year, affiliations = obj["id"], obj["year"], obj["affiliations"]
        except KeyError:
            missing = [k for k in ("id", "year", "affiliations") if k not in obj]
            raise IngestError(f"record lacks {', '.join(missing)}") from None
        domains = obj.get("domain", "unclassified")
        if isinstance(domains, str):
            domains = [domains]
        # JSON values have exact types: a list of strings has item types {str}
        for key, value in (("domain", domains), ("affiliations", affiliations)):
            if type(value) is not list or not _STR.issuperset(map(type, value)):
                raise IngestError(f"record {rid}: {key} must be a list of "
                                  f"strings, got {obj[key]!r}")
        if isinstance(year, str) and year.isascii() and year.isdigit():
            year = int(year)
        if type(year) is not int:   # a bool is an int, but not a year
            raise IngestError(f"record {rid}: year must be an integer, "
                              f"got {year!r}")
        rid = str(rid)
        if not affiliations:
            raise IngestError(_EMPTY.format(rid))
        # The fields are checked: set them at once, without the frozen
        # __init__'s object.__setattr__ per field and __post_init__'s copies,
        # which cost more than the checks.
        record = object.__new__(cls)
        vars(record).update(id=rid, year=year, domains=tuple(domains),
                            affiliations=tuple(affiliations))
        return record


@dataclass(frozen=True)
class DisambiguationDictionary:
    """Raw country-name strings to ISO3 codes, with an unmatched policy."""

    mapping: dict
    policy: str = "drop"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise IngestError(f"unknown unmatched policy {self.policy!r}")
        object.__setattr__(self, "mapping", dict(self.mapping))


def _codes(record: ArticleRecord, dictionary: DisambiguationDictionary,
           actors: ActorSet = None) -> list:
    """Sorted distinct codes that the dictionary gives the record's names,
    only those in `actors` if it is given. Under policy 'error' a name the
    dictionary lacks raises, naming the record."""
    codes = set()
    for raw in record.affiliations:
        code = dictionary.mapping.get(raw)
        if code is None:
            if dictionary.policy == "error":
                raise UnmatchedCountryError(raw, record)
        elif actors is None or code in actors:
            codes.add(code)
    return sorted(codes)


def expand_pairs(record: ArticleRecord, dictionary: DisambiguationDictionary,
                 actors: ActorSet = None) -> set:
    """Unordered pairs of distinct in-set country codes on one article."""
    return set(itertools.combinations(_codes(record, dictionary, actors), 2))


@dataclass
class AggregationReport:
    records_seen: int = 0
    records_used: int = 0


# Pair cells held as Python ints before `aggregate_domains` counts them
# into its arrays: this bounds a pass's memory, whatever the record count.
PENDING_CELLS = 1 << 16


def _count_pending(counts, pending, n):
    """Add each (domain, year) cell's pending i * n + j pair cells to its
    n * n flat counts, and empty `pending`."""
    for key, cells in pending.items():
        counts[key] = counts.get(key, 0) + np.bincount(
            np.array(cells, dtype=np.int64), minlength=n * n)
    pending.clear()


def aggregate_domains(records, dictionary: DisambiguationDictionary,
                      actors: ActorSet, domains, years=None,
                      report: AggregationReport = None) -> dict:
    """{domain: WeightedNetSeries over `years`}, from one pass over
    `records`, which may be a one-shot iterator.

    Each record of a requested year that lists a requested domain (None
    takes every record) has its names resolved once, and its pairs count in
    each of its (domain, year) cells. `years` None means the sorted years of all
    scanned records; a year in which a domain has no record gets an
    all-zero wave."""
    n = actors.n
    domains = list(dict.fromkeys(domains))   # a domain named twice counts once
    report = report if report is not None else AggregationReport()
    wanted = None if years is None else set(years)
    seen = set()
    counts = {}    # (domain, year) -> flat n * n pair counts, i < j
    pending = {}   # (domain, year) -> i * n + j of pairs not yet counted
    held = 0
    for rec in records:
        report.records_seen += 1
        seen.add(rec.year)
        if wanted is not None and rec.year not in wanted:
            continue
        keys = [(d, rec.year) for d in domains if d is None or d in rec.domains]
        if not keys:
            continue
        report.records_used += 1
        # actors are sorted, so index order is code order and i < j
        idx = [actors.index(c) for c in _codes(rec, dictionary, actors)]
        cells = [i * n + j for i, j in itertools.combinations(idx, 2)]
        for key in keys:
            pending.setdefault(key, []).extend(cells)
        held += len(cells) * len(keys)
        if held >= PENDING_CELLS:
            _count_pending(counts, pending, n)
            held = 0
    _count_pending(counts, pending, n)
    years = sorted(seen) if years is None else years
    zero = np.zeros(n * n, dtype=np.int64)
    series = {}
    for d in domains:
        nets = []
        for y in years:
            # each count is dropped once its wave is built
            w = counts.pop((d, y), zero).reshape(n, n)
            nets.append(WeightedNetwork(actors, y, w + w.T))
        series[d] = WeightedNetSeries(tuple(nets))
    return series


def aggregate(records, dictionary: DisambiguationDictionary, actors: ActorSet,
              year: int, domain: str = None,
              report: AggregationReport = None) -> WeightedNetwork:
    """Sum pair counts over records matching (year, domain)."""
    return aggregate_domains(records, dictionary, actors, [domain], [year],
                             report)[domain].wave(0)


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
