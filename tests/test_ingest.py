import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from conftest import actor_set
import ircnet.ingest as ingest
from ircnet.ingest import (AggregationReport, ArticleRecord,
                           DisambiguationDictionary, IngestError,
                           UnmatchedCountryError, aggregate, aggregate_domains,
                           describe, expand_pairs)
from ircnet.panel import ActorSet, BinaryNetwork, BinaryNetSeries

DICT = DisambiguationDictionary({
    "USA": "USA", "United States": "USA", "The Netherlands": "NLD",
    "NLD": "NLD", "CHN": "CHN", "China": "CHN", "DEU": "DEU", "FRA": "FRA",
})
ACTORS = ActorSet(("CHN", "DEU", "FRA", "NLD", "USA"))


def rec(id, year, affiliations, domains=("unclassified",)):
    return ArticleRecord(id=id, year=year, domains=domains,
                         affiliations=tuple(affiliations))


class TestDisambiguate:
    """`ingest._codes` is the one place that resolves a record's names."""

    def test_identity(self):
        assert ingest._codes(rec("a", 2000, ["USA"]), DICT) == ["USA"]

    def test_dictionary_forced(self):
        names = ["The Netherlands", "USA", "NLD", "China"]
        assert ingest._codes(rec("a", 2000, names), DICT) == ["CHN", "NLD", "USA"]

    def test_unmatched_drop(self):
        # an unmatched name and a code outside the actor set are both dropped
        actors = ActorSet(("CHN", "USA"))
        names = ["Atlantis", "USA", "DEU", "China"]
        assert ingest._codes(rec("a", 2000, names), DICT, actors) == ["CHN", "USA"]
        assert ingest._codes(rec("a", 2000, names), DICT) == ["CHN", "DEU", "USA"]

    def test_unmatched_error_policy(self):
        strict = DisambiguationDictionary(DICT.mapping, policy="error")
        with pytest.raises(UnmatchedCountryError,
                           match="record a .2000.: no dictionary entry for "
                                 "country name 'Atlantis'") as exc:
            expand_pairs(rec("a", 2000, ["USA", "Atlantis"]), strict)
        assert exc.value.raw == "Atlantis"


class TestExpandPairs:
    def test_three_country_article(self):
        pairs = expand_pairs(rec("a", 2000, ["USA", "The Netherlands", "China"]), DICT)
        assert pairs == {("CHN", "USA"), ("CHN", "NLD"), ("NLD", "USA")}

    def test_single_country(self):
        assert expand_pairs(rec("a", 2000, ["USA"]), DICT) == set()

    def test_duplicate_affiliations_deduped(self):
        pairs = expand_pairs(rec("a", 2000, ["USA", "United States", "CHN"]), DICT)
        assert pairs == {("CHN", "USA")}

    def test_pair_count_is_k_choose_2(self, rng):
        codes = list(DICT.mapping)
        for _ in range(50):
            k = int(rng.integers(1, len(codes) + 1))
            picks = list(rng.choice(codes, size=k, replace=False))
            pairs = expand_pairs(rec("a", 2000, picks), DICT)
            distinct = {DICT.mapping[c] for c in picks}
            assert len(pairs) == len(distinct) * (len(distinct) - 1) // 2


def fixture_records():
    """10 synthetic articles across 2 years."""
    return [
        rec("1", 2000, ["USA", "CHN"]),
        rec("2", 2000, ["USA", "China"]),
        rec("3", 2000, ["USA", "The Netherlands", "CHN"]),
        rec("4", 2000, ["DEU", "FRA"]),
        rec("5", 2000, ["DEU"]),
        rec("6", 2000, ["Atlantis", "USA"]),
        rec("7", 2001, ["USA", "CHN"]),
        rec("8", 2001, ["FRA", "DEU", "NLD", "USA"]),
        rec("9", 2001, ["CHN", "CHN"]),
        rec("10", 2001, ["NLD", "FRA"]),
    ]


def brute_force_tally(records, year):
    """Independent oracle: dictionary lookup + itertools pair enumeration."""
    w = np.zeros((ACTORS.n, ACTORS.n), dtype=int)
    for r in records:
        if r.year != year:
            continue
        codes = sorted({DICT.mapping[a] for a in r.affiliations
                        if a in DICT.mapping})
        for a, b in itertools.combinations(codes, 2):
            i, j = ACTORS.index(a), ACTORS.index(b)
            w[i, j] += 1
            w[j, i] += 1
    return w


class TestAggregate:
    def test_additivity(self):
        records = [rec("1", 2000, ["USA", "CHN"]), rec("2", 2000, ["USA", "CHN"])]
        net = aggregate(records, DICT, ACTORS, 2000)
        assert net.w[ACTORS.index("USA"), ACTORS.index("CHN")] == 2

    def test_empty_stream(self):
        net = aggregate([], DICT, ACTORS, 2000)
        assert net.w.sum() == 0
        assert net.w.dtype == np.int64 and net.w.shape == (ACTORS.n, ACTORS.n)

    def test_fixture_matches_brute_force(self):
        records = fixture_records()
        for year in (2000, 2001):
            net = aggregate(records, DICT, ACTORS, year)
            assert np.array_equal(net.w, brute_force_tally(records, year))

    def test_order_independent(self):
        records = fixture_records()
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        a = aggregate(records, DICT, ACTORS, 2000)
        b = aggregate(shuffled, DICT, ACTORS, 2000)
        assert np.array_equal(a.w, b.w)

    def test_sharded_merge_equals_serial(self):
        records = fixture_records()
        serial = aggregate(records, DICT, ACTORS, 2001)
        merged = sum(aggregate([r], DICT, ACTORS, 2001).w for r in records)
        assert np.array_equal(serial.w, merged)

    def test_total_weight_is_sum_of_pair_counts(self):
        records = fixture_records()
        total = sum(aggregate(records, DICT, ACTORS, y).w.sum() // 2
                    for y in (2000, 2001))
        expected = sum(len(expand_pairs(r, DICT, ACTORS)) for r in records)
        assert total == expected

    def test_domain_filter(self):
        records = [rec("1", 2000, ["USA", "CHN"], domains=("S&T",)),
                   rec("2", 2000, ["USA", "CHN"], domains=("S&T", "SocSci"))]
        st = aggregate(records, DICT, ACTORS, 2000, domain="S&T")
        soc = aggregate(records, DICT, ACTORS, 2000, domain="SocSci")
        i, j = ACTORS.index("USA"), ACTORS.index("CHN")
        assert st.w[i, j] == 2 and soc.w[i, j] == 1

    def test_empty_affiliations_rejected(self):
        with pytest.raises(IngestError):
            rec("1", 2000, [])

    def test_parsed_record_equals_constructed(self):
        # from_json sets the checked fields without the dataclass __init__:
        # the record is the constructor's, frozen, and the empty list fails
        # with the constructor's message
        parsed = ArticleRecord.from_json(
            '{"id": 7, "year": 2001, "domain": "S&T", "affiliations": ["X", "Y"]}')
        assert parsed == ArticleRecord("7", 2001, ["S&T"], ["X", "Y"])
        assert type(parsed.domains) is type(parsed.affiliations) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed.year = 2002
        with pytest.raises(IngestError, match="^record 7: affiliations must "
                                              "be non-empty$"):
            ArticleRecord.from_json('{"id": 7, "year": 2001, "affiliations": []}')

    @pytest.mark.parametrize("year", ["2001", '"2001"'])
    def test_year_is_an_int_or_its_decimal_text(self, year):
        line = f'{{"id": "r", "year": {year}, "affiliations": ["X"]}}'
        assert ArticleRecord.from_json(line).year == 2001

    @pytest.mark.parametrize("year", ["2000.7", "2001.0", "true", "false",
                                      "null", '"2001.0"', '" 2001"', '"MMI"',
                                      "[2001]"])
    def test_year_that_is_not_an_int_rejected(self, year):
        line = f'{{"id": "r", "year": {year}, "affiliations": ["X"]}}'
        with pytest.raises(IngestError, match="record r: year must be an "
                                              "integer"):
            ArticleRecord.from_json(line)

    def test_one_pass_equals_per_cell_aggregate(self):
        # a one-shot generator over 2 domains and 2 years gives, for every
        # (domain, year) cell, the bytes of `aggregate` on the list, and the
        # report counts each record once
        records = fixture_records()
        records += [rec("11", 2000, ["FRA", "USA"], domains=("S&T",)),
                    rec("12", 2001, ["CHN", "DEU"], domains=("S&T", "SocSci")),
                    rec("13", 2001, ["NLD", "CHN", "USA"], domains=("SocSci",))]
        random.Random(3).shuffle(records)
        years, domains = [2000, 2001], ["S&T", "SocSci"]
        report = AggregationReport()
        by_domain = aggregate_domains((r for r in records), DICT, ACTORS,
                                      domains, years, report)
        assert list(by_domain) == domains
        for domain, series in by_domain.items():
            assert series.years == years
            for net in series:
                w = aggregate(records, DICT, ACTORS, net.year, domain).w
                assert net.w.dtype == w.dtype and net.w.tobytes() == w.tobytes()
        assert report.records_seen == len(records)
        assert report.records_used == 3   # 11, 12 and 13

    def test_pending_cells_counted_in_parts(self, monkeypatch):
        # counting the pending pair cells every few records changes nothing
        records = fixture_records()
        whole = aggregate_domains(records, DICT, ACTORS, [None])[None]
        monkeypatch.setattr(ingest, "PENDING_CELLS", 2)
        parts = aggregate_domains(iter(records), DICT, ACTORS, [None])[None]
        assert parts.years == whole.years == [2000, 2001]
        for a, b in zip(parts, whole):
            assert a.w.tobytes() == b.w.tobytes()

    def test_years_default_to_every_scanned_record(self):
        # a year with no record of the domain gets an all-zero wave
        records = [rec("1", 2003, ["USA", "CHN"], domains=("S&T",)),
                   rec("2", 2001, ["USA", "DEU"], domains=("SocSci",))]
        series = aggregate_domains(records, DICT, ACTORS, ["S&T"])["S&T"]
        assert series.years == [2001, 2003]
        assert series.wave(0).w.sum() == 0 and series.wave(1).w.sum() == 2

    def test_unmatched_error_only_in_requested_cells(self):
        strict = DisambiguationDictionary(DICT.mapping, policy="error")
        records = [rec("1", 2000, ["USA", "Narnia"], domains=("SocSci",)),
                   rec("2", 2001, ["USA", "Narnia"], domains=("S&T",)),
                   rec("3", 2000, ["USA", "CHN"], domains=("S&T",))]
        series = aggregate_domains(records, strict, ACTORS, ["S&T"], [2000])
        assert series["S&T"].wave(0).w.sum() == 2
        with pytest.raises(UnmatchedCountryError, match="record 2 .2001."):
            aggregate_domains(records, strict, ACTORS, ["S&T"])

    def test_peak_is_about_one_copy_of_the_waves(self):
        """Over 30 years at n = 150 the output holds 30 int64 waves, 5.4 MB.
        Each (domain, year) count is dropped once its wave is built, so the
        pass peaks at one copy of them plus a few waves and the pending
        cells: at most 1.5 copies. Counts kept until every wave is built
        would add a second copy, 2 in all."""
        rng = np.random.default_rng(29)
        actors = actor_set(150)
        dictionary = DisambiguationDictionary({c: c for c in actors.ids})
        years = list(range(1990, 2020))
        records = [rec(f"{y}-{r}", y, [actors.ids[i] for i in
                                       rng.choice(150, k, replace=False)])
                   for y in years for r, k in enumerate(rng.integers(2, 5, 100))]
        tracemalloc.start()
        try:
            series = aggregate_domains(iter(records), dictionary, actors,
                                       [None], years)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        waves = sum(net.w.nbytes for net in series[None])
        assert waves == 30 * 150 * 150 * 8
        assert peak < 1.5 * waves, peak / waves


class TestDescribe:
    def test_synthetic_series_matches_recount(self, rng):
        nets = []
        for m in range(3):
            x = (rng.random((6, 6)) < 0.4).astype(np.int8)
            x = np.triu(x, 1)
            x = x + x.T
            nets.append(BinaryNetwork(actor_set(6), 2000 + m, x))
        rows = describe(BinaryNetSeries(tuple(nets)))
        for row, net in zip(rows, nets):
            e = int(net.x.sum()) // 2
            assert row.edges == e
            assert row.density == pytest.approx(2 * e / (6 * 5))
            assert row.isolates == int((net.x.sum(axis=1) == 0).sum())
            assert row.nodes == 6

    def test_weighted_series(self):
        series = aggregate_domains(fixture_records(), DICT, ACTORS, [None],
                                   [2000, 2001])[None]
        rows = describe(series)
        assert [r.year for r in rows] == [2000, 2001]
        assert rows[0].nodes == ACTORS.n
