import itertools
import random

import numpy as np
import pytest

from conftest import actor_set
import ircnet.ingest as ingest
from ircnet.ingest import (OUT_OF_SET, AggregationReport, ArticleRecord,
                           DisambiguationDictionary, IngestError,
                           UnmatchedCountryError, aggregate, aggregate_series,
                           describe, disambiguate, expand_pairs)
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
    def test_identity(self):
        assert disambiguate("USA", DICT) == "USA"

    def test_dictionary_forced(self):
        assert disambiguate("The Netherlands", DICT) == "NLD"

    def test_unmatched_drop(self):
        assert disambiguate("Atlantis", DICT) == OUT_OF_SET

    def test_unmatched_error_policy(self):
        strict = DisambiguationDictionary(DICT.mapping, policy="error")
        with pytest.raises(UnmatchedCountryError) as exc:
            disambiguate("Atlantis", strict)
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

    def test_series_scans_each_record_once(self, monkeypatch):
        # the series equals a per-year `aggregate` over every record, and
        # its `aggregate` calls see each record once between them
        records = fixture_records()
        records += [rec("11", 2000, ["FRA", "USA"], domains=("S&T",)),
                    rec("12", 2001, ["CHN", "DEU"], domains=("S&T",))]
        random.Random(3).shuffle(records)
        years = [2000, 2001]
        for domain in (None, "S&T"):
            expected = [aggregate(records, DICT, ACTORS, y, domain).w
                        for y in years]
            reports = []

            def counted(*args, **kwargs):
                reports.append(kwargs.setdefault("report", AggregationReport()))
                return aggregate(*args, **kwargs)

            monkeypatch.setattr(ingest, "aggregate", counted)
            series = aggregate_series(records, DICT, ACTORS, years, domain)
            monkeypatch.undo()
            assert [net.year for net in series] == years
            for net, w in zip(series, expected):
                assert net.w.tobytes() == w.tobytes()
            assert sum(r.records_seen for r in reports) == len(records)


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
        series = aggregate_series(fixture_records(), DICT, ACTORS, [2000, 2001])
        rows = describe(series)
        assert [r.year for r in rows] == [2000, 2001]
        assert rows[0].nodes == ACTORS.n
