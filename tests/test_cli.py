import codecs
import csv
import dataclasses
import gc
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ircnet.backbone import disparity_scores
from ircnet.cli import main
from ircnet.config import KEYS, RunConfig
from ircnet.estimate import DivergenceError, EstimationResult
from ircnet.fileio import (FileFormatError, export_graphml, import_graphml,
                           read_actor_covariate, read_actor_set,
                           read_binary_edgelist, read_dictionary,
                           read_dyad_matrix, read_weighted_edgelist,
                           text_lines, write_draws, write_result_json)
from ircnet.panel import ActorSet, BinaryNetwork
from conftest import random_graph

ACTORS = ("CHN", "DEU", "FRA", "JPN", "NLD", "USA")
NAMES = {"CHN": "Peoples R China", "DEU": "Germany", "FRA": "France",
         "JPN": "Japan", "NLD": "Netherlands", "USA": "United States"}
YEARS = (2000, 2001, 2002)


def write_fixtures(root, records):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "actors.txt"), "w") as fh:
        fh.write("\n".join(ACTORS) + "\n")
    with open(os.path.join(root, "dictionary.tsv"), "w") as fh:
        fh.write("# policy=drop\n")
        for code, raw in NAMES.items():
            fh.write(f"{raw}\t{code}\n")
    with open(os.path.join(root, "records.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def random_records(seed, n_records=60):
    rng = np.random.default_rng(seed)
    raws = list(NAMES.values()) + ["Atlantis"]
    records = []
    for r in range(n_records):
        k = int(rng.integers(1, 5))
        affs = [raws[i] for i in rng.integers(0, len(raws), size=k)]
        records.append({"id": f"A{r}", "year": int(rng.choice(YEARS)),
                        "domain": "S&T", "affiliations": affs})
    return records


def two_domain_records(seed, n_records=60):
    """`random_records` with each record in S&T, SocSci or both."""
    records = random_records(seed, n_records)
    for k, rec in enumerate(records):
        rec["domain"] = (["S&T"], ["SocSci"], ["S&T", "SocSci"])[k % 3]
    return records


def write_config(root, extra=""):
    path = os.path.join(root, "run.cfg")
    with open(path, "w") as fh:
        fh.write(f"""\
actors = {root}/actors.txt
records = {root}/records.jsonl
dictionary = {root}/dictionary.tsv
years = 2000-2002
domain = S&T
alpha = 1.0
effects = density
outdir = {root}/out
seed = 7
n1 = 25
n3 = 40
{extra}
""")
    return path


# A fit that ends in seconds on the fixtures; its keys override
# write_config's, since a repeated key takes its last value.
FAST_FIT = ("n1 = 4\nn3 = 20\nsubphases = 1\nmax_subphase_iter = 5\n"
            "t_max = inf\n")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; tests inspect the outputs."""
    root = str(tmp_path_factory.mktemp("pipe"))
    write_fixtures(root, random_records(1))
    cfg = write_config(root)
    for command in ("ingest", "backbone", "estimate", "gof", "export"):
        assert main([command, cfg]) == 0
    return root, cfg


class TestIngest:
    def test_three_country_article_yields_three_pairs(self, tmp_path):
        root = str(tmp_path)
        records = [{"id": "p1", "year": 2000, "domain": "S&T",
                    "affiliations": ["United States", "United States",
                                     "Netherlands", "Peoples R China"]}]
        write_fixtures(root, records)
        cfg = write_config(root)
        assert main(["ingest", cfg]) == 0
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        series = read_weighted_edgelist(
            os.path.join(root, "out", "weighted_ST.csv"), actors, list(YEARS))
        w = series.wave(0).w
        expected_pairs = {("NLD", "USA"), ("CHN", "USA"), ("CHN", "NLD")}
        for a, b in itertools.combinations(ACTORS, 2):
            want = 1 if (a, b) in expected_pairs else 0
            assert w[actors.index(a), actors.index(b)] == want
        assert series.wave(1).w.sum() == 0

    def test_matches_brute_force_tally(self, tmp_path):
        root = str(tmp_path)
        records = random_records(3, 10)
        write_fixtures(root, records)
        cfg = write_config(root)
        assert main(["ingest", cfg]) == 0
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        series = read_weighted_edgelist(
            os.path.join(root, "out", "weighted_ST.csv"), actors, list(YEARS))
        raw_to_code = {v: k for k, v in NAMES.items()}
        for m, year in enumerate(YEARS):
            tally = {}
            for rec in records:
                if rec["year"] != year:
                    continue
                codes = sorted({raw_to_code[a] for a in rec["affiliations"]
                                if a in raw_to_code})
                for pair in itertools.combinations(codes, 2):
                    tally[pair] = tally.get(pair, 0) + 1
            w = series.wave(m).w
            for a, b in itertools.combinations(ACTORS, 2):
                assert w[actors.index(a), actors.index(b)] == \
                    tally.get((a, b), 0)

    def test_record_order_irrelevant(self, tmp_path):
        root = str(tmp_path)
        records = random_records(4, 20)
        write_fixtures(root, records)
        cfg = write_config(root)
        assert main(["ingest", cfg]) == 0
        first = read_bytes(os.path.join(root, "out", "weighted_ST.csv"))
        write_fixtures(root, records[::-1])
        assert main(["ingest", cfg]) == 0
        assert read_bytes(os.path.join(root, "out", "weighted_ST.csv")) == first

    def test_threads_flag_does_not_change_outputs(self, tmp_path):
        # --threads has no effect on results, so it must not enter the
        # config hash that every output embeds
        root = str(tmp_path)
        write_fixtures(root, random_records(9, 30))
        cfg = write_config(root)
        outputs = ("weighted_ST.csv", "describe_ST.csv")
        snapshots = []
        for extra in ([], ["--threads", "2"]):
            assert main(["ingest", cfg] + extra) == 0
            snapshots.append([read_bytes(os.path.join(root, "out", name))
                              for name in outputs])
        assert snapshots[0] == snapshots[1]

    def test_describe_rows_recount(self, pipeline):
        root, _ = pipeline
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        series = read_weighted_edgelist(
            os.path.join(root, "out", "weighted_ST.csv"), actors, list(YEARS))
        with open(os.path.join(root, "out", "describe_ST.csv")) as fh:
            rows = [ln.strip().split(",") for ln in fh
                    if not ln.startswith("#")][1:]
        for row, net in zip(rows, series):
            assert int(row[2]) == int((net.w > 0).sum() // 2)

    def test_domain_list_equals_single_domain_runs(self, tmp_path):
        # `domain = S&T,SocSci` counts both domains in one pass; each file
        # holds the data rows of a run of its domain alone, and only its `#`
        # lines, which carry the config hash, differ
        root = str(tmp_path)
        write_fixtures(root, two_domain_records(21))

        def ingest_lines(domain):
            out = os.path.join(root, "out_" + re.sub(r"\W", "", domain))
            cfg = write_config(root, extra=f"domain = {domain}\noutdir = {out}\n")
            assert main(["ingest", cfg]) == 0
            return {name: read_bytes(os.path.join(out, name)).splitlines()
                    for name in sorted(os.listdir(out))}

        both = ingest_lines("S&T,SocSci")
        assert sorted(both) == ["describe_ST.csv", "describe_SocSci.csv",
                                "weighted_ST.csv", "weighted_SocSci.csv"]
        twice = ingest_lines("S&T, S&T")   # a name given twice counts once
        assert sorted(twice) == ["describe_ST.csv", "weighted_ST.csv"]
        for domain in ("S&T", "SocSci"):
            for name, lines in ingest_lines(domain).items():
                if domain == "S&T":
                    assert twice[name][1:] == lines[1:]   # all but the hash
                data = [ln for ln in lines if not ln.startswith(b"#")]
                assert [ln for ln in both[name]
                        if not ln.startswith(b"#")] == data
                assert len(data) > 2
                meta = [ln for ln in lines if ln.startswith(b"#")]
                assert [ln for ln in both[name] if ln.startswith(b"#")] != meta
                assert meta[1:] == [b"# seed=7"]

    def test_years_default_to_the_records_years(self, tmp_path):
        # without `years`, the waves run over the years of every record; a
        # year with records of another domain only gets a zero row
        root = str(tmp_path)
        records = random_records(22, 30) + [
            {"id": "S1", "year": 2004, "domain": "SocSci",
             "affiliations": ["Japan", "France"]}]
        write_fixtures(root, records)
        cfg = write_config(root)
        with open(cfg) as fh:
            text = fh.read()
        with open(cfg, "w") as fh:
            fh.write(text.replace("years = 2000-2002\n", ""))
        assert main(["ingest", cfg]) == 0
        with open(os.path.join(root, "out", "describe_ST.csv")) as fh:
            rows = [ln.strip().split(",") for ln in fh
                    if not ln.startswith("#")][1:]
        assert [row[0] for row in rows] == ["2000", "2001", "2002", "2004"]
        assert rows[-1] == ["2004", "6", "0", "0.000", "6"]
        assert all(int(row[2]) > 0 for row in rows[:-1])

    def test_leading_bom_is_ignored(self, tmp_path):
        # inputs that start with a UTF-8 byte-order mark give the outputs
        # they give without one
        root = str(tmp_path)
        write_fixtures(root, random_records(23))
        cfg = write_config(root)
        out = os.path.join(root, "out")

        def outputs(*commands):
            for command in commands:
                assert main([command, cfg]) == 0
            return {name: read_bytes(os.path.join(out, name))
                    for name in sorted(os.listdir(out))}

        def add_bom(path):
            data = read_bytes(path)
            with open(path, "wb") as fh:
                fh.write(codecs.BOM_UTF8 + data)

        want = outputs("ingest", "backbone")
        assert want["weighted_ST.csv"].count(b"\n") > 10
        for name in ("actors.txt", "dictionary.tsv", "records.jsonl",
                     "run.cfg"):
            add_bom(os.path.join(root, name))
        assert outputs("ingest") == want
        add_bom(os.path.join(out, "weighted_ST.csv"))
        assert outputs("backbone") == dict(
            want, **{"weighted_ST.csv": codecs.BOM_UTF8
                     + want["weighted_ST.csv"]})

    def test_comma_dictionary_line_splits_at_last_comma(self, tmp_path):
        # a raw name may hold a comma, an ISO3 code holds none
        root = str(tmp_path)
        records = [{"id": "K1", "year": 2000, "domain": "S&T",
                    "affiliations": ["Korea, Republic of", "Japan"]}]
        write_fixtures(root, records)
        with open(os.path.join(root, "actors.txt"), "a") as fh:
            fh.write("KOR\n")
        dictionary = os.path.join(root, "dictionary.tsv")
        with open(dictionary, "a") as fh:
            fh.write("Korea, Republic of,KOR\n")
        assert read_dictionary(dictionary).mapping["Korea, Republic of"] == "KOR"
        assert main(["ingest", write_config(root)]) == 0
        with open(os.path.join(root, "out", "weighted_ST.csv")) as fh:
            rows = [ln.strip() for ln in fh if not ln.startswith("#")]
        assert rows == ["year,iso3_a,iso3_b,weight", "2000,JPN,KOR,1"]


class TestBackbone:
    def test_alpha_one_keeps_all_positive_edges(self, pipeline):
        root, _ = pipeline
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        weighted = read_weighted_edgelist(
            os.path.join(root, "out", "weighted_ST.csv"), actors, list(YEARS))
        panel = read_binary_edgelist(
            os.path.join(root, "out", "backbone_ST.csv"), actors, list(YEARS))
        for wnet, bnet in zip(weighted, panel):
            assert np.array_equal(bnet.x, (wnet.w > 0).astype(np.int8))

    def test_alpha_sweep_monotone(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(5, 120))
        cfg = write_config(root)
        assert main(["ingest", cfg]) == 0
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        counts = []
        for alpha in (0.05, 0.3, 1.0):
            assert main(["backbone", cfg, "--alpha", str(alpha)]) == 0
            panel = read_binary_edgelist(
                os.path.join(root, "out", "backbone_ST.csv"), actors,
                list(YEARS))
            counts.append(sum(int(net.x.sum()) // 2 for net in panel))
        assert counts[0] <= counts[1] <= counts[2]

    def test_alpha_column(self, tmp_path):
        # scored_<slug>.csv is weighted_<slug>.csv plus each edge's
        # disparity-filter score
        root = str(tmp_path)
        write_fixtures(root, random_records(5, 120))
        cfg = write_config(root, extra="alpha_column = true\n")
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        out = os.path.join(root, "out")

        def rows(name):
            with open(os.path.join(out, name), newline="") as fh:
                return list(csv.reader(ln for ln in fh
                                       if not ln.startswith("#")))

        weighted, scored = rows("weighted_ST.csv"), rows("scored_ST.csv")
        assert len(weighted) > 1
        assert scored[0] == weighted[0] + ["alpha"]
        assert [row[:-1] for row in scored[1:]] == weighted[1:]
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        series = read_weighted_edgelist(os.path.join(out, "weighted_ST.csv"),
                                        actors, list(YEARS))
        alpha = {net.year: disparity_scores(net).alpha for net in series}
        for year, a, b, _, score in scored[1:]:
            i, j = actors.index(a), actors.index(b)
            assert score == f"{alpha[int(year)][i, j]:.10g}"

    def test_trimming_table_consistent(self, pipeline):
        root, _ = pipeline
        with open(os.path.join(root, "out", "trimming_ST.csv")) as fh:
            rows = [ln.strip().split(",") for ln in fh
                    if not ln.startswith("#")][1:]
        for row in rows:
            positive, retained = int(row[1]), int(row[2])
            assert retained <= positive
            if positive:
                frac = 1.0 - retained / positive
                assert float(row[3]) == pytest.approx(frac, abs=5e-5)


class TestEstimateAndGof:
    def test_outputs_exist_with_meta(self, pipeline):
        root, _ = pipeline
        out = os.path.join(root, "out")
        with open(os.path.join(out, "result_ST.json")) as fh:
            res = json.load(fh)
        assert len(res["theta"]) == len(res["se"]) == 3  # 2 rates + density
        assert res["effect_labels"] == ["density"]
        assert np.isfinite(res["conv_ratio"])
        with open(os.path.join(out, "estimates_ST.csv")) as fh:
            text = fh.read()
        assert "# seed=7" in text and "# config_hash=" in text
        with open(os.path.join(out, "report_ST.txt")) as fh:
            report = fh.read()
        assert "Convergence Ratio" in report and "Iteration Steps" in report

    def test_gof_outputs(self, pipeline):
        root, _ = pipeline
        out = os.path.join(root, "out")
        for kind in ("degree_distribution", "triad_census"):
            with open(os.path.join(out, f"gof_{kind}_ST.csv")) as fh:
                text = fh.read()
            line = [ln for ln in text.splitlines()
                    if ln.startswith("# p_value=")][0]
            p = float(line.split("=")[1])
            assert 0.0 <= p <= 1.0

    def test_gof_without_draws_fails_cleanly(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(6))
        cfg = write_config(root)
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["gof", cfg]) == 1

    def test_gof_with_too_few_draws_names_n3(self, tmp_path, capsys):
        root = str(tmp_path)
        write_fixtures(root, random_records(5))
        cfg = write_config(root, extra=FAST_FIT + "n3 = 5\n")
        for command in ("ingest", "backbone", "estimate"):
            assert main([command, cfg]) == 0
        assert main(["gof", cfg]) == 1
        err = capsys.readouterr().err
        assert "found 5 retained phase-3 draws" in err and "n3 >= 20" in err

    def test_gof_reads_no_result_file(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(5))
        cfg = write_config(root, extra=FAST_FIT)
        for command in ("ingest", "backbone", "estimate", "gof"):
            assert main([command, cfg]) == 0
        out = os.path.join(root, "out")
        tables = [os.path.join(out, f"gof_{kind}_ST.csv")
                  for kind in ("degree_distribution", "triad_census")]
        want = [read_bytes(path) for path in tables]
        for path in tables + [os.path.join(out, "result_ST.json")]:
            os.remove(path)
        assert main(["gof", cfg]) == 0
        assert [read_bytes(path) for path in tables] == want

    @pytest.mark.parametrize("damage", ["empty", "truncated", "wrong n"])
    def test_gof_names_a_bad_draws_file(self, tmp_path, capsys, damage):
        """np.load raises EOFError on an empty file and ValueError on a
        truncated one; either, or draws of another actor count, exits 1
        naming the file."""
        root = str(tmp_path)
        write_fixtures(root, random_records(5))
        cfg = write_config(root, extra=FAST_FIT)
        for command in ("ingest", "backbone", "estimate"):
            assert main([command, cfg]) == 0
        finals = os.path.join(root, "out", "draws_finals_ST.npy")
        if damage == "wrong n":
            np.save(finals, np.zeros((20, 5, 5), dtype=np.int8))
        else:
            data = read_bytes(finals)
            with open(finals, "wb") as fh:
                fh.write(data[:len(data) // 2 if damage == "truncated" else 0])
        capsys.readouterr()
        assert main(["gof", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {finals}: ")
        if damage == "wrong n":
            assert "6x6" in err and "(20, 5, 5)" in err

    def test_unconverged_fit_is_flagged(self, tmp_path, capsys):
        """A final convergence ratio above `t_max` adds a line to the report
        and warns on stderr; the exit code stays 0. Under `t_max = inf`
        every ratio is converged."""
        root = str(tmp_path)
        write_fixtures(root, random_records(5))
        line = "Not converged (ratio above t_max = 0)"
        for t_max, flagged in (("0", True), ("inf", False)):
            cfg = write_config(root, extra=FAST_FIT + f"t_max = {t_max}\n")
            for command in ("ingest", "backbone"):
                assert main([command, cfg]) == 0
            capsys.readouterr()
            assert main(["estimate", cfg]) == 0
            printed = capsys.readouterr()
            with open(os.path.join(root, "out", "report_ST.txt")) as fh:
                report = fh.read()
            with open(os.path.join(root, "out", "result_ST.json")) as fh:
                ratio = json.load(fh)["conv_ratio"]
            warning = (f"warning: convergence ratio {ratio:.4f} exceeds t_max "
                       "0; the estimates are not converged\n")
            assert report.endswith(f"\n{line}\n") == flagged
            assert (line in printed.out.splitlines()) == flagged
            assert ("Not converged" in report + printed.out) == flagged
            assert printed.err == (warning if flagged else "")

    @pytest.mark.slow
    def test_rerun_is_byte_identical(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(2))
        cfg = write_config(root)
        outputs = ["weighted_ST.csv", "describe_ST.csv", "backbone_ST.csv",
                   "trimming_ST.csv", "result_ST.json", "estimates_ST.csv",
                   "report_ST.txt", "draws_stats_ST.npy", "draws_finals_ST.npy"]
        snapshots = []
        for _ in range(2):
            for command in ("ingest", "backbone", "estimate"):
                assert main([command, cfg]) == 0
            snapshots.append({name: read_bytes(os.path.join(root, "out", name))
                              for name in outputs})
        assert snapshots[0] == snapshots[1]


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args):
    """A fresh interpreter that imports ircnet from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.join(REPO, "src"),
                      os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


PHASES = ("estimate.phase1_derivative", "estimate.phase2_update",
          "estimate.phase3_finalize")


class TestTracer:
    """`bench/tracer.py` wraps the public functions of every ircnet module,
    and the methods `RunConfig.load`, `RunConfig.estimation_options` and
    `RunConfig.meta` by name. It reads some call arguments: `args[4].n1` of
    `phase1_derivative`, `args[0].draws_final_networks` of `gof_test`. Its
    `estimate.*` and `simulate.*` metrics read the spans of the three phases
    and of `simulate_period` and `simulate_panel`, and count a phase-2
    iteration per `simulate_panel` span whose nearest phase is
    `phase2_update`. A traced command must still run and record those
    spans, so a phase taken off `estimate`'s call path fails here rather
    than zeroing those metrics."""

    def test_traced_estimate_and_gof(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(5))
        cfg = write_config(root, extra=FAST_FIT)
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        spans = {}
        for command, wanted in (
                ("estimate", PHASES + ("simulate.simulate_period",
                                       "simulate.simulate_panel")),
                ("gof", ("gof.gof_test",))):
            dump = os.path.join(root, f"{command}.json")
            done = run_python(os.path.join(REPO, "bench", "tracer.py"),
                              dump, command, cfg)
            assert done.returncode == 0, done.stderr
            with open(dump) as fh:
                spans[command] = json.load(fh)["spans"]
            names = {name for name, *_ in spans[command]}
            assert set(wanted) | {"config.RunConfig.load"} <= names
        spans = spans["estimate"]
        owners = set()      # each simulate_panel span's nearest phase
        for name, _, _, parent, _ in spans:
            if name == "simulate.simulate_panel":
                while parent is not None and spans[parent][0] not in PHASES:
                    parent = spans[parent][3]
                owners.add(None if parent is None else spans[parent][0])
        assert "estimate.phase2_update" in owners

    def test_traced_commands_write_untraced_bytes(self, tmp_path):
        # the tracer wraps ingest's and backbone's functions by name and
        # reads `extract_backbone`'s report; each command still writes the
        # bytes of an untraced run
        root = str(tmp_path)
        records = random_records(6)
        write_fixtures(root, records)
        cfg = write_config(root)
        out = os.path.join(root, "out")
        commands = ("ingest", "backbone", "export")
        for command in commands:
            assert main([command, cfg]) == 0
        want = {name: read_bytes(os.path.join(out, name))
                for name in os.listdir(out)}
        shutil.rmtree(out)
        dumps = {}
        for command in commands:
            dump = os.path.join(root, f"{command}.json")
            done = run_python(os.path.join(REPO, "bench", "tracer.py"),
                              dump, command, cfg)
            assert done.returncode == 0, done.stderr
            with open(dump) as fh:
                dumps[command] = json.load(fh)
        assert {name: read_bytes(os.path.join(out, name))
                for name in os.listdir(out)} == want
        # one actor lookup per distinct in-set country of a counted record
        codes = {raw: code for code, raw in NAMES.items()}
        lookups = sum(len({codes[a] for a in r["affiliations"] if a in codes})
                      for r in records)
        assert dumps["ingest"]["hot"]["panel.ActorSet.index"][0] == lookups
        assert dumps["backbone"]["counts"]["backbone.retained_edges"] > 0


class TestProgramEntry:
    """`python -m ircnet.cli` and the `ircnet` script enter `cli.run`,
    which freezes the heap before `main`; in-process `main` calls do not."""

    def test_module_entry(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(19))
        cfg = write_config(root)
        out = os.path.join(root, "out")
        assert main(["ingest", cfg]) == 0
        want = {name: read_bytes(os.path.join(out, name))
                for name in os.listdir(out)}
        shutil.rmtree(out)
        done = run_python("-m", "ircnet.cli", "ingest", cfg)
        assert done.returncode == 0, done.stderr
        assert {name: read_bytes(os.path.join(out, name))
                for name in os.listdir(out)} == want
        cfg = write_config(root, extra="n_1 = 5\n")
        done = run_python("-m", "ircnet.cli", "ingest", cfg)
        assert done.returncode == 1
        assert f"{cfg}:12: unknown config key 'n_1'" in done.stderr

    def test_entry_freezes(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(20))
        cfg = write_config(root)
        done = run_python("-c", f"""\
import gc, sys
from ircnet.cli import run
sys.argv = ["ircnet", "ingest", {cfg!r}]
try:
    run()
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count())
""")
        assert done.returncode == 0, done.stderr
        code, frozen = done.stdout.splitlines()[-1].split()
        assert code == "0" and int(frozen) > 0

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_entry_loads_with_collector_paused(self, tmp_path, entry):
        # from the first line of cli.py to `main` no collection runs; the
        # command runs with the collector on and the imported heap frozen
        root = str(tmp_path)
        write_fixtures(root, random_records(20))
        cfg = write_config(root)
        with open(os.path.join(REPO, "pyproject.toml")) as fh:
            script = re.search(r'^ircnet = "(.+):(.+)"$', fh.read(), re.M)
        call = {"module": 'runpy.run_module("ircnet.cli", run_name="__main__", '
                          'alter_sys=True)',   # what `python -m` does
                "script": "from {0} import {1}; {1}()".format(*script.groups())}
        done = run_python("-c", f"""\
import gc, json, os, runpy, sys
seen = {{}}   # cli.py function -> [collections so far, collector on, frozen]
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(1))
def probe(frame, event, arg):
    code = frame.f_code
    if (event == "call" and code.co_name not in seen
            and code.co_filename.endswith(os.path.join("ircnet", "cli.py"))):
        seen[code.co_name] = [len(starts), gc.isenabled(), gc.get_freeze_count()]
sys.setprofile(probe)
sys.argv = ["ircnet", "ingest", {cfg!r}]
try:
    {call[entry]}
except SystemExit as exc:
    sys.setprofile(None)
    print(json.dumps([exc.code, seen]))
""")
        assert done.returncode == 0, done.stderr
        code, seen = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert seen["main"][0] == seen["<module>"][0]
        _, enabled, frozen = seen["cmd_ingest"]
        assert enabled and frozen > 0

    def test_main_does_not_freeze(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(20))
        cfg = write_config(root)
        frozen = gc.get_freeze_count()
        assert main(["ingest", cfg]) == 0
        assert gc.get_freeze_count() == frozen

    def test_library_modules_load_numpy_only(self):
        # the CLI, config, estimate and fileio load scipy and networkx; the
        # package itself and the other layers do not
        done = run_python("-c", """\
import sys
import ircnet.panel, ircnet.ingest, ircnet.backbone, ircnet.effects
import ircnet.simulate, ircnet.gof
print(sorted(m for m in ("numpy", "scipy", "networkx") if m in sys.modules))
""")
        assert done.stdout.strip() == "['numpy']", done.stderr
        done = run_python("-c", """\
import sys
import ircnet.cli
print(all(m in sys.modules for m in ("scipy.stats", "networkx")))
""")
        assert done.stdout.strip() == "True", done.stderr

    @pytest.mark.parametrize("before,after", [
        ("", "True"), ("gc.disable()", "False"),
        ("sys.modules['numpy'] = None", "ImportError True")])
    def test_import_keeps_gc_state(self, before, after):
        # importing the CLI (numpy, scipy.stats, networkx) leaves the
        # caller's collector as it was, also when an import fails
        done = run_python("-c", f"""\
import gc, sys
{before}
try:
    import ircnet.cli
except ImportError:
    print("ImportError", end=" ")
print(gc.isenabled())
""")
        assert done.stdout.strip() == after, done.stderr


class TestResultFile:
    def test_round_trip(self, tmp_path):
        # every field but the draws, which go to .npy files, as json.load
        # reads it; no ircnet command reads the file back
        rng = np.random.default_rng(3)
        res = EstimationResult(
            theta=rng.normal(size=3), se=rng.random(3),
            rate_labels=["rate period 1"],
            effect_labels=["density", "acfree (simX)"],
            derivative=rng.normal(size=(3, 3)),
            covariance=rng.normal(size=(3, 3)),
            tratios=np.array([0.1, -np.inf, 0.05]), conv_ratio=0.123456789,
            iterations=17, seed=7, ridge_applied=True,
            targets=rng.normal(size=3))
        path = tmp_path / "result.json"
        write_result_json(res, path, meta={"seed": 7})
        with open(path, encoding="utf-8") as fh:
            back = json.load(fh)
        assert back.pop("meta") == {"seed": "7"}
        names = [f.name for f in dataclasses.fields(EstimationResult)
                 if not f.name.startswith("draws_")]
        assert sorted(back) == sorted(names)
        assert back["tratios"][1] == -np.inf
        for name in names:
            want, got = getattr(res, name), back[name]
            if isinstance(want, np.ndarray):
                got = np.array(got)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert type(got) is type(want) and got == want


def networkx_graphml(net, path, node_attrs=None, meta=None):
    """The oracle of `export_graphml`: the graph it once built for networkx,
    written by networkx's ElementTree writer, which lxml cannot replace."""
    import networkx as nx
    g = nx.Graph()
    for k, v in sorted((meta or {}).items()):
        g.graph[k] = str(v)
    ids = net.actors.ids
    for i, iso3 in enumerate(ids):
        attrs = {"degree": int(net.x[i].sum())}
        for name, vec in sorted((node_attrs or {}).items()):
            attrs[name] = float(vec[i])
        g.add_node(iso3, **attrs)
    for i, j in zip(*np.nonzero(np.triu(net.x, k=1))):
        g.add_edge(ids[i], ids[j])
    nx.write_graphml_xml(g, path)


class TestExport:
    def test_graphml_round_trip(self, pipeline):
        root, _ = pipeline
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        panel = read_binary_edgelist(
            os.path.join(root, "out", "backbone_ST.csv"), actors, list(YEARS))
        for net in panel:
            path = os.path.join(root, "out", f"wave_ST_{net.year}.graphml")
            back = import_graphml(path, actors)
            assert np.array_equal(back.x, net.x)

    def assert_oracle_bytes(self, tmp_path, net, node_attrs=None, meta=None):
        want, got = tmp_path / "oracle.graphml", tmp_path / "export.graphml"
        networkx_graphml(net, want, node_attrs, meta)
        export_graphml(net, got, node_attrs, meta)
        assert read_bytes(got) == read_bytes(want)

    def test_pipeline_waves_match_networkx_writer(self, pipeline, tmp_path):
        root, cfg = pipeline
        meta = RunConfig.load(cfg).meta()
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        panel = read_binary_edgelist(
            os.path.join(root, "out", "backbone_ST.csv"), actors, list(YEARS))
        for m, net in enumerate(panel):
            want = tmp_path / f"oracle_{net.year}.graphml"
            networkx_graphml(net, want, meta=meta)
            assert read_bytes(os.path.join(
                root, "out", f"wave_ST_{net.year}.graphml")) == read_bytes(want)
            degree = net.x.sum(axis=1)
            covs = {"gdp": np.log1p(degree + m) / 3,
                    "acfree": np.where(degree > 1, degree * 0.1, np.nan)}
            self.assert_oracle_bytes(tmp_path, net, covs, meta)

    def test_markup_and_odd_numbers_match_networkx_writer(self, tmp_path):
        ids = ('A&B', 'C<D>', 'E"F', "G'H", "Ünïcødé", "tab\tcr\rlf\n")
        x = np.ones((6, 6), dtype=np.int8) - np.eye(6, dtype=np.int8)
        x[0, 3] = x[3, 0] = 0
        net = BinaryNetwork(ActorSet(ids), 2000, x)
        covs = {'x&<>"\'é': np.array([np.nan, -0.0, 1e300, 1 / 3, 2.0, -7.5]),
                "Größe": np.arange(6)}
        # text escapes no quote, so a `"` in a meta value stays as it is
        meta = {'k&<>"\'ü': 'v&<>"\'ü', "quote": 'say "hi"', "seed": 7,
                "empty": "", "id": 'g"1', "lines": "a\r\nb\tc"}
        self.assert_oracle_bytes(tmp_path, net, covs, meta)
        assert 'say "hi"</data>' in (tmp_path / "export.graphml").read_text(
            encoding="utf-8")

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_meta_no_covariates_match_networkx_writer(self, tmp_path, rng, n):
        x = np.triu(rng.random((n, n)) < 0.5, 1).astype(np.int8)
        net = BinaryNetwork(ActorSet(tuple(f"N{i}" for i in range(n))), 2000,
                            x + x.T)
        self.assert_oracle_bytes(tmp_path, net)


def _dyad_lines():
    """A symmetric distance matrix over ACTORS, as the lines of its file."""
    lines = ["," + ",".join(ACTORS)]
    for code in ACTORS:
        lines.append(code + "," + ",".join("0" if a == code else "1"
                                           for a in ACTORS))
    return lines


def _dyad_text(lineno, line):
    lines = _dyad_lines()
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


def _dyad_deu_twice():
    """The matrix of `_dyad_lines` with its DEU column given again, last."""
    return "".join(f"{line},{line.split(',')[2]}\n" for line in _dyad_lines())


class TestStreaming:
    def test_text_lines_are_text_mode_lines(self, tmp_path):
        # every line break of text mode, a byte-order mark that is dropped,
        # and characters that text mode does not break at
        path = tmp_path / "mixed.txt"
        path.write_bytes("\ufeffa,b\r\nc\rd\n\n\r\r\xe9,\xfc\r\n\x85\u2028x\x0cy"
                         "\n\r\n last".encode("utf-8"))
        with open(path, encoding="utf-8-sig") as fh:
            want = fh.readlines()
        lines = text_lines(path)
        assert not isinstance(lines, list)
        assert list(lines) == want

    @pytest.mark.parametrize("head", [b"", "\ufeff".encode("utf-8")])
    def test_text_lines_name_the_line_not_utf8(self, tmp_path, head):
        # line 4, counting the line breaks of text mode
        path = tmp_path / "bad.txt"
        path.write_bytes(head + b"a\r\nb\rc\n\xc3\xa9d\xe9\ne\xe9\n")
        with pytest.raises(FileFormatError) as err:
            list(text_lines(path))
        assert str(err.value) == (f"{path}:4: not UTF-8 text: byte 0xE9 at "
                                  "column 4")

    def test_ingest_memory_does_not_grow_with_records(self, tmp_path):
        """`ingest` streams its records: 100,000 records peak at most 25 MB
        above 2,000. A list of them would add about 0.8 KB per record."""
        root = str(tmp_path)
        base = random_records(24, 2_000)
        write_fixtures(root, [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (os.path.join(REPO, "src"),
                          os.environ.get("PYTHONPATH")))))
        rss = {}
        for size in (2_000, 100_000):
            records = tmp_path / f"records{size}.jsonl"
            with open(records, "w") as fh:
                for k in range(size):
                    fh.write(json.dumps(dict(base[k % len(base)],
                                             id=f"A{k}")) + "\n")
            cfg = write_config(root, extra=f"records = {records}\n"
                                           f"outdir = {root}/out{size}\n")
            with open(tmp_path / f"log{size}", "wb") as log:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "ircnet.cli", "ingest", cfg],
                    env=env, stdout=log, stderr=subprocess.STDOUT)
                _, status, usage = os.wait4(proc.pid, 0)
            # wait4 has reaped the child; tell Popen, so it never waits on it
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0, (tmp_path / f"log{size}").read_text()
            rss[size] = usage.ru_maxrss / 1024
        assert rss[100_000] <= rss[2_000] + 25, rss


# (file kind, file text, line the error names)
MALFORMED = [
    pytest.param("panel", "year,iso3_a,iso3_b\n2000,CHN\n", 2,
                 id="edge-row-short"),
    pytest.param("panel", "year,iso3_a,iso3_b\n2000,CHN,DEU\nx,CHN,DEU\n", 3,
                 id="edge-year"),
    pytest.param("weighted", "# seed=7\nyear,iso3_a,iso3_b,weight\n"
                 "2000,CHN,DEU,z\n", 3, id="edge-weight"),
    pytest.param("weighted", "year,iso3_a,iso3_b,weight\n2000,CHN,CHN,3\n", 2,
                 id="edge-self-loop"),
    pytest.param("weighted", "year,iso3_a,iso3_b,weight\n2000,CHN,DEU,1\n"
                 "2000,CHN,DEU,-3\n", 3, id="edge-negative-weight"),
    # a year outside `years` (2000-2002) is not counted, but still checked
    pytest.param("panel", "year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n"
                 "2009,CHN,XYZ\n", 4, id="edge-unrequested-year-actor"),
    pytest.param("weighted", "year,iso3_a,iso3_b,weight\n2000,CHN,DEU,1\n"
                 "2009,CHN,CHN,2\n", 3, id="edge-unrequested-year-self-loop"),
    pytest.param("dyad", "", 1, id="dyad-empty"),
    pytest.param("dyad", _dyad_text(3, "DEU,abc,0,1,1,1,1"), 3, id="dyad-cell"),
    pytest.param("dyad", _dyad_text(4, "FRA,1,1,0,1,1"), 4, id="dyad-row-short"),
    pytest.param("actor", "iso3,year,value\nCHN,x,1\n", 2, id="actor-year"),
    pytest.param("actor", "iso3,year,value\nDEU,2000,1\n\nCHN,2000,abc\n", 4,
                 id="actor-value"),
    pytest.param("actor", "iso3,year,value\nCHN,2000\n", 2,
                 id="actor-row-short"),
    pytest.param("actor", "iso3,year,value\nCHN,2000,1\nDEU,2000,inf\n", 3,
                 id="actor-inf"),
    pytest.param("actor", "iso3,year,value\nCHN,2000,1\nDEU,2001,NaN\n", 3,
                 id="actor-nan"),
    pytest.param("actor", "iso3,year,value\nCHN,2000,1\nDEU,2000,2\n"
                 "CHN,2000,5\n", 4, id="actor-repeated-row"),
    pytest.param("dyad", _dyad_text(3, "DEU,nan,0,1,1,1,1"), 3, id="dyad-nan"),
    pytest.param("dyad", _dyad_text(5, "JPN,1,1,1,0,1,-inf"), 5, id="dyad-inf"),
    pytest.param("dictionary", "# policy=drop\nJapan\tJPN\nAtlantis\n", 3,
                 id="dictionary-line"),
    pytest.param("dictionary", "Japan\tJPN\nFrance\tFRA\nJapan\tDEU\n", 3,
                 id="dictionary-repeated-name"),
    pytest.param("dictionary", "Japan\tJPN\n\tFRA\n", 2,
                 id="dictionary-empty-name"),
    pytest.param("dictionary", "# policy=drop\nJapan , \n", 2,
                 id="dictionary-empty-code"),
    pytest.param("actors", "CHN\nDEU\n# comment\nCHN\n", 4,
                 id="actors-repeated"),
    pytest.param("dyad", _dyad_text(4, "DEU,1,0,1,1,1,1"), 4,
                 id="dyad-repeated-row"),
    pytest.param("dyad", _dyad_deu_twice(), 1, id="dyad-repeated-column"),
    pytest.param("dyad", _dyad_text(3, "DEU,1,0,2,1,1,1"), 3,
                 id="dyad-asymmetric"),
]


def write_long_edgelist(root, n=100, weighted=True):
    """`n` actors in root/actors.txt and an edge list over 1990-2019 with
    150 random rows per year in root/edges.csv; its path."""
    rng = np.random.default_rng(29)
    labels = [f"A{k:03d}" for k in range(n)]
    with open(os.path.join(root, "actors.txt"), "w") as fh:
        fh.write("\n".join(labels) + "\n")
    path = os.path.join(root, "edges.csv")
    with open(path, "w") as fh:
        fh.write("year,iso3_a,iso3_b" + (",weight\n" if weighted else "\n"))
        for year in range(1990, 2020):
            for _ in range(150):
                i, j = sorted(rng.choice(n, 2, replace=False))
                fh.write(f"{year},{labels[i]},{labels[j]}"
                         + (f",{rng.integers(1, 9)}\n" if weighted else "\n"))
    return path


def traced_peak(fn, *args):
    """Peak bytes that `tracemalloc` sees `fn(*args)` allocate."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The I/O commands hold each wave once and nothing they do not write."""

    def test_backbone_holds_one_year_of_scores(self, tmp_path):
        """At n = 100 over 30 years the weighted series is 30 int64 waves,
        S = 2.4 MB. `backbone` holds S, its int8 backbone series (S / 8) and
        one year's scores and their temporaries (a few n x n floats), about
        1.4 S; the bound is 2 S. Keeping every year's `alpha` and `p` (two
        float64 matrices a year) adds 2 S, about 3.3 S in all."""
        root = str(tmp_path)
        path = write_long_edgelist(root)
        cfg = write_config(root, extra=f"weighted = {path}\nyears = 1990-2019\n"
                                       "alpha = 0.3\n")
        assert main(["backbone", cfg]) == 0   # first-call caches untraced
        series_bytes = 30 * 100 * 100 * 8
        peak = traced_peak(main, ["backbone", cfg])
        assert peak < 2 * series_bytes, peak / series_bytes

    def test_reader_counts_only_requested_years(self, tmp_path):
        """The last 3 of 30 years are counted; the other 27 are parsed and
        checked but get no matrix. The peak is a few waves (bound: 8 int64
        waves of n = 100, 0.64 MB), not the 30 that counting every year
        holds."""
        root = str(tmp_path)
        path = write_long_edgelist(root, weighted=False)
        actors = read_actor_set(os.path.join(root, "actors.txt"))
        years = [2017, 2018, 2019]
        peak = traced_peak(read_binary_edgelist, path, actors, years)
        assert peak < 8 * 100 * 100 * 8, peak / (100 * 100 * 8)
        panel = read_binary_edgelist(path, actors, years)
        full = read_binary_edgelist(path, actors)
        assert panel.years == years
        for net in panel:
            assert np.array_equal(net.x, full.wave(full.years.index(net.year)).x)

    @pytest.mark.parametrize("n3", [0, 3, 25])
    def test_draws_file_is_np_save_bytes(self, tmp_path, rng, n3):
        nets = [random_graph(rng, 7) for _ in range(n3)]
        result = SimpleNamespace(draws_stats=rng.random((n3, 4)),
                                 draws_final_networks=nets)
        write_draws(result, tmp_path / "stats.npy", tmp_path / "finals.npy")
        np.save(tmp_path / "want.npy",
                np.array([net.x for net in nets], dtype=np.int8))
        np.save(tmp_path / "want_stats.npy", result.draws_stats)
        assert read_bytes(tmp_path / "finals.npy") == read_bytes(tmp_path / "want.npy")
        assert (read_bytes(tmp_path / "stats.npy")
                == read_bytes(tmp_path / "want_stats.npy"))

    def test_draws_are_written_without_their_stack(self, tmp_path, rng):
        """200 draws at n = 100 stack to 2 MB; writing them one at a time
        peaks under a tenth of that."""
        nets = [random_graph(rng, 100, p=0.05) for _ in range(200)]
        result = SimpleNamespace(draws_stats=np.zeros((200, 4)),
                                 draws_final_networks=nets)
        peak = traced_peak(write_draws, result, tmp_path / "s.npy",
                           tmp_path / "f.npy")
        assert peak < 0.1 * 200 * 100 * 100, peak


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.cfg")]) == 1

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("outdir = %s/out\n" % tmp_path)
        assert main(["ingest", str(path)]) == 1

    def test_unknown_effect_is_validation_error(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(8))
        cfg = write_config(root, extra="effects = density, reciprocity\n")
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["estimate", cfg]) == 1

    @pytest.mark.parametrize("effect,name", [
        ("egoPlusAltX:nope", "'nope'"),
        ("dyadX:ac", "'ac'"),       # an actor covariate
    ])
    def test_effect_covariate_not_configured(self, tmp_path, capsys, effect,
                                             name):
        root = str(tmp_path)
        write_fixtures(root, random_records(8))
        ac = tmp_path / "ac.csv"
        ac.write_text("iso3,year,value\n" + "".join(
            f"{code},{year},{k}\n" for k, code in enumerate(ACTORS)
            for year in YEARS))
        extra = (FAST_FIT + f"effects = density, {effect}\n"
                 f"actor_covariates = ac:{ac}\n")
        cfg = write_config(root, extra=extra)
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["estimate", cfg]) == 1
        # the message names the effect's label and the config key to set
        kind, covariate = effect.split(":")
        key = "dyad_covariates" if kind == "dyadX" else "actor_covariates"
        err = capsys.readouterr().err
        assert f"{covariate} ({kind})" in err and key in err and name in err
        assert not os.path.exists(os.path.join(root, "out", "result_ST.json"))

    def test_divergence_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("parameter vector diverged in phase 2")

        monkeypatch.setattr(sys.modules["ircnet.estimate"], "phase2_update",
                            diverge)
        root = str(tmp_path)
        write_fixtures(root, random_records(8))
        cfg = write_config(root, extra=FAST_FIT)
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["estimate", cfg]) == 2
        assert "diverged in phase 2" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(root, "out", "result_ST.json"))

    @pytest.mark.parametrize("name", ["records.jsonl", "actors.txt",
                                      "dictionary.tsv", "run.cfg"])
    def test_input_not_utf8(self, tmp_path, capsys, name):
        """A Latin-1 byte (0xE9) in line 3 of an input exits 1 naming the
        file and line."""
        root = str(tmp_path)
        write_fixtures(root, random_records(16))
        cfg = write_config(root)
        path = os.path.join(root, name)
        lines = read_bytes(path).split(b"\n")
        lines[2] = lines[2].replace(b"e", b"\xe9", 1) + b" \xe9"
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        assert main(["ingest", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3: not UTF-8 text: byte 0xE9" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 7\nthis is not a key value pair\n")
        assert main(["ingest", str(path)]) == 1
        assert f"{path}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("n1", "ten"), ("t_max", "x"), ("n1", "0"), ("initial_gain", "1.5"),
        ("max_subphase_iter", "0"), ("max_subphase_iter", "-3"),
        ("derivative_step", "0"), ("t_max", "nan")])
    def test_unparseable_estimation_value(self, tmp_path, capsys, key, value):
        root = str(tmp_path)
        write_fixtures(root, random_records(10))
        cfg = write_config(root, extra=f"{key} = {value}\n")
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["estimate", cfg]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err

    @pytest.mark.parametrize("bad", [
        "{not json",
        '{"year": 2000, "affiliations": ["Japan"]}',
        '{"id": "p2", "affiliations": ["Japan"]}',
        '{"id": "p2", "year": 2000}',
        '{"id": "p2", "year": 2000.7, "affiliations": ["Japan"]}',
        '{"id": "p2", "year": true, "affiliations": ["Japan"]}',
    ])
    def test_malformed_record(self, tmp_path, capsys, bad):
        root = str(tmp_path)
        write_fixtures(root, random_records(13, 3))
        records = os.path.join(root, "records.jsonl")
        with open(records, "a") as fh:
            fh.write(bad + "\n")
        assert main(["ingest", write_config(root)]) == 1
        assert f"{records}:4" in capsys.readouterr().err

    @pytest.mark.parametrize("key,fields", [
        # a string is not split into one-character names
        ("affiliations", '"affiliations": "United States"'),
        ("affiliations", '"affiliations": ["Japan", 3]'),
        ("domain", '"domain": ["S&T", null], "affiliations": ["Japan"]'),
        ("domain", '"domain": 5, "affiliations": ["Japan"]'),
    ])
    def test_record_field_types(self, tmp_path, capsys, key, fields):
        root = str(tmp_path)
        write_fixtures(root, random_records(13, 3))
        records = os.path.join(root, "records.jsonl")
        with open(records, "a") as fh:
            fh.write(f'{{"id": "p2", "year": 2000, {fields}}}\n')
        assert main(["ingest", write_config(root)]) == 1
        err = capsys.readouterr().err
        assert f"{records}:4: record p2: {key} must be a list of strings" in err

    @pytest.mark.parametrize("line", ["# policy", "# policy=bogus",
                                      "# policy: error", "#policy =drops"])
    def test_bad_dictionary_policy(self, tmp_path, capsys, line):
        root = str(tmp_path)
        write_fixtures(root, random_records(13, 3))
        dictionary = os.path.join(root, "dictionary.tsv")
        with open(dictionary, "a") as fh:
            fh.write(line + "\n")
        assert main(["ingest", write_config(root)]) == 1
        err = capsys.readouterr().err
        assert f"{dictionary}:8: expected '# policy=drop' or " in err

    def test_unmatched_country_names_its_record(self, tmp_path, capsys):
        root = str(tmp_path)
        records = [{"id": "A0", "year": 2000, "domain": "S&T",
                    "affiliations": ["Japan", "France"]},
                   {"id": "A1", "year": 2001, "domain": "S&T",
                    "affiliations": ["Germany", "Narnia"]}]
        write_fixtures(root, records)
        dictionary = os.path.join(root, "dictionary.tsv")
        with open(dictionary, "a") as fh:
            fh.write("# policy=error\n")
        assert main(["ingest", write_config(root)]) == 1
        err = capsys.readouterr().err
        assert ("record A1 (2001): no dictionary entry for country name "
                "'Narnia'") in err

    def test_gof_and_export_read_no_dyad_matrix(self, tmp_path, capsys):
        """gof reads no covariate and export only the actor covariates, so
        neither needs the dyad matrix that estimate reads."""
        root = str(tmp_path)
        write_fixtures(root, random_records(5))
        ac, dist = tmp_path / "ac.csv", tmp_path / "dist.csv"
        ac.write_text("iso3,year,value\n" + "".join(
            f"{code},{year},{k}\n" for k, code in enumerate(ACTORS)
            for year in YEARS))
        dist.write_text("\n".join(_dyad_lines()) + "\n")
        cfg = write_config(root, extra=FAST_FIT + f"actor_covariates = ac:{ac}\n"
                                       f"dyad_covariates = dist:{dist}\n")
        for command in ("ingest", "backbone", "estimate"):
            assert main([command, cfg]) == 0
        os.remove(dist)
        assert main(["gof", cfg]) == 0
        assert main(["export", cfg]) == 0
        graphml = os.path.join(root, "out", "wave_ST_2000.graphml")
        with open(graphml, encoding="utf-8") as fh:
            assert 'attr.name="ac"' in fh.read()
        capsys.readouterr()
        assert main(["estimate", cfg]) == 1
        assert str(dist) in capsys.readouterr().err

    @pytest.mark.parametrize("key,entries,name", [
        ("actor_covariates", "degree:{ac}", "degree"),
        ("actor_covariates", "ac:{ac},gdp:{ac},ac:{ac}:log1p", "ac"),
        ("dyad_covariates", "dist:{dist},dist:{dist}", "dist"),
    ])
    def test_colliding_covariate_names(self, tmp_path, capsys, key, entries,
                                       name):
        """A name given twice, or an actor covariate named `degree`, which
        export writes the network degree under, exits 1 naming the key."""
        root = str(tmp_path)
        write_fixtures(root, random_records(16))
        ac, dist = tmp_path / "ac.csv", tmp_path / "dist.csv"
        ac.write_text("iso3,year,value\nCHN,2000,7.5\n")
        dist.write_text("\n".join(_dyad_lines()) + "\n")
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        cfg = write_config(root, extra=f"panel = {panel}\n{key} = "
                           + entries.format(ac=ac, dist=dist) + "\n")
        assert main(["export" if key == "actor_covariates" else "estimate",
                     cfg]) == 1
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and f"covariate name {name!r}" in err

    def test_repeated_covariate_row_names_both_lines(self, tmp_path):
        path = tmp_path / "ac.csv"
        path.write_text("iso3,year,value\nCHN,2000,1\nDEU,2000,2\n"
                        "CHN,2000,5\n")
        with pytest.raises(FileFormatError) as err:
            read_actor_covariate(path, "ac", ActorSet(ACTORS), list(YEARS))
        assert str(err.value) == (f"{path}:4: a second row for CHN in 2000; "
                                  "the first is line 2")

    def test_repeated_actor_label_names_both_lines(self, tmp_path):
        path = tmp_path / "actors.txt"
        path.write_text("CHN\nDEU\n\nCHN\n")
        with pytest.raises(FileFormatError) as err:
            read_actor_set(path)
        assert str(err.value) == (f"{path}:4: a second line for actor 'CHN'; "
                                  "the first is line 1")

    def test_repeated_dictionary_name_names_both_lines(self, tmp_path):
        path = tmp_path / "dictionary.tsv"
        path.write_text("# policy=drop\nLand A\tAAA\nLand B,BBB\n"
                        "Land A\tBBB\n")
        with pytest.raises(FileFormatError) as err:
            read_dictionary(path)
        assert str(err.value) == (f"{path}:4: a second entry for 'Land A'; "
                                  "the first is line 2")

    @pytest.mark.parametrize("text,message", [
        (_dyad_text(4, "DEU,1,0,1,1,1,1"),
         "4: a second row for 'DEU'; the first is line 3"),
        (_dyad_deu_twice(), "1: column 8 repeats 'DEU', the label of column 3"),
        (_dyad_text(5, "JPN,1,1,1,0,1,1.5"),
         "5: cell (JPN, USA) is 1.5 but cell (USA, JPN) is 1; "
         "the matrix must be symmetric"),
    ], ids=["repeated-row", "repeated-column", "asymmetric"])
    def test_dyad_matrix_names_its_file(self, tmp_path, text, message):
        """A repeated row or column label, or a matrix that is not
        symmetric, names the file and the lines or columns at fault."""
        path = tmp_path / "dist.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError) as err:
            read_dyad_matrix(path, "dist", ActorSet(ACTORS))
        assert str(err.value) == f"{path}:{message}"

    def test_dyad_matrix_within_isclose_is_symmetric(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text(_dyad_text(3, "DEU,1,0,1.000000001,1,1,1"))
        cov = read_dyad_matrix(path, "dist", ActorSet(ACTORS))
        assert cov.values[1, 2] == 1.000000001

    def test_empty_covariate_cell_is_missing(self, tmp_path):
        path = tmp_path / "ac.csv"
        path.write_text("iso3,year,value\nCHN,2000,\nCHN,2001,3\n")
        cov = read_actor_covariate(path, "ac", ActorSet(ACTORS), list(YEARS))
        assert np.isnan(cov.values[0, 0]) and cov.values[0, 1] == 3.0

    def test_unparseable_years(self, tmp_path, capsys):
        root = str(tmp_path)
        write_fixtures(root, random_records(14))
        cfg = write_config(root)
        with open(cfg, "a") as fh:   # a repeated key takes its last value
            fh.write("years = 2020-x\n")
        assert main(["ingest", cfg]) == 1
        err = capsys.readouterr().err
        assert "'years'" in err and "'2020-x'" in err

    @pytest.mark.parametrize("value,what", [
        ("2000,2000", "year 2000 is listed twice; expected a range lo-hi or "
                      "a comma list of distinct years"),
        ("1990-2000-2010", "expected one range lo-hi, such as 1993-2022")])
    def test_repeated_year_or_bad_range(self, tmp_path, capsys, value, what):
        root = str(tmp_path)
        write_fixtures(root, random_records(14))
        cfg = write_config(root, extra=f"years = {value}\n")
        assert main(["ingest", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config key 'years': {value!r} is not valid ({what})" in err

    @pytest.mark.parametrize("command", ["ingest", "backbone"])
    def test_empty_year_range(self, tmp_path, capsys, command):
        root = str(tmp_path)
        write_fixtures(root, random_records(18))
        cfg = write_config(root, extra="years = 2002-2000\n")
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert "'years'" in err and "'2002-2000'" in err

    def test_one_year_estimate_names_the_key(self, tmp_path, capsys):
        # a one-wave panel has no period to fit: a config error, found
        # before the covariate files are read or the output folder is made
        root = str(tmp_path)
        write_fixtures(root, random_records(18))
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2001,CHN,DEU\n")
        cfg = write_config(root, extra=f"years = 2001\npanel = {panel}\n"
                                       f"actor_covariates = gdp:{root}/no.csv\n")
        assert main(["estimate", cfg]) == 1
        assert ("error: config key 'years': '2001' names one year, 2001; "
                "estimate needs at least 2") in capsys.readouterr().err
        assert not os.path.exists(os.path.join(root, "out"))

    @pytest.mark.parametrize("value,what", [
        ("S&T, ST", "domains 'S&T' and 'ST' both write weighted_ST.csv"),
        ("S&T,", "a domain name is empty")])
    def test_domain_list_names_the_key(self, tmp_path, capsys, value, what):
        # checked before any record is read: the malformed record is not
        # reached, and nothing is written
        root = str(tmp_path)
        write_fixtures(root, random_records(24))
        with open(os.path.join(root, "records.jsonl"), "w") as fh:
            fh.write("not json\n")
        cfg = write_config(root, extra=f"domain = {value}\n")
        assert main(["ingest", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config key 'domain': {value!r} is not valid ({what})" in err
        assert not os.path.exists(os.path.join(root, "out"))

    @pytest.mark.parametrize("command", ["backbone", "estimate", "gof",
                                         "export"])
    def test_one_domain_commands_reject_a_list(self, tmp_path, capsys,
                                               command):
        root = str(tmp_path)
        write_fixtures(root, random_records(25))
        cfg = write_config(root, extra="domain = S&T,SocSci\n")
        assert main([command, cfg]) == 1
        assert ("config key 'domain': 'S&T,SocSci' names 2 domains; this "
                "command reads one") in capsys.readouterr().err

    def test_repeated_effect_names_the_key(self, tmp_path, capsys):
        # the items are compared after stripping; a model built with a
        # repeated effect has a singular derivative matrix
        root = str(tmp_path)
        write_fixtures(root, random_records(26))
        ac = tmp_path / "ac.csv"
        ac.write_text("iso3,year,value\nCHN,2000,7.5\n")
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        effects = "density, gwesp, egoPlusAltX:gdp, egoPlusAltX : gdp"
        cfg = write_config(root, extra=f"panel = {panel}\n"
                                       f"actor_covariates = gdp:{ac}\n"
                                       f"effects = {effects}\n")
        assert main(["estimate", cfg]) == 1
        assert (f"config key 'effects': {effects!r} is not valid (effect "
                "'egoPlusAltX : gdp' is given twice)") in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_1", "min_subphase_iter"])
    def test_unknown_key(self, tmp_path, capsys, key):
        root = str(tmp_path)
        write_fixtures(root, random_records(15))
        cfg = write_config(root, extra=f"{key} = 5\n")
        assert main(["ingest", cfg]) == 1
        err = capsys.readouterr().err
        # write_config's 11 lines come first
        assert f"{cfg}:12: unknown config key {key!r}" in err

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_negative_seed(self, tmp_path, capsys, where):
        root = str(tmp_path)
        write_fixtures(root, random_records(16))
        if where == "file":
            argv = [write_config(root, extra="seed = -1\n")]
        else:
            argv = [write_config(root), "--seed", "-1"]
        assert main(["ingest"] + argv) == 1
        err = capsys.readouterr().err
        assert "'seed'" in err and "'-1'" in err

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_bad_threads_in_file(self, tmp_path, capsys, value):
        # no command reads `threads` yet, but every one checks it
        root = str(tmp_path)
        write_fixtures(root, random_records(17))
        cfg = write_config(root, extra=f"threads = {value}\n")
        assert main(["ingest", cfg]) == 1
        err = capsys.readouterr().err
        assert "'threads'" in err and repr(value) in err

    def test_alpha_column_not_a_flag(self, tmp_path, capsys):
        root = str(tmp_path)
        write_fixtures(root, random_records(17))
        cfg = write_config(root, extra="alpha_column = maybe\n")
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 1
        err = capsys.readouterr().err
        assert "'alpha_column'" in err and "'maybe'" in err

    @pytest.mark.parametrize("key,value,command,flag", [
        ("alpha", "2", "backbone", False), ("alpha", "0", "backbone", False),
        ("alpha", "nan", "backbone", False), ("alpha", "2", "backbone", True),
        ("model_type", "forcingg", "estimate", False)])
    def test_alpha_and_model_type_name_the_key(self, tmp_path, capsys, key,
                                               value, command, flag):
        """An alpha outside (0, 1] or an unknown rule exits 1 naming the key."""
        root = str(tmp_path)
        write_fixtures(root, random_records(19))
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        setting = f"panel = {panel}\n" + ("" if flag else f"{key} = {value}\n")
        cfg = write_config(root, extra=setting)
        assert main(["ingest", cfg]) == 0
        assert main([command, cfg] + ([f"--{key}", value] if flag else [])) == 1
        assert (f"config key {key!r}: {value!r} is not valid"
                in capsys.readouterr().err)

    def test_covariate_item_parts_are_stripped(self, tmp_path):
        root = str(tmp_path)
        write_fixtures(root, random_records(20))
        ac = tmp_path / "ac.csv"
        ac.write_text("iso3,year,value\nCHN,2000,7.5\n")
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        items = f"ac : {ac} , gdp:{ac}: log1p"
        cfg = write_config(root, extra=f"panel = {panel}\n"
                                       f"actor_covariates = {items}\n")
        assert RunConfig.load(cfg)["actor_covariates"] == (
            ("ac", str(ac), "none"), ("gdp", str(ac), "log1p"))
        assert main(["export", cfg]) == 0
        text = (tmp_path / "out" / "wave_ST_2000.graphml").read_text()
        assert 'attr.name="ac"' in text and 'attr.name="gdp"' in text

    def test_unknown_transform_names_the_key(self, tmp_path, capsys):
        root = str(tmp_path)
        write_fixtures(root, random_records(20))
        ac = tmp_path / "ac.csv"
        ac.write_text("iso3,year,value\nCHN,2000,7.5\n")
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        cfg = write_config(root, extra=f"panel = {panel}\n"
                                       f"actor_covariates = ac:{ac}:sqrt\n")
        assert main(["export", cfg]) == 1
        err = capsys.readouterr().err
        assert (f"config key 'actor_covariates': 'ac:{ac}:sqrt' is not valid "
                f"(unknown transform 'sqrt' in 'ac:{ac}:sqrt'; expected none "
                "or log1p)") in err

    @pytest.mark.parametrize("kind,text,line,cell", [
        # DEU's 1999 row lies outside the panel's years and is skipped
        ("actor", "iso3,year,value\nCHN,2000,1\nDEU,1999,-5\nDEU,2001,-2\n"
         "FRA,2001,-3\n", 4, "-2"),
        ("dyad", _dyad_text(4, "FRA,1,1,0,1,-1,-2"), 4, "-1")],
        ids=["actor", "dyad"])
    def test_log1p_negative_value_names_its_line(self, tmp_path, capsys, kind,
                                                 text, line, cell):
        root = str(tmp_path)
        write_fixtures(root, random_records(20))
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        cfg = write_config(root, extra=f"panel = {panel}\n{kind}_covariates = "
                                       f"c:{bad}:log1p\n")
        assert main(["estimate", cfg]) == 1
        assert (f"{bad}:{line}: value {cell!r} is below 0, which log1p does "
                "not take") in capsys.readouterr().err

    def test_readme_lists_every_config_key(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        section = readme.split("### Config keys")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        assert sorted(rows) == sorted(KEYS)

    def test_unknown_actor_in_edge_list(self, tmp_path, capsys):
        root = str(tmp_path)
        write_fixtures(root, random_records(11))
        panel = tmp_path / "panel.csv"
        panel.write_text("# seed=7\nyear,iso3_a,iso3_b\n2000,CHN,DEU\n"
                         "2001,DEU,ZZZ\n")
        cfg = write_config(root, extra=f"panel = {panel}\n")
        assert main(["estimate", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{panel}:4" in err and "'ZZZ'" in err

    @pytest.mark.parametrize("bad_line", [1, 3])
    def test_unknown_actor_in_dyad_matrix(self, tmp_path, capsys, bad_line):
        # line 1 is the header row; line 3 is the row of the second actor
        root = str(tmp_path)
        write_fixtures(root, random_records(12))
        lines = _dyad_lines()
        lines[bad_line - 1] = lines[bad_line - 1].replace(ACTORS[1], "ZZZ")
        dist = tmp_path / "dist.csv"
        dist.write_text("\n".join(lines) + "\n")
        cfg = write_config(root, extra=f"effects = density, dyadX:dist\n"
                                       f"dyad_covariates = dist:{dist}\n")
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["estimate", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{dist}:{bad_line}" in err and "'ZZZ'" in err

    @pytest.mark.parametrize("drop", ["row", "column", "both"])
    def test_dyad_matrix_missing_actors(self, tmp_path, capsys, drop):
        # an actor without a row or column would read as distance 0
        root = str(tmp_path)
        write_fixtures(root, random_records(16))
        lines = _dyad_lines()
        cut = [ACTORS.index("FRA") + 1] if drop != "column" else []
        if drop != "row":
            lines = [",".join(f for k, f in enumerate(line.split(","))
                              if k != ACTORS.index("FRA") + 1)
                     for line in lines]
        lines = [line for k, line in enumerate(lines) if k not in cut]
        dist = tmp_path / "dist.csv"
        dist.write_text("\n".join(lines) + "\n")
        cfg = write_config(root, extra=f"effects = density, dyadX:dist\n"
                                       f"dyad_covariates = dist:{dist}\n")
        assert main(["ingest", cfg]) == 0
        assert main(["backbone", cfg]) == 0
        assert main(["estimate", cfg]) == 1
        err = capsys.readouterr().err
        assert str(dist) in err and "FRA" in err

    @pytest.mark.parametrize("kind,text,line", MALFORMED)
    def test_malformed_delimited_input(self, tmp_path, capsys, kind, text, line):
        """Each malformed input exits 1 and names its file and line."""
        root = str(tmp_path)
        write_fixtures(root, random_records(15))
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        panel = tmp_path / "panel.csv"
        panel.write_text("year,iso3_a,iso3_b\n2000,CHN,DEU\n2001,DEU,FRA\n")
        command, extra = {
            "panel": ("estimate", f"panel = {bad}"),
            "weighted": ("backbone", f"weighted = {bad}"),
            "actor": ("estimate", f"panel = {panel}\nactor_covariates = ac:{bad}"),
            "dyad": ("estimate", f"panel = {panel}\ndyad_covariates = dist:{bad}"),
            "dictionary": ("ingest", f"dictionary = {bad}"),
            "actors": ("ingest", f"actors = {bad}"),
        }[kind]
        assert main([command, write_config(root, extra=extra + "\n")]) == 1
        assert f"{bad}:{line}:" in capsys.readouterr().err
