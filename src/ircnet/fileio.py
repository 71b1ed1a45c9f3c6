"""File formats: edge lists, covariates, dictionaries, records, GraphML.

All delimited files are UTF-8 CSV with a header row; lines starting with
'#' are metadata comments (config hash, seed) and are skipped on read.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np
import networkx as nx

from .estimate import EstimationResult
from .ingest import ArticleRecord, DisambiguationDictionary
from .panel import (ActorSet, BinaryNetwork, BinaryNetSeries, DyadCovariate,
                    ActorCovariate, WeightedNetwork, WeightedNetSeries)


class FileFormatError(ValueError):
    pass


def _meta_lines(meta):
    return [f"# {k}={v}" for k, v in sorted((meta or {}).items())]


def _is_data(line):
    return line.strip() and not line.startswith("#")


def _open_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if _is_data(ln)]
    return list(csv.reader(lines))


def _actor_index(actors, label, path, row) -> int:
    """Index of `label`; an unknown label is reported with the file line of
    `_open_rows(path)[row]`, found by reading the file again."""
    try:
        return actors.index(label)
    except KeyError:
        pass
    with open(path, encoding="utf-8") as fh:
        data_lines = (k for k, ln in enumerate(fh, 1) if _is_data(ln))
        lineno = next(itertools.islice(data_lines, row, None))
    raise FileFormatError(f"{path}:{lineno}: unknown actor {label!r}")


def read_actor_set(path) -> ActorSet:
    with open(path, encoding="utf-8") as fh:
        ids = [ln.strip() for ln in fh if _is_data(ln)]
    return ActorSet(tuple(ids))


def write_actor_set(actors: ActorSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(actors.ids) + "\n")


def read_records(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, 1):
            if ln.strip():
                try:
                    out.append(ArticleRecord.from_json(ln))
                except (ValueError, TypeError) as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return out


def read_dictionary(path) -> DisambiguationDictionary:
    """Two-column delimited raw-name -> ISO3; optional '# policy=...' header."""
    policy = "drop"
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.rstrip("\n")
            if not ln.strip():
                continue
            if ln.startswith("#"):
                body = ln.lstrip("#").strip()
                if body.startswith("policy"):
                    policy = body.split("=", 1)[1].strip()
                continue
            parts = ln.split("\t") if "\t" in ln else ln.split(",", 1)
            if len(parts) != 2:
                raise FileFormatError(f"bad dictionary line: {ln!r}")
            mapping[parts[0].strip()] = parts[1].strip()
    return DisambiguationDictionary(mapping, policy)


def write_weighted_edgelist(series, path, meta=None, scores_by_year=None):
    """`year,iso3_a,iso3_b,weight` rows (iso3_a < iso3_b), optional alpha col."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ln in _meta_lines(meta):
            fh.write(ln + "\n")
        wr = csv.writer(fh)
        header = ["year", "iso3_a", "iso3_b", "weight"]
        if scores_by_year is not None:
            header.append("alpha")
        wr.writerow(header)
        for net in series:
            ids = net.actors.ids
            ii, jj = np.nonzero(np.triu(net.w, k=1))
            for i, j in zip(ii, jj):
                row = [net.year, ids[i], ids[j], int(net.w[i, j])]
                if scores_by_year is not None:
                    row.append(f"{scores_by_year[net.year].alpha[i, j]:.10g}")
                wr.writerow(row)


def write_binary_edgelist(series, path, meta=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ln in _meta_lines(meta):
            fh.write(ln + "\n")
        wr = csv.writer(fh)
        wr.writerow(["year", "iso3_a", "iso3_b"])
        for net in series:
            ids = net.actors.ids
            ii, jj = np.nonzero(np.triu(net.x, k=1))
            for i, j in zip(ii, jj):
                wr.writerow([net.year, ids[i], ids[j]])


def _read_edgelist(path, actors, weighted, years=None):
    rows = _open_rows(path)
    if not rows or rows[0][0] != "year":
        raise FileFormatError(f"{path}: missing edge-list header")
    data = {}
    for r, row in enumerate(rows[1:], 1):
        year = int(row[0])
        a, b = row[1], row[2]
        w = int(row[3]) if weighted else 1
        mat = data.setdefault(year, np.zeros((actors.n, actors.n), dtype=np.int64))
        i = _actor_index(actors, a, path, r)
        j = _actor_index(actors, b, path, r)
        if weighted:
            mat[i, j] += w
        else:
            mat[i, j] = 1
        mat[j, i] = mat[i, j]
    if years is None:
        years = sorted(data)
    nets = []
    for year in years:
        mat = data.get(year, np.zeros((actors.n, actors.n), dtype=np.int64))
        if weighted:
            nets.append(WeightedNetwork(actors, year, mat))
        else:
            nets.append(BinaryNetwork(actors, year, (mat > 0).astype(np.int8)))
    cls = WeightedNetSeries if weighted else BinaryNetSeries
    return cls(tuple(nets))


def read_weighted_edgelist(path, actors, years=None) -> WeightedNetSeries:
    return _read_edgelist(path, actors, weighted=True, years=years)


def read_binary_edgelist(path, actors, years=None) -> BinaryNetSeries:
    return _read_edgelist(path, actors, weighted=False, years=years)


def read_actor_covariate(path, name, actors, years, transform="none") -> ActorCovariate:
    """Long-format `iso3,year,value`; absent (actor, year) rows are missing."""
    rows = _open_rows(path)
    if rows and rows[0][0] == "iso3":
        rows = rows[1:]
    vals = np.full((actors.n, len(years)), np.nan)
    year_idx = {y: m for m, y in enumerate(years)}
    for row in rows:
        iso3, year, value = row[0], int(row[1]), row[2]
        if iso3 not in actors or year not in year_idx:
            continue
        if value != "":
            vals[actors.index(iso3), year_idx[year]] = float(value)
    return ActorCovariate.from_raw(name, vals, transform=transform)


def write_actor_covariate(cov: ActorCovariate, actors, years, path, meta=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ln in _meta_lines(meta):
            fh.write(ln + "\n")
        wr = csv.writer(fh)
        wr.writerow(["iso3", "year", "value"])
        for i, iso3 in enumerate(actors.ids):
            for m, year in enumerate(years[: cov.n_periods]):
                if not cov.missing[i, m]:
                    wr.writerow([iso3, year, f"{cov.values[i, m]:.10g}"])


def read_dyad_matrix(path, name, actors, transform="none") -> DyadCovariate:
    """Square matrix with ISO3 header row and leading label column."""
    rows = _open_rows(path)
    cols = [_actor_index(actors, lbl, path, 0) for lbl in rows[0][1:]]
    mat = np.zeros((actors.n, actors.n))
    for r, row in enumerate(rows[1:], 1):
        i = _actor_index(actors, row[0], path, r)
        for j, cell in zip(cols, row[1:]):
            mat[i, j] = float(cell)
    return DyadCovariate.from_raw(name, mat, transform=transform)


def write_dyad_matrix(cov: DyadCovariate, actors, path, meta=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ln in _meta_lines(meta):
            fh.write(ln + "\n")
        wr = csv.writer(fh)
        wr.writerow([""] + list(actors.ids))
        for i, iso3 in enumerate(actors.ids):
            wr.writerow([iso3] + [f"{v:.10g}" for v in cov.values[i]])


def export_graphml(net: BinaryNetwork, path, node_attrs=None, meta=None):
    """One GraphML file per wave with numeric node attributes."""
    g = nx.Graph()
    for k, v in sorted((meta or {}).items()):
        g.graph[k] = str(v)
    ids = net.actors.ids
    for i, iso3 in enumerate(ids):
        attrs = {"degree": int(net.x[i].sum())}
        for name, vec in sorted((node_attrs or {}).items()):
            attrs[name] = float(vec[i])
        g.add_node(iso3, **attrs)
    ii, jj = np.nonzero(np.triu(net.x, k=1))
    for i, j in zip(ii, jj):
        g.add_edge(ids[i], ids[j])
    nx.write_graphml(g, path)


def import_graphml(path, actors) -> BinaryNetwork:
    g = nx.read_graphml(path)
    x = np.zeros((actors.n, actors.n), dtype=np.int8)
    for a, b in g.edges():
        i, j = actors.index(a), actors.index(b)
        x[i, j] = x[j, i] = 1
    return BinaryNetwork(actors, 0, x)


# The fields of `result_<slug>.json`; the draws go to `.npy` files.
_RESULT_ARRAYS = ("theta", "se", "derivative", "covariance", "tratios",
                  "targets")
_RESULT_VALUES = ("rate_labels", "effect_labels", "conv_ratio", "iterations",
                  "seed", "ridge_applied")


def write_result_json(result, path, meta=None):
    """All EstimationResult fields except the simulation draws."""
    obj = {k: getattr(result, k).tolist() for k in _RESULT_ARRAYS}
    obj.update((k, getattr(result, k)) for k in _RESULT_VALUES)
    obj["meta"] = {k: str(v) for k, v in sorted((meta or {}).items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_result_json(path) -> EstimationResult:
    """The result `write_result_json` wrote, without draws."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        fields = {k: np.array(stored[k]) for k in _RESULT_ARRAYS}
        fields.update((k, stored[k]) for k in _RESULT_VALUES)
    except (ValueError, KeyError) as exc:
        raise FileFormatError(f"{path}: not an estimation result ({exc!r})") from None
    return EstimationResult(**fields)


def write_draws(result, stats_path, finals_path):
    """Phase-3 draws needed by the GOF stage (.npy, timestamp-free)."""
    finals = np.array([net.x for net in result.draws_final_networks],
                      dtype=np.int8)
    np.save(stats_path, result.draws_stats)
    np.save(finals_path, finals)


def read_draws(stats_path, finals_path, actors):
    stats = np.load(stats_path)
    finals = [BinaryNetwork(actors, 0, x) for x in np.load(finals_path)]
    return stats, finals
