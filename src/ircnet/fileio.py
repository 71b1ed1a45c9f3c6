"""File formats: edge lists, covariates, dictionaries, records, GraphML.

All delimited files are UTF-8 CSV with a header row; lines starting with
'#' are metadata comments (config hash, seed) and are skipped on read. A
row that does not parse raises `FileFormatError("path:line: ...")`.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import networkx as nx

from .ingest import POLICIES, ArticleRecord, DisambiguationDictionary
from .panel import (ActorSet, BinaryNetwork, BinaryNetSeries, DyadCovariate,
                    ActorCovariate, WeightedNetwork, WeightedNetSeries)


class FileFormatError(ValueError):
    pass


def text_lines(path, error=FileFormatError) -> list:
    """The lines of a UTF-8 text file, as text-mode `readlines` gives them.
    A file that is not UTF-8 raises `error("path:line: ...")` naming the
    first line that does not decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
    # the line breaks of text mode; no byte of them occurs inside a
    # multi-byte UTF-8 character
    for lineno, line in enumerate(
            raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: not UTF-8 text: byte "
                        f"0x{line[exc.start]:02X} at column {exc.start + 1}") from None


def _rows(path):
    """(line number, fields) for each data line of a delimited file; blank
    and '#' lines are skipped but counted."""
    lines = text_lines(path)
    linenos = [k for k, ln in enumerate(lines, 1)
               if ln.strip() and ln[0] != "#"]
    yield from zip(linenos, csv.reader([lines[k - 1] for k in linenos]))


def _row_error(path, lineno, row, exc):
    """The error for a data row whose fields did not parse: too few of them
    (IndexError), an actor label not in the set (KeyError) or a number that
    is not one (ValueError)."""
    if isinstance(exc, IndexError):
        what = f"too few fields in {','.join(row)!r}"
    elif isinstance(exc, KeyError):
        what = f"unknown actor {exc.args[0]!r}"
    else:
        what = str(exc)
    return FileFormatError(f"{path}:{lineno}: {what}")


def _once(lines, key, path, lineno, what):
    """Note `key` at `lineno` in `lines` (key -> line); a key noted before
    is an error naming both lines."""
    first = lines.setdefault(key, lineno)
    if first != lineno:
        raise FileFormatError(f"{path}:{lineno}: a second {what}; the first "
                              f"is line {first}")


def _meta_text(meta, notes=()):
    """`# key=value` lines: the sorted `meta`, then `notes`."""
    return "".join(f"# {k}={v}\n"
                   for k, v in sorted((meta or {}).items()) + list(notes))


def write_table(path, header, rows, meta=None, notes=()):
    """CSV table after `# key=value` lines: the sorted `meta`, then `notes`.

    The `#` lines end in \\n, the header and rows in \\r\\n (`csv.writer`'s
    default)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_meta_text(meta, notes))
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def read_actor_set(path) -> ActorSet:
    """The first field of each data line, each label once."""
    lines = {}   # label -> line
    for lineno, row in _rows(path):
        label = row[0].strip()
        _once(lines, label, path, lineno, f"line for actor {label!r}")
    return ActorSet(tuple(lines))


def read_records(path):
    out = []
    for lineno, ln in enumerate(text_lines(path), 1):
        if ln.strip():
            try:
                out.append(ArticleRecord.from_json(ln))
            except (ValueError, TypeError) as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return out


def read_dictionary(path) -> DisambiguationDictionary:
    """Two-column delimited raw-name -> ISO3; optional '# policy=...' header.
    An empty name or code, or a name given twice, is an error naming its
    line (and the first)."""
    policy = "drop"
    mapping, lines = {}, {}   # raw name -> code, and -> line
    for lineno, ln in enumerate(text_lines(path), 1):
        ln = ln.rstrip("\n")
        if not ln.strip():
            continue
        if ln.startswith("#"):
            body = ln.lstrip("#").strip()
            if body.startswith("policy"):
                key, _, policy = (part.strip() for part in body.partition("="))
                if key != "policy" or policy not in POLICIES:
                    raise FileFormatError(f"{path}:{lineno}: expected '# policy=drop'"
                                          f" or '# policy=error', got {ln!r}")
            continue
        parts = [part.strip() for part in
                 (ln.split("\t") if "\t" in ln else ln.split(",", 1))]
        if len(parts) != 2 or not all(parts):
            raise FileFormatError(f"{path}:{lineno}: expected a raw name and "
                                  f"an ISO3 code, got {ln!r}")
        _once(lines, parts[0], path, lineno, f"entry for {parts[0]!r}")
        mapping[parts[0]] = parts[1]
    return DisambiguationDictionary(mapping, policy)


def write_weighted_edgelist(series, path, meta=None, scores_by_year=None):
    """`year,iso3_a,iso3_b,weight` rows (iso3_a < iso3_b), optional alpha col."""
    def rows():
        for net in series:
            ids = net.actors.ids
            for i, j in zip(*np.nonzero(np.triu(net.w, k=1))):
                row = [net.year, ids[i], ids[j], int(net.w[i, j])]
                if scores_by_year is not None:
                    row.append(f"{scores_by_year[net.year].alpha[i, j]:.10g}")
                yield row

    header = ["year", "iso3_a", "iso3_b", "weight"]
    if scores_by_year is not None:
        header.append("alpha")
    write_table(path, header, rows(), meta)


def write_binary_edgelist(series, path, meta=None):
    rows = ([net.year, net.actors.ids[i], net.actors.ids[j]]
            for net in series for i, j in zip(*np.nonzero(np.triu(net.x, k=1))))
    write_table(path, ["year", "iso3_a", "iso3_b"], rows, meta)


def _read_edgelist(path, actors, weighted, years=None):
    rows = _rows(path)
    lineno, header = next(rows, (1, [""]))
    if header[0] != "year":
        raise FileFormatError(f"{path}:{lineno}: missing edge-list header")
    n = actors.n
    data = {}
    for lineno, row in rows:
        try:
            year = int(row[0])
            i, j = actors.index(row[1]), actors.index(row[2])
            w = int(row[3]) if weighted else 1
        except (IndexError, KeyError, ValueError) as exc:
            raise _row_error(path, lineno, row, exc) from None
        if i == j or w < 0:
            what = f"self-loop at {row[1]}" if i == j else f"negative weight {w}"
            raise FileFormatError(f"{path}:{lineno}: {what}")
        mat = data.get(year)
        if mat is None:
            mat = data[year] = np.zeros((n, n), dtype=np.int64)
        if weighted:
            mat[i, j] += w
        else:
            mat[i, j] = 1
        mat[j, i] = mat[i, j]
    if years is None:
        years = sorted(data)
    nets = []
    for year in years:
        mat = data.get(year, np.zeros((n, n), dtype=np.int64))
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
    """Long-format `iso3,year,value`; absent (actor, year) rows and empty
    values are missing.

    Rows of actors outside the set, the `iso3` header among them, and of
    years outside `years` are skipped. A second row for one (actor, year)
    or a value that is not finite is an error naming its line."""
    vals = np.full((actors.n, len(years)), np.nan)
    year_idx = {y: m for m, y in enumerate(years)}
    seen = {}   # (actor, year) -> line
    for lineno, row in _rows(path):
        if row[0] not in actors:
            continue
        try:
            year, cell = int(row[1]), row[2]
            value = float(cell) if cell else np.nan
        except (IndexError, ValueError) as exc:
            raise _row_error(path, lineno, row, exc) from None
        if cell and not math.isfinite(value):
            raise FileFormatError(f"{path}:{lineno}: value {cell!r} is not finite")
        _once(seen, (row[0], year), path, lineno, f"row for {row[0]} in {year}")
        if year in year_idx:
            vals[actors.index(row[0]), year_idx[year]] = value
    return ActorCovariate.from_raw(name, vals, transform=transform)


def read_dyad_matrix(path, name, actors, transform="none") -> DyadCovariate:
    """Square matrix with ISO3 header row and leading label column; every
    actor of the set needs one row and one column, and the matrix must be
    symmetric (`np.isclose`, as `DyadCovariate` checks it)."""
    rows = _rows(path)
    lineno_header, header = next(rows, (1, None))
    if header is None:
        raise FileFormatError(f"{path}:1: empty file, expected a header row "
                              "of ISO3 codes")
    try:
        cols = [actors.index(lbl) for lbl in header[1:]]
    except KeyError as exc:
        raise _row_error(path, lineno_header, header, exc) from None
    if len(set(cols)) < len(cols):   # columns count from 1, the labels' first
        col = next(c for c, k in enumerate(cols) if k in cols[:c])
        raise FileFormatError(f"{path}:{lineno_header}: column {col + 2} repeats "
                              f"{header[col + 1]!r}, the label of column "
                              f"{cols.index(cols[col]) + 2}")
    lines, values = {}, []   # actor -> line of its row; the rows' values
    for lineno, row in rows:
        if len(row) != len(header):
            raise FileFormatError(f"{path}:{lineno}: expected {len(header)} "
                                  f"fields, got {len(row)}")
        try:
            k = actors.index(row[0])
            values.append([float(cell) for cell in row[1:]])
        except (KeyError, ValueError) as exc:
            raise _row_error(path, lineno, row, exc) from None
        if not all(map(math.isfinite, values[-1])):
            cell = next(c for c, v in zip(row[1:], values[-1])
                        if not math.isfinite(v))
            raise FileFormatError(f"{path}:{lineno}: value {cell!r} is not finite")
        _once(lines, k, path, lineno, f"row for {row[0]!r}")
    for where, present, at in (("column", cols, f":{lineno_header}"),
                               ("row", lines, "")):
        missing = sorted(set(range(actors.n)) - set(present))
        if missing:
            raise FileFormatError(
                f"{path}{at}: no {where} for "
                + ", ".join(actors.ids[k] for k in missing))
    labels = list(lines)
    mat = np.zeros((actors.n, actors.n))
    mat[np.ix_(labels, cols)] = values
    # the first cell in file order whose mirror cell differs
    asym = np.argwhere(~np.isclose(mat, mat.T)[np.ix_(labels, cols)])
    if asym.size:
        r, c = asym[0]
        i, j = labels[r], cols[c]
        a, b = actors.ids[i], actors.ids[j]
        raise FileFormatError(f"{path}:{lines[i]}: cell ({a}, {b}) is "
                              f"{mat[i, j]:.10g} but cell ({b}, {a}) is "
                              f"{mat[j, i]:.10g}; the matrix must be symmetric")
    return DyadCovariate.from_raw(name, mat, transform=transform)


def _xml_attr(text):
    """`text` as an XML attribute value, escaped as ElementTree escapes it."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _xml_text(text):
    """`text` as XML character data, escaped as ElementTree escapes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
    'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n')


def export_graphml(net: BinaryNetwork, path, node_attrs=None, meta=None):
    """One GraphML file per wave: the sorted `meta` as graph data, and per
    node its `degree` and the `node_attrs` values (sorted by name; one named
    `degree` takes the degree's place).

    The bytes are those networkx's ElementTree writer (`write_graphml_xml`)
    writes for the graph with these nodes, ties and data: key ids in
    first-use order, keys written highest id first, floats as `repr`, a
    meta key `id` as the graph's id attribute."""
    graph = {str(k): str(v) for k, v in sorted((meta or {}).items())}
    graph_id = graph.pop("id", None)
    columns = {"degree": ("long", net.x.sum(axis=1, dtype=np.int64).tolist())}
    for name, vec in sorted((node_attrs or {}).items()):
        columns[name] = ("double", np.asarray(vec, dtype=float).tolist())
    if not net.actors.n:    # a key is written only if some element uses it
        columns = {}
    keys = ([(k, "graph", "string") for k in graph]
            + [(name, "node", kind) for name, (kind, _) in columns.items()])
    ids = [_xml_attr(a) for a in net.actors.ids]
    # `%s` writes an int as str and a float as repr
    node = ('    <node id="%s">\n'
            + "".join(f'      <data key="d{k}">%s</data>\n'
                      for k in range(len(graph), len(keys)))
            + "    </node>\n")
    body = [node % (i, *row) for i, row in
            zip(ids, zip(*(values for _, values in columns.values())))]
    ii, jj = np.nonzero(np.triu(net.x, k=1))
    body.extend(f'    <edge source="{ids[i]}" target="{ids[j]}" />\n'
                for i, j in zip(ii.tolist(), jj.tolist()))
    # ElementTree writes an element without text or children as `<x />`
    body.extend(f'    <data key="d{k}">{_xml_text(v)}</data>\n' if v
                else f'    <data key="d{k}" />\n'
                for k, v in enumerate(graph.values()))
    tag = '<graph edgedefault="undirected"' + (
        "" if graph_id is None else f' id="{_xml_attr(graph_id)}"')
    text = "".join([
        _GRAPHML_HEAD,
        *(f'  <key id="d{k}" for="{scope}" attr.name="{_xml_attr(name)}" '
          f'attr.type="{kind}" />\n'
          for k, (name, scope, kind) in reversed(list(enumerate(keys)))),
        *([f"  {tag}>\n", *body, "  </graph>\n"] if body else [f"  {tag} />\n"]),
        "</graphml>\n"])
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace",
              newline="\n") as fh:
        fh.write(text)


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


def write_draws(result, stats_path, finals_path):
    """Phase-3 draws needed by the GOF stage (.npy, timestamp-free)."""
    finals = np.array([net.x for net in result.draws_final_networks],
                      dtype=np.int8)
    np.save(stats_path, result.draws_stats)
    np.save(finals_path, finals)


def read_draws(finals_path, actors) -> list:
    """The phase-3 final networks `write_draws` wrote, which `gof` tests."""
    try:
        finals = np.load(finals_path)
    except (EOFError, ValueError) as exc:   # truncated, or not .npy
        raise FileFormatError(f"{finals_path}: not a draws file: {exc}") from None
    if finals.shape[1:] != (actors.n, actors.n):
        raise FileFormatError(f"{finals_path}: expected draws of "
                              f"{actors.n}x{actors.n} networks, got an array "
                              f"of shape {finals.shape}")
    return [BinaryNetwork(actors, 0, x) for x in finals]
