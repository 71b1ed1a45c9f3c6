"""Output checks for one pass of the pipeline.

Each `check_<command>(out, fixture)` returns a list of problems with the
files that command wrote to `out` (empty when they are correct).
`digests(out)` hashes every output file, so that the passes of one run can
be compared byte for byte and a later change to the outputs shows up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

SLUG = "ST"
AUX_KINDS = ("degree_distribution", "triad_census")
GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"
# output file name prefix -> the command that writes it
PRODUCERS = {"weighted_": "ingest", "describe_": "ingest",
             "backbone_": "backbone", "trimming_": "backbone",
             "result_": "estimate", "draws_": "estimate",
             "estimates_": "estimate", "report_": "estimate",
             "gof_": "gof", "wave_": "export"}


def producer(filename):
    for prefix, command in PRODUCERS.items():
        if filename.startswith(prefix):
            return command
    return None


def digests(out):
    """sha256 of every file in `out`, by file name."""
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def _rows(path):
    """Data rows of a CSV with '#' metadata lines and a header."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _edges_by_year(path):
    _, rows = _rows(path)
    edges = {}
    for year, a, b in rows:
        edges.setdefault(int(year), []).append((a, b))
    return {y: sorted(e) for y, e in edges.items()}


def check_ingest(out, fixture):
    path = os.path.join(out, f"weighted_{SLUG}.csv")
    if not os.path.exists(path):
        return [f"missing {os.path.basename(path)}"]
    _, rows = _rows(path)
    got = {(int(y), a, b): int(w) for y, a, b, w in rows}
    if got == fixture.tally:
        return []
    missing = len(fixture.tally.keys() - got.keys())
    extra = len(got.keys() - fixture.tally.keys())
    wrong = sum(1 for k in got.keys() & fixture.tally.keys()
                if got[k] != fixture.tally[k])
    return [f"weighted S&T edge list differs from the generator's tally: "
            f"{missing} pairs missing, {extra} extra, {wrong} with another "
            "weight"]


def check_backbone(out, fixture):
    problems = []
    edges = _edges_by_year(os.path.join(out, f"backbone_{SLUG}.csv"))
    _, trimming = _rows(os.path.join(out, f"trimming_{SLUG}.csv"))
    for year, _, retained, _, _ in trimming:
        if int(retained) != len(edges.get(int(year), [])):
            problems.append(f"trimming table says {retained} retained edges "
                            f"in {year}, backbone has "
                            f"{len(edges.get(int(year), []))}")
    if fixture.panel_edges is not None:
        want = {y: e for y, e in fixture.panel_edges.items() if e}
        if edges != want:
            problems.append("backbone at alpha = 1 is not the generated panel")
    return problems


def _finite(value):
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_estimate(out, fixture):
    problems = []
    with open(os.path.join(out, f"result_{SLUG}.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    for key in ("theta", "se", "derivative", "covariance", "targets",
                "conv_ratio"):
        if not _finite(result[key]):
            problems.append(f"result {key} is not finite")
    for kind in ("stats", "finals"):
        draws = np.load(os.path.join(out, f"draws_{kind}_{SLUG}.npy"))
        if draws.shape[0] != fixture.n3:
            problems.append(f"{draws.shape[0]} {kind} draws, n3 = {fixture.n3}")
    return problems


def check_gof(out, fixture):
    problems = []
    for kind in AUX_KINDS:
        path = os.path.join(out, f"gof_{kind}_{SLUG}.csv")
        with open(path, encoding="utf-8") as fh:
            p = [float(ln.split("=", 1)[1]) for ln in fh
                 if ln.startswith("# p_value=")]
        if len(p) != 1 or not 0.0 <= p[0] <= 1.0:
            problems.append(f"{kind}: p-value {p} not one number in [0, 1]")
    return problems


def check_export(out, fixture):
    problems = []
    edges = _edges_by_year(os.path.join(out, f"backbone_{SLUG}.csv"))
    for year in fixture.years:
        root = ET.parse(os.path.join(out, f"wave_{SLUG}_{year}.graphml")).getroot()
        graph = root.find(f"{GRAPHML}graph")
        n_nodes = len(graph.findall(f"{GRAPHML}node"))
        n_edges = len(graph.findall(f"{GRAPHML}edge"))
        if n_edges != len(edges.get(year, [])) or n_nodes != len(fixture.actors):
            problems.append(f"wave {year}: {n_nodes} nodes, {n_edges} edges; "
                            f"backbone has {len(edges.get(year, []))} edges")
    return problems


CHECKS = {"ingest": check_ingest, "backbone": check_backbone,
          "estimate": check_estimate, "gof": check_gof,
          "export": check_export}
