"""Layer tracing for one ircnet CLI command, run in-process.

Run as a child process:

    python bench/tracer.py SPANS_JSON COMMAND CONFIG

It imports `ircnet.cli`, wraps the public functions of every `ircnet`
module from outside the package, runs `ircnet.cli.main([COMMAND, CONFIG])`
and writes the spans and counts to SPANS_JSON when the command ends. The
command's output files are the same as in an untraced run; the benchmark
checks that.

Each wrapped call records its name, start, end and parent span. Calls made
hundreds of thousands of times per command (`HOT`) are summed per name
instead of kept as spans. Every wrapped call adds its duration to its
parent's child time, so a span's self time is its duration minus its
children's, and the self times of all layers add up to the command's span.
`simulate.ministep` is only counted: wrapping its ~85 us body would cost
more than the count is worth, so its time stays in `simulate_period`'s self
time, together with the effect change rows it evaluates.

`summarize` turns the dumps of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

T_START = time.perf_counter()

LAYERS = ("cli", "config", "fileio", "ingest", "panel", "backbone", "effects",
          "simulate", "estimate", "gof")
COMMANDS = ("ingest", "backbone", "estimate", "gof", "export")
# Layers every command of every workload runs; a per-command self time is
# reported for exactly these, so none of them reads 0.
COMMAND_LAYERS = {
    "ingest": ("cli", "config", "fileio", "ingest", "panel"),
    "backbone": ("cli", "config", "fileio", "backbone", "panel"),
    "estimate": ("cli", "config", "fileio", "panel", "effects", "simulate",
                 "estimate"),
    "gof": ("cli", "config", "fileio", "panel", "gof"),
    "export": ("cli", "config", "fileio", "panel"),
}
HOT = {"panel.ActorSet.index", "ingest.disambiguate", "ingest.expand_pairs"}
# Called once per ministep per structural effect: left unwrapped (see above).
UNWRAPPED = {"effects.change_row"}
METHODS = {"panel": {"ActorSet": ("index",)},
           "config": {"RunConfig": ("load", "estimation_options", "meta")}}


class Tracer:
    """Spans and counts of one command, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, self_s]
        self.hot = {}            # name -> [calls, total_s, self_s]
        self.counts = {}
        self.stack = []          # open frames: [span index or None, start, child_s]

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, hot=False):
        spans, stack, hot_sums = self.spans, self.stack, self.hot
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hot:
                frame = [None, perf(), 0.0]
            else:
                parent = stack[-1][0] if stack else None
                frame = [len(spans), perf(), 0.0]
                spans.append([name, frame[1], None, parent, None])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                if hot:
                    s = hot_sums.setdefault(name, [0, 0.0, 0.0])
                    s[0] += 1
                    s[1] += dur
                    s[2] += dur - frame[2]
                else:
                    span = spans[frame[0]]
                    span[2] = end
                    span[4] = dur - frame[2]
        return traced

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans, hot=self.hot,
                           counts=self.counts), fh)


def _modules():
    """The ircnet package and its submodules, as module objects."""
    pkg = importlib.import_module("ircnet")
    # `import ircnet.estimate` would give the function the package rebinds
    # under that name; import_module returns the module itself.
    return pkg, {layer: importlib.import_module(f"ircnet.{layer}")
                 for layer in LAYERS}


def _rebind(namespaces, original, replacement):
    """Point every name bound to `original` at `replacement`: ircnet modules
    import functions by name (`cli.run_estimation`, `estimate.simulate_panel`),
    so patching only the defining module would miss those call sites."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def _count_aggregate(tracer, fn):
    from ircnet.ingest import AggregationReport

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        report = kwargs.setdefault("report", AggregationReport())
        result = fn(*args, **kwargs)
        tracer.count("ingest.records_scanned", report.records_seen)
        tracer.count("ingest.records_used", report.records_used)
        return result
    return counted


def _count_ministep(tracer, fn):
    counts = tracer.counts
    counts.setdefault("simulate.ministeps", 0)
    counts.setdefault("simulate.toggles", 0)

    @functools.wraps(fn)
    def counted(state, *args, **kwargs):
        steps, ties = state.steps, state.deg.sum()
        result = fn(state, *args, **kwargs)
        if state.steps != steps:
            counts["simulate.ministeps"] += 1
            if state.deg.sum() != ties:
                counts["simulate.toggles"] += 1
        return result
    return counted


OBSERVED = {"backbone.extract_backbone", "estimate.phase1_derivative",
            "estimate.estimate", "gof.gof_test"}


def _observe(tracer, name, fn):
    """Counts read off a call's arguments or result, outside its span."""
    @functools.wraps(fn)
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        if name == "backbone.extract_backbone":
            tracer.count("backbone.retained_edges", result[1].retained_edges)
        elif name == "estimate.phase1_derivative":
            tracer.count("estimate.phase1_replicates", args[4].n1)
        elif name == "estimate.estimate":
            tracer.count("estimate.conv_ratio", result.conv_ratio)
        elif name == "gof.gof_test":
            tracer.count("gof.draws", len(args[0].draws_final_networks))
        return result
    return observed


def install(tracer):
    """Wrap the public functions of every ircnet layer; returns cli.main."""
    pkg, modules = _modules()
    namespaces = [pkg] + list(modules.values())
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            if layer == "cli":
                continue  # the command span below is the cli layer
            if name == "simulate.ministep":
                wrapped = _count_ministep(tracer, fn)
            else:
                inner = fn
                if name == "ingest.aggregate":
                    inner = _count_aggregate(tracer, fn)
                wrapped = tracer.wrap(name, inner, hot=name in HOT)
                if name in OBSERVED:
                    wrapped = _observe(tracer, name, wrapped)
            _rebind(namespaces, fn, wrapped)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        tracer.wrap(name, raw.__func__, hot=name in HOT)))
                else:
                    setattr(cls, meth, tracer.wrap(name, raw, hot=name in HOT))
    return modules["cli"].main


def main(argv):
    out_path, command, config = argv
    import ircnet.cli  # noqa: F401  (timed as the command's import)
    t_imported = time.perf_counter()
    tracer = Tracer()
    cli_main = install(tracer)
    run = tracer.wrap(f"cli.{command}", cli_main)
    code = run([command, config])
    tracer.dump(out_path, command=command, exit_code=code,
                import_s=t_imported - T_START)
    return code


# ---------------------------------------------------------------- summary


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_us"):
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_scanned")):
        return "ratio"
    return "count"


def _layer(name):
    return name.split(".", 1)[0]


def _nearest(spans, k, names):
    """Name of the closest ancestor of span k among `names`, else None."""
    parent = spans[k][3]
    while parent is not None:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def command_accounts(dump, wall_s):
    """Self time per layer of one traced command, and what is left over.

    `other_s` is the traced wall time minus the import, minus every layer's
    self time: interpreter start and exit and the tracer's set-up. It must
    not be negative.
    """
    selfs = dict.fromkeys(LAYERS, 0.0)
    for name, _, _, _, self_s in dump["spans"]:
        selfs[_layer(name)] += self_s
    for name, (_, _, self_s) in dump["hot"].items():
        selfs[_layer(name)] += self_s
    other = wall_s - dump["import_s"] - sum(selfs.values())
    return selfs, other


def summarize(dumps, walls):
    """Per-layer metrics of one traced pass: `dumps` and `walls` map each
    command to its span dump and its wall time measured from outside."""
    spans = []
    for c in COMMANDS:
        base = len(spans)
        spans += [[name, start, end, None if parent is None else parent + base,
                   self_s]
                  for name, start, end, parent, self_s in dumps[c]["spans"]]
    hot = {}
    counts = {}
    for c in COMMANDS:
        for name, vals in dumps[c]["hot"].items():
            acc = hot.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i]
        for name, v in dumps[c]["counts"].items():
            counts[name] = counts.get(name, 0) + v

    def total(*names):
        return sum(s[2] - s[1] for s in spans if s[0] in names)

    def calls(*names):
        return sum(1 for s in spans if s[0] in names)

    m = {}
    m["ingest.aggregate_s"] = total("ingest.aggregate")
    m["ingest.aggregate_calls"] = calls("ingest.aggregate")
    m["ingest.records_scanned"] = counts.get("ingest.records_scanned", 0)
    m["ingest.records_used"] = counts.get("ingest.records_used", 0)
    m["ingest.used_per_scanned"] = (m["ingest.records_used"]
                                    / max(m["ingest.records_scanned"], 1))
    idx_calls, idx_total, _ = hot.get("panel.ActorSet.index", [0, 0.0, 0.0])
    m["panel.actorset_index_calls"] = idx_calls
    m["panel.actorset_index_us"] = 1e6 * idx_total / max(idx_calls, 1)

    m["fileio.read_records_s"] = total("fileio.read_records")
    m["fileio.read_weighted_edgelist_s"] = total("fileio.read_weighted_edgelist")
    m["fileio.read_binary_edgelist_s"] = total("fileio.read_binary_edgelist")
    m["fileio.read_covariates_s"] = total("fileio.read_actor_covariate",
                                          "fileio.read_dyad_matrix")
    m["fileio.write_edgelists_s"] = total("fileio.write_weighted_edgelist",
                                          "fileio.write_binary_edgelist")
    m["fileio.export_graphml_ms_per_wave"] = (
        1e3 * total("fileio.export_graphml")
        / max(calls("fileio.export_graphml"), 1))
    m["fileio.read_draws_s"] = total("fileio.read_draws")
    m["fileio.write_draws_s"] = total("fileio.write_draws")

    years = max(calls("backbone.disparity_scores"), 1)
    m["backbone.disparity_ms_per_year"] = (
        1e3 * total("backbone.disparity_scores") / years)
    m["backbone.extract_ms_per_year"] = (
        1e3 * total("backbone.extract_backbone")
        / max(calls("backbone.extract_backbone"), 1))
    m["backbone.retained_edges"] = counts.get("backbone.retained_edges", 0)

    ministeps = counts.get("simulate.ministeps", 0)
    periods = calls("simulate.simulate_period")
    panels = calls("simulate.simulate_panel")
    m["simulate.ministeps"] = ministeps
    m["simulate.ministep_us"] = (1e6 * total("simulate.simulate_period")
                                 / max(ministeps, 1))
    m["simulate.period_ms"] = 1e3 * total("simulate.simulate_period") / max(periods, 1)
    m["simulate.panel_ms"] = 1e3 * total("simulate.simulate_panel") / max(panels, 1)
    m["simulate.toggle_ratio"] = counts.get("simulate.toggles", 0) / max(ministeps, 1)

    m["effects.contrib_build_calls"] = calls("effects.dyadic_contribution")
    m["effects.contrib_build_s"] = total("effects.dyadic_contribution")
    m["effects.target_statistics_s"] = total("effects.target_statistics")

    phases = ("estimate.phase1_derivative", "estimate.phase2_update",
              "estimate.phase3_finalize")
    sims_in = dict.fromkeys(phases, 0)
    for k, s in enumerate(spans):
        if s[0] == "simulate.simulate_panel":
            owner = _nearest(spans, k, phases)
            if owner:
                sims_in[owner] += 1
    p1, p2, p3 = phases
    phase1_s = total(p1)
    p1_sims = sims_in[p1]
    # replicates: n1 per phase-1 call, each (p + 1) panel simulations
    replicates = counts.get("estimate.phase1_replicates", 0)
    m["estimate.phase1_s"] = phase1_s
    m["estimate.phase1_panel_sims"] = p1_sims
    m["estimate.phase1_replicate_ms"] = 1e3 * phase1_s / max(replicates, 1)
    m["estimate.phase2_iterations"] = sims_in[p2]
    m["estimate.phase2_iteration_ms"] = 1e3 * total(p2) / max(sims_in[p2], 1)
    nested_p1 = sum(s[2] - s[1] for k, s in enumerate(spans)
                    if s[0] == p1 and _nearest(spans, k, (p3,)))
    m["estimate.phase3_draw_ms"] = (1e3 * (total(p3) - nested_p1)
                                    / max(sims_in[p3], 1))
    m["estimate.restarts"] = calls(p2) - calls("estimate.estimate")
    m["estimate.panel_sims_total"] = panels
    m["estimate.conv_ratio"] = counts.get("estimate.conv_ratio", 0.0)

    m["gof.test_ms_per_aux"] = 1e3 * total("gof.gof_test") / max(calls("gof.gof_test"), 1)
    m["gof.draws"] = counts.get("gof.draws", 0) / max(calls("gof.gof_test"), 1)

    cli_self = 0.0
    for c in COMMANDS:
        selfs, other = command_accounts(dumps[c], walls[c])
        cli_self += selfs["cli"]
        m[f"cmd.{c}.wall_s"] = walls[c]
        m[f"cmd.{c}.import_s"] = dumps[c]["import_s"]
        for layer in COMMAND_LAYERS[c]:
            m[f"cmd.{c}.{layer}_self_s"] = selfs[layer]
        m[f"cmd.{c}.other_s"] = other
    m["cli.self_s"] = cli_self
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
