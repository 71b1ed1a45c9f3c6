"""Batch pipeline commands: ingest, backbone, estimate, gof, export.

Every command takes a key=value config file; selected flags override file
values. Outputs embed the config hash and master seed so reruns with the
same configuration are byte-identical.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # The program entry loads the layers with the collector off (see `run`).
    gc.disable()

import argparse
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import backbone as bb
from . import fileio, gof, ingest
from .estimate import EstimationError, estimate as run_estimation, p_values
from .config import ConfigError, RunConfig, domain_slug
from .effects import EffectError, ModelSpec
from .panel import BinaryNetSeries, CovariateSet, PanelError, isolate_count
from .simulate import SimulationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
FLAGS = ("seed", "alpha", "outdir", "domain", "threads")  # --key overrides key

VALIDATION_ERRORS = (ConfigError, PanelError, EffectError, ingest.IngestError,
                     bb.BackboneError, fileio.FileFormatError, gof.GofError,
                     FileNotFoundError)
RUNTIME_ERRORS = (EstimationError, SimulationError, np.linalg.LinAlgError)


def _slug(cfg) -> str:
    """The slug of the one domain that a command other than ingest reads."""
    domains = cfg["domain"]
    if len(domains) != 1:
        raise ConfigError(f"config key 'domain': {cfg.values['domain']!r} "
                          f"names {len(domains)} domains; this command reads one")
    return domain_slug(domains[0])


def _outdir(cfg):
    out = cfg["outdir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_ingest(cfg: RunConfig) -> int:
    actors = fileio.read_actor_set(cfg["actors"])
    dictionary = fileio.read_dictionary(cfg["dictionary"])
    # one pass over the records for every domain
    by_domain = ingest.aggregate_domains(
        fileio.read_records(cfg["records"]), dictionary, actors, cfg["domain"],
        cfg["years"])
    out = _outdir(cfg)
    meta = cfg.meta()
    for domain, series in by_domain.items():
        slug = domain_slug(domain)
        fileio.write_weighted_edgelist(series, os.path.join(out, f"weighted_{slug}.csv"),
                                       meta=meta)
        rows = [(r.year, r.nodes, r.edges, f"{r.density:.3f}", r.isolates)
                for r in ingest.describe(series)]
        fileio.write_table(os.path.join(out, f"describe_{slug}.csv"),
                           ["year", "nodes", "edges", "density", "isolates"],
                           rows, meta)
        print(f"{domain}: {sum(r[2] for r in rows)} weighted edges over "
              f"{series.n_waves} years -> weighted_{slug}.csv")
    return EXIT_OK


def cmd_backbone(cfg: RunConfig) -> int:
    actors = fileio.read_actor_set(cfg["actors"])
    alpha = cfg["alpha"]
    slug = _slug(cfg)
    out = _outdir(cfg)
    meta = dict(cfg.meta(), alpha=alpha)
    weighted_path = cfg["weighted"] or os.path.join(out, f"weighted_{slug}.csv")
    series = fileio.read_weighted_edgelist(weighted_path, actors, cfg["years"])
    nets, rows = [], []
    # one year's scores at a time; only the `alpha` column keeps them
    alpha_by_year = {} if cfg["alpha_column"] else None
    for wnet in series:
        scores = bb.disparity_scores(wnet)
        net, report = bb.extract_backbone(wnet, alpha, scores)
        if alpha_by_year is not None:
            alpha_by_year[wnet.year] = scores.alpha
        nets.append(net)
        rows.append((wnet.year, report.positive_edges, report.retained_edges,
                     f"{report.trimming_fraction:.4f}",
                     f"{isolate_count(net) / actors.n:.4f}"))
    bseries = BinaryNetSeries(tuple(nets))
    fileio.write_binary_edgelist(bseries, os.path.join(out, f"backbone_{slug}.csv"),
                                 meta=meta)
    if alpha_by_year is not None:
        fileio.write_weighted_edgelist(series,
                                       os.path.join(out, f"scored_{slug}.csv"),
                                       meta=meta, alpha_by_year=alpha_by_year)
    fileio.write_table(os.path.join(out, f"trimming_{slug}.csv"),
                       ["year", "positive_edges", "retained_edges",
                        "trimming_fraction", "isolate_share"], rows, meta)
    print(f"backbone at alpha={alpha}: wrote backbone_{slug}.csv")
    return EXIT_OK


def _load_panel(cfg):
    actors = fileio.read_actor_set(cfg["actors"])
    slug = _slug(cfg)
    out = _outdir(cfg)
    panel_path = cfg["panel"] or os.path.join(out, f"backbone_{slug}.csv")
    panel = fileio.read_binary_edgelist(panel_path, actors, cfg["years"])
    return actors, panel, out, slug


def _load_covariates(cfg, panel, dyadic=True) -> CovariateSet:
    """The actor covariates over the panel's years, and the dyadic ones if
    `dyadic`: a command reads no covariate key or file it does not use."""
    covs = CovariateSet()
    for name, path, transform in cfg["actor_covariates"]:
        covs.add(fileio.read_actor_covariate(path, name, panel.actors,
                                             panel.years, transform=transform))
    for name, path, transform in cfg["dyad_covariates"] if dyadic else ():
        covs.add(fileio.read_dyad_matrix(path, name, panel.actors, transform=transform))
    return covs


def _converged(result, t_max) -> bool:
    return result.conv_ratio <= t_max    # False for a NaN ratio


def _report_lines(result, t_max):
    lines = ["Parameter                        Estimate", "-" * 48]
    for label, b, se, p, star in p_values(result):
        lines.append(f"{label:<32} {b:.4f}{star}")
        lines.append(f"{'':<32} ({se:.4f})")
    lines.append("-" * 48)
    lines.append(f"{'Convergence Ratio':<32} {result.conv_ratio:.4f}")
    lines.append(f"{'Iteration Steps':<32} {result.iterations}")
    if not _converged(result, t_max):
        lines.append(f"Not converged (ratio above t_max = {t_max:g})")
    return lines


def cmd_estimate(cfg: RunConfig) -> int:
    years = cfg["years"]
    if years is not None and len(years) < 2:
        raise ConfigError(f"config key 'years': {cfg.values['years']!r} names "
                          f"one year, {years[0]}; estimate needs at least 2")
    _, panel, out, slug = _load_panel(cfg)
    covs = _load_covariates(cfg, panel)
    model = ModelSpec(cfg["effects"], model_type=cfg["model_type"])
    options = cfg.estimation_options()
    result = run_estimation(panel, model, covs, options)
    meta = cfg.meta()
    fileio.write_result_json(result, os.path.join(out, f"result_{slug}.json"),
                             meta=meta)
    fileio.write_draws(result, os.path.join(out, f"draws_stats_{slug}.npy"),
                       os.path.join(out, f"draws_finals_{slug}.npy"))
    rows = [(label, f"{b:.4f}", f"{se:.4f}",
             f"{p:.6f}" if np.isfinite(p) else "", star)
            for label, b, se, p, star in p_values(result)]
    fileio.write_table(os.path.join(out, f"estimates_{slug}.csv"),
                       ["parameter", "estimate", "se", "p", "stars"], rows, meta)
    lines = _report_lines(result, options.t_max)
    report = fileio._meta_text(meta) + "\n".join(lines) + "\n"
    with open(os.path.join(out, f"report_{slug}.txt"), "w", encoding="utf-8") as fh:
        fh.write(report)
    print("\n".join(lines))
    if not _converged(result, options.t_max):
        print(f"warning: convergence ratio {result.conv_ratio:.4f} exceeds "
              f"t_max {options.t_max:g}; the estimates are not converged",
              file=sys.stderr)
    return EXIT_OK


def cmd_gof(cfg: RunConfig) -> int:
    actors, panel, out, slug = _load_panel(cfg)
    finals_path = os.path.join(out, f"draws_finals_{slug}.npy")
    if not os.path.exists(finals_path):
        raise gof.GofError(
            "no retained draws found; rerun the estimate command (draw "
            f"retention writes {os.path.basename(finals_path)})")
    # gof_test reads only the draws of a result
    draws = SimpleNamespace(
        draws_final_networks=fileio.read_draws(finals_path, actors))
    meta = cfg.meta()
    final_wave = panel.wave(panel.n_waves - 1)
    for kind in gof.AUX_KINDS:
        aux = gof.gof_test(draws, final_wave, kind)
        rows = [(lbl, f"{o:.10g}", f"{a:.10g}", f"{b:.10g}", f"{c:.10g}")
                for lbl, o, a, b, c in zip(aux.labels, aux.observed, aux.q05,
                                           aux.q50, aux.q95)]
        path = os.path.join(out, f"gof_{kind}_{slug}.csv")
        fileio.write_table(path, ["dimension", "observed", "q05", "q50", "q95"],
                           rows, meta, [("p_value", f"{aux.p:.6f}")])
        print(f"{kind}: p = {aux.p:.4f} -> {os.path.basename(path)}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    _, panel, out, slug = _load_panel(cfg)
    covs = _load_covariates(cfg, panel, dyadic=False)
    meta = cfg.meta()
    for m, net in enumerate(panel):
        attrs = {name: cov.filled(m) for name, cov in sorted(covs.actor.items())}
        path = os.path.join(out, f"wave_{slug}_{net.year}.graphml")
        fileio.export_graphml(net, path, node_attrs=attrs, meta=meta)
    print(f"exported {panel.n_waves} GraphML waves to {out}")
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "backbone": cmd_backbone,
    "estimate": cmd_estimate,
    "gof": cmd_gof,
    "export": cmd_export,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ircnet",
        description="Longitudinal co-authorship network pipeline: weighted "
                    "networks, disparity-filter backbones, actor-oriented "
                    "model estimation, goodness of fit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="key=value configuration file")
        for key in FLAGS:
            p.add_argument(f"--{key}", help=f"overrides the config's {key}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, {k: getattr(args, k) for k in FLAGS})
        cfg["threads"]   # no command reads it yet; every one checks it
        return COMMANDS[args.command](cfg)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run():
    """Program entry of `python -m ircnet.cli` and the `ircnet` script."""
    # Run as __main__, this module loaded the layers with the collector off.
    # Frozen, their objects are never scanned, neither by the command's own
    # collections nor by the one at exit; enabling before freezing would
    # start one young collection over all of them. `main` leaves the
    # collector alone: callers in one process (tests, bench/tracer.py) keep
    # their heap as it is.
    gc.freeze()
    gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    run()
