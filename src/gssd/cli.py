"""Command-line harness: `gssd <command> [flags]`.

Commands: sample-complexity, projection-complexity, noise-sweep, displacement,
compare.  Every run is reproducible from --seed; results go to --out (CSV for
experiments, JSON for compare) or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from .experiments import PAIR_MODES, ExperimentConfig, compare, rows_csv, run_experiment


def _list_of(cast):
    """The argparse type of a comma-separated list whose entries are parsed by ``cast``."""
    def parse(text: str) -> tuple:
        return tuple(cast(v.strip()) for v in text.split(",") if v.strip())
    parse.__name__ = f"{cast.__name__} list"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gssd",
        description="Smoothed sliced divergence benchmarks and dataset comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, text: str) -> argparse.ArgumentParser:
        """A subcommand with the shared flags; each flag's dest is the ExperimentConfig field it sets."""
        sp = sub.add_parser(name, help=text)
        # the command's config defaults, set before any flag so that every flag (and --help) picks them up
        sp.set_defaults(**{k: v for k, v in asdict(ExperimentConfig(command=name)).items() if k != "command"})
        if name != "compare":  # compare's data are its two input files, so it has no grid
            sp.add_argument("--dim", dest="dimensions", type=_list_of(int), metavar="D[,D..]",
                            help="dimension(s) of the sample space (default %(default)s)")
            sp.add_argument("--sizes", dest="sample_sizes", type=_list_of(int), metavar="N[,N..]",
                            help="sample-size grid (default %(default)s)")
            sp.add_argument("--runs", dest="num_runs", type=int, metavar="RUNS",
                            help="independent runs per grid point (default %(default)s)")
        sp.add_argument("--sigmas", type=_list_of(float), metavar="S[,S..]",
                        help="smoothing noise level(s) (default %(default)s)")
        sp.add_argument("--projections", dest="num_projections", type=int, metavar="PROJECTIONS",
                        help="projections L per estimate, L_ref for projection-complexity (default %(default)s)")
        sp.add_argument("--p", dest="order", type=float, metavar="P", help="divergence order p (default %(default)s)")
        sp.add_argument("--div", dest="divergences", type=_list_of(str), metavar="NAME[,NAME..]",
                        help="divergences: swd, mmd, skd (default %(default)s)")
        sp.add_argument("--epsilon", type=float, help="Sinkhorn entropic regularization (default %(default)s)")
        sp.add_argument("--bandwidth", type=float,
                        help="fixed MMD kernel bandwidth (default: mean pairwise distance per projection)")
        sp.add_argument("--sinkhorn-tol", type=float, help="Sinkhorn marginal tolerance (default %(default)s)")
        sp.add_argument("--sinkhorn-max-iter", type=int, help="Sinkhorn iteration cap (default %(default)s)")
        sp.add_argument("--seed", type=int, help="master seed, echoed into output headers (default %(default)s)")
        sp.add_argument("--out", type=str, help="output path (default: stdout)")
        sp.add_argument("--workers", type=int, help="worker threads across projections (default %(default)s)")
        return sp

    sp_sc = add_command("sample-complexity", "divergence vs sample size, same-distribution Gaussian sets")
    sp_sc.add_argument("--emit-bound", action="store_true",
                       help="append a theory-envelope row per configured dimension, sigma and size")
    sp_sc.add_argument("--vartheta", type=float, help="free bound parameter > sqrt(2) (default %(default)s)")
    sp_sc.add_argument("--c-p", type=float, help="calibration factor for the log-term (default %(default)s)")

    sp_pc = add_command("projection-complexity", "Monte Carlo error vs number of projections")
    sp_pc.add_argument("--l-grid", type=_list_of(int), metavar="L[,L..]",
                       help="projection grid, entries in [1, --projections] (default %(default)s)")

    sp_ns = add_command("noise-sweep", "divergence vs smoothing level, common random numbers")
    sp_ns.add_argument("--pair", choices=PAIR_MODES,
                       help="sample pair: same N(0,I) twice; shifted mean 2; scaled mean 1, scale 2 (default %(default)s)")

    sp_disp = add_command("displacement", "divergence between N(2*1,I) and N(s*1,I) over s")
    sp_disp.add_argument("--s-grid", type=_list_of(float), metavar="S[,S..]",
                         help="displacement grid (default %(default)s)")

    sp_cmp = add_command("compare", "estimate the divergence between two CSV matrices")
    sp_cmp.add_argument("file_x", help="first CSV matrix")
    sp_cmp.add_argument("file_y", help="second CSV matrix")

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the parsed flags; each flag's destination is its ExperimentConfig field."""
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "compare":
            text = json.dumps(compare(args.file_x, args.file_y, cfg), sort_keys=True, indent=2) + "\n"
        else:
            text = rows_csv(cfg, run_experiment(cfg))
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
