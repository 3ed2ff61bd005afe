"""Command-line harness: `gssd <command> [flags]`.

Commands: sample-complexity, projection-complexity, noise-sweep, displacement,
compare.  Every run is reproducible from --seed; results go to --out (CSV for
experiments, JSON for compare) or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .experiments import (
    RUNNERS,
    ExperimentConfig,
    compare,
    write_rows_csv,
)


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _name_list(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gssd",
        description="Smoothed sliced divergence benchmarks and dataset comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--dim", type=_int_list, default=(50,), metavar="D[,D..]",
                        help="dimension(s) of the sample space (default 50)")
        sp.add_argument("--sizes", type=_int_list, default=(100, 400, 1600, 6400),
                        metavar="N[,N..]", help="sample-size grid")
        sp.add_argument("--sigmas", type=_float_list, default=(3.0,), metavar="S[,S..]",
                        help="smoothing noise level(s)")
        sp.add_argument("--runs", type=int, default=20, help="independent runs per grid point (default 20)")
        sp.add_argument("--projections", type=int, default=50, help="projections L per estimate (default 50)")
        sp.add_argument("--p", type=float, default=2.0, help="divergence order p (default 2)")
        sp.add_argument("--div", type=_name_list, default=("swd",), metavar="NAME[,NAME..]",
                        help="divergences: swd, mmd, skd (default swd)")
        sp.add_argument("--epsilon", type=float, default=0.1, help="Sinkhorn entropic regularization (default 0.1)")
        sp.add_argument("--bandwidth", type=float, default=None,
                        help="fixed MMD kernel bandwidth (default: mean pairwise distance per projection)")
        sp.add_argument("--sinkhorn-tol", type=float, default=1e-9, help="Sinkhorn marginal tolerance (default 1e-9)")
        sp.add_argument("--sinkhorn-max-iter", type=int, default=1000, help="Sinkhorn iteration cap (default 1000)")
        sp.add_argument("--seed", type=int, default=42, help="master seed, echoed into output headers (default 42)")
        sp.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        sp.add_argument("--workers", type=int, default=1, help="worker threads across projections (default 1)")

    sp_sc = sub.add_parser("sample-complexity", help="divergence vs sample size, same-distribution Gaussian sets")
    add_common(sp_sc)
    sp_sc.add_argument("--emit-bound", action="store_true",
                       help="append theory-envelope rows for the configured dimensions")
    sp_sc.add_argument("--vartheta", type=float, default=2.0, help="free bound parameter > sqrt(2) (default 2)")
    sp_sc.add_argument("--c-p", type=float, default=1.0, help="calibration factor for the log-term (default 1)")

    sp_pc = sub.add_parser("projection-complexity", help="Monte Carlo error vs number of projections")
    add_common(sp_pc)
    sp_pc.set_defaults(sizes=(500,))
    sp_pc.add_argument("--l-ref", type=int, default=10_000, help="reference projection count (default 10000)")
    sp_pc.add_argument("--l-grid", type=_int_list, default=(50, 100, 200, 500, 1000),
                       metavar="L[,L..]", help="projection grid (default 50,100,200,500,1000)")

    sp_ns = sub.add_parser("noise-sweep", help="divergence vs smoothing level, common random numbers")
    add_common(sp_ns)
    sp_ns.set_defaults(sigmas=(0.0, 1.0, 3.0, 5.0, 15.0))
    sp_ns.add_argument("--pair", choices=("same", "shifted", "scaled"), default="same",
                       help="sample pair: same N(0,I) twice; shifted mean 2; scaled mean 1, scale 2")

    sp_disp = sub.add_parser("displacement", help="divergence between N(2*1,I) and N(s*1,I) over s")
    add_common(sp_disp)
    sp_disp.set_defaults(sizes=(500,))
    sp_disp.add_argument("--s-grid", type=_float_list,
                         default=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                         metavar="S[,S..]", help="displacement grid (default 0..4 step 0.5)")

    sp_cmp = sub.add_parser("compare", help="estimate the divergence between two CSV matrices")
    add_common(sp_cmp)
    sp_cmp.add_argument("file_x", help="first CSV matrix")
    sp_cmp.add_argument("file_y", help="second CSV matrix")

    return parser


# flag destination -> ExperimentConfig field, where the names differ
_FIELDS = {"dim": "dimensions", "sizes": "sample_sizes", "runs": "num_runs", "div": "divergences",
           "projections": "num_projections", "p": "order"}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the parsed flags; fields without a flag in this command keep their defaults."""
    names = {f.name for f in fields(ExperimentConfig)}
    kw = {_FIELDS.get(k, k): v for k, v in vars(args).items()}
    return ExperimentConfig(**{k: v for k, v in kw.items() if k in names})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "compare":
            report = compare(args.file_x, args.file_y, cfg)
            text = json.dumps(report, sort_keys=True, indent=2)
            if cfg.out:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return 0
        rows = RUNNERS[args.command](cfg)
        if cfg.out:
            write_rows_csv(cfg.out, cfg, rows)
        else:
            from .experiments import CSV_COLUMNS

            print(f"# seed = {cfg.seed}")
            print(",".join(CSV_COLUMNS))
            for r in rows:
                print(r.as_csv())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
