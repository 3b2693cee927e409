"""Command-line harness: experiments, sampling, entropy, formula evaluation.

Exit codes: 0 = all metrics PASS, 2 = some metric FAIL, 1 = execution error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .. import entropy as en
from .. import gibbs, logic
from ..matcore import Seed
from .config import ConfigError, RunConfig
from .experiments import RUNNERS, run_experiment

EXPERIMENT_COMMANDS = tuple(RUNNERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freegeo",
        description="matrix-tuple information-geometry laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENT_COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _common_flags(p)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="format of the metrics file written to --out")

    p = sub.add_parser("eval", help="evaluate a formula on an ensemble or tuple file")
    p.add_argument("--formula", required=True)
    p.add_argument("--in", dest="infile", required=True, help="FIGE ensemble file")
    p.add_argument("--index", type=int, default=None, help="evaluate a single tuple")
    p.add_argument("--starts", type=int, default=8,
                   help="ascents per quantifier whose body is not certified concave in its "
                        "variable (convex for inf); a certified one runs one ascent")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sample", help="sample a Gibbs ensemble to a FIGE file")
    _common_flags(p)

    p = sub.add_parser("entropy", help="normalized Gibbs entropy by thermodynamic integration")
    _common_flags(p)

    p = sub.add_parser("w2", help="Wasserstein distance between two ensemble files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=("exact", "sinkhorn"), default="exact")

    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=str, default=None, help="output directory")


def _load_config(command: str, args) -> RunConfig:
    overrides = {"seed": args.seed}
    if args.config:
        return RunConfig.from_file(args.config, experiment=command, overrides=overrides)
    return RunConfig.from_dict(command, {}, overrides=overrides)


def _cmd_experiment(command: str, args) -> int:
    cfg = _load_config(command, args)
    report = run_experiment(cfg)
    for line in report.summary_lines():
        print(line)
    if args.out:
        path = report.save(args.out, fmt=args.format)
        print(f"report written to {path}")
    return 0 if report.passed else 2


def _build_potential(cfg: RunConfig) -> gibbs.Potential:
    if cfg["potential"]:
        return gibbs.Potential.from_formula(cfg["potential"], cfg["c"])
    return gibbs.Potential.quadratic(cfg["c"], cfg["m"])


def _cmd_sample(args) -> int:
    cfg = _load_config("sample", args)
    pot = _build_potential(cfg)
    ens = gibbs.sample_gibbs(pot, cfg["n"], cfg["m"], cfg["count"],
                             gibbs.SamplerOptions(seed=Seed(cfg["seed"])))
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "ensemble.fige"
    gibbs.save_ensemble(ens, path)
    print(json.dumps({"file": str(path), "n": ens.n, "m": ens.m, "count": ens.count,
                      "diagnostics": ens.diagnostics}, default=float))
    return 0


def _cmd_entropy(args) -> int:
    cfg = _load_config("entropy", args)
    pot = _build_potential(cfg)
    rep = en.gibbs_entropy(pot, cfg["n"], cfg["m"], seed=Seed(cfg["seed"]),
                           nodes=cfg["ti_nodes"], samples_per_node=cfg["samples_per_node"])
    print(json.dumps(rep.to_json(), indent=2, default=float))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "entropy_report.json").write_text(
            json.dumps(rep.to_json(), indent=2, default=float))
    return 0


def _load_tuples(path) -> gibbs.Ensemble:
    """A FIGE ensemble that holds at least one tuple; an empty one is a ValueError."""
    ens = gibbs.load_ensemble(path)
    if ens.count == 0:
        raise ValueError(f"{path}: the ensemble holds no tuples (count 0)")
    return ens


def _cmd_eval(args) -> int:
    from ..logic import EvalOptions

    ens = _load_tuples(args.infile)
    ast = logic.parse(args.formula)
    opts = EvalOptions(starts=args.starts, iters=args.iters, seed=Seed(args.seed))
    if args.index is not None:
        if not 0 <= args.index < ens.count:
            raise ValueError(f"--index {args.index} is out of range for {args.infile!r}, "
                             f"which holds {ens.count} tuples")
        vals = [logic.evaluate(ast, ens[args.index], opts)]
    else:
        vals = [logic.evaluate(ast, t, opts) for t in ens.tuples()]
    arr = np.array(vals)
    out = {"formula": args.formula, "count": len(vals),
           "mean": float(arr.mean()), "std": float(arr.std(ddof=1)) if len(vals) > 1 else 0.0}
    if args.index is not None:
        out["value"] = float(arr[0])
    print(json.dumps(out))
    return 0


def _cmd_w2(args) -> int:
    from .. import transport as tp

    a = _load_tuples(args.a)
    b = _load_tuples(args.b)
    w, plan = tp.empirical_w2(a, b, method=args.method)
    print(json.dumps({"w2": w, "cost": plan.cost, "method": args.method,
                      "plan": plan.to_json(), "diagnostics": plan.diagnostics}))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in EXPERIMENT_COMMANDS:
            return _cmd_experiment(args.command, args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "entropy":
            return _cmd_entropy(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "w2":
            return _cmd_w2(args)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
