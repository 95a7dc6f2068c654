"""Command-line surface wiring the library into reproducible workflows.

Every subcommand is deterministic given its inputs: repeated runs
byte-reproduce all output files.  Exit codes: 0 success, 1 input or
usage error, 2 ran fine but the validation verdict is negative.

A config file (plain KEY=VALUE lines, # comments) is read as the flags
--KEY=VALUE, which the subcommand's parser checks as it checks any flag,
naming the file and line of a flag it refuses; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

import numpy as np

from . import boolcube, carsim, lcpr, mdp, poset
from .core import (
    CarlabError,
    DataFormatError,
    _read_dataset,
    load_json,
    load_learning_set,
    load_trace_log,
    save_dataset,
    save_json,
    save_trace_log,
)


class _UsageError(Exception):
    """A usage error: the parser that found it and argparse's message."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``_UsageError``, so
    that ``main`` can name the config line a refused flag comes from."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(self, message)


def _config_flags(path: str) -> list[tuple[str, str]]:
    """The lines of a KEY=VALUE config file as ``--key=value`` flags, each
    after its ``path:line``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected KEY=VALUE")
        key, value = line.split("=", 1)
        flags.append((f"{path}:{lineno}", f"--{key.strip().lower().replace('_', '-')}={value.strip()}"))
    return flags


def _require(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise CarlabError(f"missing required option --{name.replace('_', '-')}")
    return value


def _cmd_mine(args: argparse.Namespace) -> int:
    learning_set = load_learning_set(_require(args, "data"), mode=args.mode)
    lds = lcpr.mine_lds(learning_set, args.budget)
    for warning in lds.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    save_json(lcpr.ldset_to_json(lds), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    ids, X, _ = _read_dataset(_require(args, "data"), labelled=False)
    lds = lcpr.load_ldset(_require(args, "lds"), X.shape[1])
    votes = lcpr.classify_batch(X, lds)
    names = [str(i) for i in votes.classes]
    labels = np.where(votes.labels < 0, None, votes.labels).tolist()
    reasons = np.array(lcpr._REASONS)[votes.reasons].tolist()
    columns = zip(ids, labels, reasons, votes.scores().tolist())
    results = [
        {"id": object_id, "label": label, "reason": reason, "scores": dict(zip(names, row))}
        for object_id, label, reason, row in columns
    ]
    save_json({"results": results}, args.out)
    return 0


def _cmd_validate_poset(args: argparse.Namespace) -> int:
    graph = poset.load_transition_records(_require(args, "transitions"))
    verdict = poset.validate_to_normal(graph)
    save_json(poset.verdict_to_json(verdict), args.out)
    return 0 if verdict.passed else 2


def _cmd_diagram(args: argparse.Namespace) -> int:
    graph = poset.load_transition_records(_require(args, "transitions"))
    diagram = poset.build_level_diagram(graph)
    save_json(poset.diagram_to_json(diagram), args.out)
    return 0


def _cmd_fit_mdp(args: argparse.Namespace) -> int:
    traces = load_trace_log(_require(args, "traces"))
    model = mdp.estimate_mdp(
        traces,
        load_json(args.diagram, poset.diagram_from_json) if args.diagram else None,
        gamma=args.gamma,
        smoothing=args.smoothing,
        reward_shape=args.reward_shape,
    )
    save_json(mdp.mdp_to_json(model), args.out)
    return 0


def _cmd_eval_policy(args: argparse.Namespace) -> int:
    model = mdp.load_mdp(_require(args, "mdp"))
    traces = load_trace_log(_require(args, "traces"))
    observed = mdp.extract_observed_policy(traces)
    report = mdp.compare_policies(observed, model)
    payload = {
        "verdict": report.verdict,
        "max_regret": report.max_regret,
        "per_state": {
            str(s): {
                "v_optimal": report.v_optimal[s],
                "v_observed": report.v_observed[s],
                "regret": report.regret[s],
                "optimal_actions": list(report.optimal_actions[s]),
                "observed": {
                    a: p for a, p in sorted(observed.decision[s].items())
                },
                "agree": report.agreement[s],
            }
            for s in model.states
        },
    }
    save_json(payload, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    learning_set = load_learning_set(_require(args, "data"), mode=args.mode)
    lds = lcpr.load_ldset(_require(args, "lds"), learning_set.n)
    specs = carsim.load_actions(_require(args, "actions"))
    carsim.check_action_sizes(specs, learning_set.n)
    actions = carsim.register_actions(specs, learning_set.deviated_count)
    report = carsim.run_car(learning_set, lcpr.ld_classifier(lds), actions, args.max_steps)
    save_json(carsim.report_to_json(report), args.out)
    table = report.table
    if args.trace_out:
        save_trace_log(table, args.trace_out)
    if args.emit_dataset:
        # Raw emission: validation happens when the file is re-ingested.
        order = table.id_order()
        steps = zip(table.obj[order].tolist(), table.step[order].tolist())
        ids = [f"{table.object_ids[o]}.{step}" for o, step in steps]
        save_dataset(ids, table.state[order], table.label[order], args.emit_dataset)
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    learning_set = load_learning_set(_require(args, "data"), mode="boolean")
    specs = carsim.load_actions(_require(args, "actions"))
    if any(spec.boolean is None for spec in specs):
        raise CarlabError("inverse requires Boolean actions")
    n = learning_set.n
    carsim.check_action_sizes(specs, n)
    bound = carsim.register_actions(specs, learning_set.deviated_count)
    actions = {c: spec.boolean for c, spec in bound.items()}
    rdnfs = boolcube.multiclass_rdnf(learning_set)
    votes = boolcube.vote_vertices(rdnfs, n)
    covered = votes.counts > 0  # column 0 is the normal class
    partition = boolcube.RegionPartition.from_masks(covered[:, 0], covered[:, 1:].any(axis=1))
    reach = boolcube.backward_reach(partition.forall_region, actions, votes.labels, args.depth, n)
    del votes, covered  # the 2^n-row count, label and reason arrays, freed before the output is built

    # Code order is word order, so each list comes out sorted.
    cube = np.arange(1 << n)
    depths = []
    for d, (region, cumulative) in enumerate(zip(reach.depths, reach.cumulative)):
        depths.append(
            {
                "depth": d,
                "region": boolcube.code_words(region, n),
                "cover": [c.word for c in boolcube.subcube_cover(region, n)],
                "cumulative": boolcube.code_words(cumulative, n),
                "never_within": boolcube.code_words(np.setdiff1d(cube, cumulative, assume_unique=True), n),
            }
        )
    payload = {
        "n": n,
        "forall": boolcube.code_words(partition.forall_region, n),
        "exists": boolcube.code_words(partition.exists_region, n),
        "uncovered": boolcube.code_words(partition.uncovered, n),
        "indeterminate": boolcube.code_words(reach.indeterminate, n),
        "depths": depths,
    }
    save_json(payload, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = {}
    for item in args.inputs:
        name, path = item.split("=", 1) if "=" in item else (Path(item).stem, item)
        if name in bundle:
            raise CarlabError(f"duplicate report section {name!r}")
        bundle[name] = load_json(path, lambda doc: doc)
    save_json(bundle, args.out)
    return 0


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="carlab", description="Classification-action recursion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="KEY=VALUE config file; flags override")
        p.add_argument("--out", help="output file (default: stdout)")

    mode = {"choices": ["real", "boolean"], "default": "real", "help": "value domain (default %(default)s)"}

    p = sub.add_parser("mine", help="mine logical dependencies from a dataset")
    common(p)
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--mode", **mode)
    p.add_argument("--budget", type=int, default=0, help="violation budget (default %(default)s)")
    p.set_defaults(handler=_cmd_mine)

    p = sub.add_parser("classify", help="score and label vectors with mined LDs")
    common(p)
    p.add_argument("--lds", help="LD set JSON")
    p.add_argument("--data", help="vector CSV (id,f1..fn[,class])")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("validate-poset", help="order-axiom verdict on transitions")
    common(p)
    p.add_argument("--transitions", help="transition CSV")
    p.set_defaults(handler=_cmd_validate_poset)

    p = sub.add_parser("diagram", help="level diagram rooted at the normal class")
    common(p)
    p.add_argument("--transitions", help="transition CSV")
    p.set_defaults(handler=_cmd_diagram)

    p = sub.add_parser("fit-mdp", help="estimate an MDP from a trace log")
    common(p)
    p.add_argument("--traces", help="trace log CSV")
    p.add_argument("--diagram", help="level diagram JSON (default: derive from traces)")
    p.add_argument("--gamma", type=float, default=0.9, help="discount factor (default %(default)s)")
    p.add_argument("--smoothing", type=float, default=0.0, help="Laplace smoothing (default %(default)s)")
    p.add_argument(
        "--reward-shape",
        choices=["level-diff", "neg-level"],
        default="level-diff",
        help="reward definition (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_fit_mdp)

    p = sub.add_parser("eval-policy", help="compare observed and optimal policies")
    common(p)
    p.add_argument("--mdp", help="MDP JSON")
    p.add_argument("--traces", help="trace log CSV")
    p.set_defaults(handler=_cmd_eval_policy)

    p = sub.add_parser("simulate", help="run the classify-act loop over a dataset")
    common(p)
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--mode", **mode)
    p.add_argument("--lds", help="LD set JSON")
    p.add_argument("--actions", help="action spec JSON")
    p.add_argument("--max-steps", type=int, default=20, help="step budget (default %(default)s)")
    p.add_argument("--trace-out", help="emit trace log CSV")
    p.add_argument(
        "--emit-dataset",
        help="emit visited states as a dataset CSV (for re-mining between runs)",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "inverse", help="backward-reachable regions of the normal class (Boolean)"
    )
    common(p)
    p.add_argument("--data", help="Boolean dataset CSV")
    p.add_argument("--actions", help="Boolean action spec JSON")
    p.add_argument("--depth", type=int, default=1, help="backward depth k (default %(default)s)")
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("report", help="bundle JSON outputs into one summary")
    common(p)
    p.add_argument("inputs", nargs="*", help="JSON files, optionally name=path")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # its lines go after the subcommand, ahead of the given flags, which win
            flags = _config_flags(args.config)
            for where, flag in flags:  # each line alone, to name the one refused
                try:
                    parser.parse_args(argv[:1] + [flag])
                except _UsageError as exc:
                    raise DataFormatError(f"{where}: {exc.args[1]}") from None
            args = parser.parse_args(argv[:1] + [flag for _, flag in flags] + argv[1:])
        return args.handler(args)
    except _UsageError as exc:  # reported as argparse reports it, with exit code 1
        refusing, message = exc.args
        refusing.print_usage(sys.stderr)
        print(f"{refusing.prog}: error: {message}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code == 0 else 1
    except (CarlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
