"""``python -m repro`` -- the reproduction command line.

Every registered scenario runs from the CLI alone, under any registered
placement policy, with spec-level overrides::

    repro list                                  # registries + spec schema
                                                # (zone count, [network] flag)
    repro run smoke                             # registered scenario
    repro run paper --policy fcfs               # pick a baseline by name
    repro run smoke --horizon 600 --set controller.control_cycle=300
    repro run smoke --shards 4                  # sharded control plane
    repro run chaos-soak --policy chaos-utility # fault-injection soak
    repro run smoke --no-resilient              # faults abort the run
    repro run --spec examples/specs/smoke.json  # from a spec file
    repro show heterogeneous-cluster --format toml > hetero.toml
    repro sweep smoke --param controller.control_cycle \\
        --values 300,600,1200 --workers 3
    repro run paper --replications 5 --workers 5 --json out.json
    repro report out.json other.json           # tables, no re-running

``--set key=value`` addresses the spec's :meth:`ScenarioSpec.to_dict`
form by dotted path (``controller.solver.backend=milp``,
``apps.0.rt_goal=0.3``); values parse as JSON with a plain-string
fallback.  ``repro run`` prints the run summary and optionally exports
the full result (``--json out.json``, ``--csv outdir/``).

``repro run --replications N`` (or ``--seeds 1,2,3``) runs the scenario
once per seed -- over a process pool with ``--workers`` -- and exports a
``repro.result-replicated/v1`` payload (per-metric mean, std, 95% CI,
min/max across seeds).  ``repro report FILE...`` renders a
policy-comparison table (policy x metric, mean ± CI) from saved result
files of either schema without re-running anything.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .api import (
    Experiment,
    ScenarioSpec,
    available_backends,
    available_policies,
    available_scenarios,
    get_policy,
    load_result,
    run_sweep,
    scenario_spec,
    sweep_table,
)
from .errors import ReproError
from .experiments.report import (
    replication_summary,
    replication_table,
    summarize_run,
)
from .experiments.sweeps import spec_variant


def _parse_value(text: str) -> object:
    """JSON literal when possible (numbers, bools, lists), else string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_overrides(pairs: Sequence[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _base_overrides(args: argparse.Namespace) -> dict[str, object]:
    overrides = _parse_overrides(args.set or [])
    if getattr(args, "horizon", None) is not None:
        overrides.setdefault("horizon", args.horizon)
    if getattr(args, "seed", None) is not None:
        overrides.setdefault("seed", args.seed)
    if getattr(args, "shards", None) is not None:
        overrides.setdefault("controller.shards", args.shards)
    if getattr(args, "no_resilient", False):
        overrides.setdefault("controller.resilient", False)
    if getattr(args, "exact_oracle", None) is not None:
        overrides.setdefault("controller.exact_oracle", args.exact_oracle)
    return overrides


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec is not None:
        if args.scenario is not None:
            raise SystemExit("give either a scenario name or --spec, not both")
        spec = ScenarioSpec.load(args.spec)
    elif args.scenario is not None:
        spec = scenario_spec(args.scenario)
    else:
        raise SystemExit("a scenario name or --spec FILE is required")
    overrides = _base_overrides(args)
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    if args.names:
        for name in available_scenarios():
            print(name)
        return 0
    print("scenarios (repro run <name>):")
    for name in available_scenarios():
        spec = scenario_spec(name)
        zones = len(spec.network.zones) if spec.network is not None else (
            len(set(spec.topology.zone_map().values())) or 1
        )
        network = "[network]" if spec.network is not None else ""
        annotation = f"  ({zones} zone{'s' if zones != 1 else ''}{' ' if network else ''}{network})"
        print(f"  {name}{annotation}")
    print("\npolicies (--policy <name>):")
    for name in available_policies():
        print(f"  {name}")
    print("\nsolver backends (--set controller.solver.backend=<name>):")
    for name in available_backends():
        print(f"  {name}")
    print("\nspec files: repro run --spec FILE.json|FILE.toml "
          "(schema repro.scenario/v1)")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.format == "toml":
        sys.stdout.write(spec.to_toml())
    else:
        print(spec.to_json())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    experiment = Experiment.from_spec(spec, policy=args.policy)
    if args.replications is None and args.seeds is None:
        if args.workers is not None:
            raise SystemExit(
                "--workers only applies to replicated runs; add "
                "--replications N or --seeds LIST (or use `repro sweep`)"
            )
    else:
        seeds = None
        if args.seeds is not None:
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s != ""]
            except ValueError:
                raise SystemExit(
                    f"--seeds expects a comma-separated integer list, "
                    f"got {args.seeds!r}"
                ) from None
        replicated = experiment.replicate(
            seeds=seeds, replications=args.replications, workers=args.workers
        )
        print(replication_summary(replicated))
        if args.json is not None:
            replicated.save(args.json)
            print(f"\nreplicated result written to {args.json}")
        if args.csv is not None:
            paths = replicated.export_csv(args.csv)
            print(f"\nCSV written to {', '.join(str(p) for p in paths)}")
        return 0
    result = experiment.run()
    print(summarize_run(result))
    if args.json is not None:
        Path(args.json).write_text(result.to_json() + "\n")
        print(f"\nresult written to {args.json}")
    if args.csv is not None:
        paths = result.export_csv(args.csv)
        print(f"\nCSV written to {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = [load_result(path) for path in args.files]
    metrics = None
    if args.metrics:
        metrics = [m for m in args.metrics.split(",") if m != ""]
    scenarios = sorted({r.scenario.name for r in results})
    print(f"report over {len(results)} result file(s); "
          f"scenario(s): {', '.join(scenarios)}")
    print()
    print(replication_table(results, metrics=metrics))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise SystemExit("--values expects a comma-separated list")
    sweep = run_sweep(
        name=f"{spec.name}:{args.param}",
        grid=values,
        scenario_factory=functools.partial(spec_variant, spec.to_dict(), args.param),
        policy_factory=get_policy(args.policy),
        workers=args.workers,
    )
    print(sweep_table(sweep, parameter_label=args.param))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_spec_arguments(
    parser: argparse.ArgumentParser, *, with_policy: bool = True
) -> None:
    parser.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (see `repro list`)",
    )
    parser.add_argument(
        "--spec", type=Path, default=None,
        help="scenario spec file (.json or .toml) instead of a name",
    )
    if with_policy:
        parser.add_argument(
            "--policy", default="utility",
            help="placement policy name (see `repro list`; default: utility)",
        )
    parser.add_argument(
        "--horizon", type=float, default=None, help="override the horizon (s)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="partition the cluster into K shards (sharded control "
             "plane; shorthand for --set controller.shards=K)",
    )
    parser.add_argument(
        "--exact-oracle", default=None, metavar="BACKEND",
        help="record optimality-gap telemetry against an exact backend "
             "(milp; shorthand for "
             "--set controller.exact_oracle=BACKEND)",
    )
    parser.add_argument(
        "--no-resilient", action="store_true",
        help="disable the graceful-degradation wrapper (shorthand for "
             "--set controller.resilient=false); faults then abort the run",
    )
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", default=[],
        help="dotted-path spec override, e.g. controller.control_cycle=300 "
             "(repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative experiment runner for the HPDC'08 "
                    "SLA-placement reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", help="list registered scenarios, policies and solver backends"
    )
    p_list.add_argument(
        "--names", action="store_true",
        help="print scenario names only (one per line, for scripting)",
    )
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario under one policy")
    _add_spec_arguments(p_run)
    p_run.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="write the full result as JSON (repro.result/v1, or "
             "repro.result-replicated/v1 when replicating)",
    )
    p_run.add_argument(
        "--csv", type=Path, default=None, metavar="DIR",
        help="write series.csv and summary.csv (or aggregates.csv and "
             "per_seed.csv when replicating) to this directory",
    )
    p_run.add_argument(
        "--replications", type=int, default=None, metavar="N",
        help="run N seed variants (consecutive seeds from the scenario "
             "seed) and report mean/95%% CI per metric",
    )
    p_run.add_argument(
        "--seeds", default=None, metavar="LIST",
        help="explicit comma-separated seed list (alternative to "
             "--replications)",
    )
    p_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan replications out over N worker processes",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser(
        "report",
        help="render a policy-comparison table from saved result files "
             "without re-running",
    )
    p_report.add_argument(
        "files", nargs="+", type=Path, metavar="FILE",
        help="saved result JSON (repro.result/v1 or "
             "repro.result-replicated/v1)",
    )
    p_report.add_argument(
        "--metrics", default=None, metavar="LIST",
        help="comma-separated metric columns (default: the paper-facing "
             "summary metrics)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_show = sub.add_parser(
        "show", help="print a scenario's spec (after overrides) and exit"
    )
    # No --policy: the policy is not part of the spec being shown.
    _add_spec_arguments(p_show, with_policy=False)
    p_show.add_argument(
        "--format", choices=["json", "toml"], default="json",
        help="output format (default: json)",
    )
    p_show.set_defaults(func=_cmd_show)

    p_sweep = sub.add_parser(
        "sweep", help="run a one-parameter grid and tabulate summary metrics"
    )
    _add_spec_arguments(p_sweep)
    p_sweep.add_argument(
        "--param", required=True,
        help="dotted spec path to sweep, e.g. controller.control_cycle",
    )
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated grid values (JSON literals)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="fan grid points out over N worker processes",
    )
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
