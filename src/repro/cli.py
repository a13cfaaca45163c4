"""Command-line interface: regenerate the data behind any figure of the paper.

The figure commands and the generic ``sweep`` command run through the
campaign layer (:mod:`repro.campaign`), so every sweep accepts ``--jobs N``
to fan the MAC x parameter x seed cross-product out over a process pool;
results are independent of the worker count.

Examples::

    qma-repro table4
    qma-repro fig7 --deltas 10 25 50 --packets 200 --repetitions 3 --jobs 4
    qma-repro fig21 --rings 1 2 --duration 230
    qma-repro sweep hidden-node --grid delta=5,25 --set packets_per_node=200 \\
        --seeds 5 --jobs 4 --csv out.csv
    qma-repro sweep hidden-node --grid metrics=pdr,delay --grid delta=10,25 \\
        --jsonl out.jsonl
    qma-repro fig26
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from repro.campaign.frame import (
    CsvRecordSink,
    JsonDocumentSink,
    JsonlRecordSink,
    TableAggregator,
)
from repro.campaign.runner import (
    CampaignRunner,
    WorkerDied,
    experiment_metric_names,
    is_known_metric,
)
from repro.campaign.spec import EXPERIMENT_KINDS, Sweep
from repro.core.rewards import format_reward_table
from repro.experiments.figures import FIGURES
from repro.experiments.handshake import handshake_expected_messages
from repro.experiments.hidden_node import run_fluctuating, run_slot_utilisation
from repro.mac.registry import MAC_REGISTRY, mac_kinds
from repro.metrics.registry import COLLECTOR_REGISTRY, collector_kinds
from repro.phy.registry import PROPAGATION_REGISTRY, propagation_kinds
from repro.scenario.builder import TOPOLOGY_REGISTRY, topology_kinds


def _print_table(header: List[str], rows: List[List[str]]) -> None:
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def _add_propagation_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--propagation",
        default=None,
        help="registered propagation model deriving connectivity from node "
        "positions (default: the topology's explicit links); see 'qma-repro list'",
    )


#: Help of the ``--metrics`` table option of ``sweep`` and ``resume``.
_METRICS_HELP = (
    "scalar metrics to tabulate (default: all); a record keeps scalars only, "
    "so series and tables (Q/rho histories) come from the run_* API"
)


def _add_collectors_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--collectors",
        nargs="+",
        default=None,
        metavar="NAME",
        help="metric collectors instrumenting every run (default: the "
        "experiment's standard set); a record keeps scalars only, so a run "
        "attaches only the named collectors that provide one; see 'qma-repro list'",
    )


def _parse_chunksize(text: str) -> Any:
    """Parse a ``--chunksize`` value: ``auto`` or a positive integer."""
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"chunksize must be positive, got {value}")
    return value


def _parse_probability(text: str) -> float:
    """Parse a success probability in (0, 1]; NaN is rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a probability, got {text!r}")
    if not 0.0 < value <= 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"probability must lie in (0, 1], got {text}")
    return value


def _parse_non_negative_int(text: str) -> int:
    """Parse an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (0 = one per CPU)"
    )
    parser.add_argument(
        "--chunksize",
        type=_parse_chunksize,
        default="auto",
        help="scenarios per worker-pool chunk ('auto' = n // (jobs * 8), "
        "min 1; larger chunks amortise IPC for short runs)",
    )
    parser.add_argument(
        "--no-build-cache",
        dest="build_cache",
        action="store_false",
        default=True,
        help="rebuild topology and links for every run instead of "
        "reusing cached construction artifacts across runs that share a "
        "configuration (results are bit-identical either way)",
    )
    parser.add_argument(
        "--batch-seeds",
        type=int,
        default=1,
        metavar="N",
        help="run up to N consecutive same-configuration seeds as one "
        "task, one after another (testbed experiments; results are "
        "bit-identical to per-seed execution; 1 disables grouping)",
    )
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH", help="export per-run records as JSON"
    )
    parser.add_argument(
        "--csv", dest="csv_path", metavar="PATH", help="export per-run records as CSV"
    )


def _add_sweep_spec_options(parser: argparse.ArgumentParser) -> None:
    """Arguments describing *what* to run (shared by ``sweep`` and ``submit``)."""
    parser.add_argument("experiment", choices=EXPERIMENT_KINDS)
    parser.add_argument(
        "--macs", nargs="+", default=None,
        help="MAC kinds to sweep (default: qma; or use --grid mac=...)",
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="sweep a parameter over comma-separated values (repeatable)",
    )
    parser.add_argument(
        "--set",
        dest="fixed",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="fix a parameter for every scenario (repeatable)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, help="number of seeds per grid point"
    )
    parser.add_argument("--base-seed", type=int, default=0)
    _add_propagation_option(parser)
    _add_collectors_option(parser)


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    """Supervision flags shared by checkpointed execution verbs."""
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="per-run attempt budget before a persistently failing run is "
        "quarantined instead of aborting the campaign (default: 3)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per run; a stalled backend attempt is "
        "aborted and the pending runs retried (default: no timeout)",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="dispatch directly without the supervision layer: any worker "
        "failure aborts the whole campaign (pre-supervision behaviour)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="deterministic chaos harness (testing aid): semicolon-separated "
        "faults, e.g. 'crash@seed=1;hang:30@seed=2;torn@after=10'",
    )


def _add_service_address_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="service address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8765,
        help="service port (default: 8765; 0 picks an ephemeral port when serving)",
    )


def _add_hosts_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hosts",
        nargs="+",
        default=None,
        metavar="HOST:PORT[*CAP]",
        help="dispatch shards to remote campaign agents (see 'qma-repro "
        "agent'); each entry is HOST:PORT with an optional per-host "
        "concurrent-shard cap (HOST:PORT*CAP), @FILE or a plain path "
        "reads a hosts file (one entry per line, # comments)",
    )


def _parse_value(text: str) -> Any:
    """Parse a grid/fixed parameter value: int, then float, then string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _parse_assignments(pairs: List[str], split_values: bool) -> Dict[str, Any]:
    parsed: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise SystemExit(f"expected KEY=VALUE, got {pair!r}")
        if split_values:
            parsed[key] = [_parse_value(item) for item in value.split(",") if item]
        else:
            parsed[key] = _parse_value(value)
    return parsed


def cmd_table4(args: argparse.Namespace) -> None:
    print(format_reward_table(num_agents=args.agents))


def _format_defaults(defaults: Dict[str, Any]) -> str:
    if not defaults:
        return "(no config)"
    return ", ".join(
        f"{key}={'<required>' if value is ... else value}"
        for key, value in defaults.items()
    )


def cmd_list(args: argparse.Namespace) -> None:
    """Print the registered MAC kinds, propagation models and topologies."""
    print("MAC protocols (repro.mac.registry):")
    for name in mac_kinds():
        spec = MAC_REGISTRY.get(name)
        config_name = spec.config_cls.__name__ if spec.config_cls else "-"
        print(f"  {name:<16} {spec.protocol.__name__:<16} {spec.description}")
        print(f"  {'':<16} {config_name}: {_format_defaults(spec.config_defaults())}")
    print()
    print("propagation models (repro.phy.registry):")
    for name in propagation_kinds():
        spec = PROPAGATION_REGISTRY.get(name)
        print(f"  {name:<16} {spec.model.__name__:<24} {spec.description}")
        print(f"  {'':<16} defaults: {_format_defaults(spec.config_defaults())}")
    print()
    print("topologies (repro.scenario.builder):")
    for name in topology_kinds():
        factory = TOPOLOGY_REGISTRY.get(name)
        doc = (factory.__doc__ or "").strip().splitlines()
        print(f"  {name:<16} {doc[0] if doc else ''}")
    print()
    print("metric collectors (repro.metrics.registry):")
    for name in collector_kinds():
        spec = COLLECTOR_REGISTRY.get(name)
        provides = ", ".join(spec.provides()) or "-"
        print(f"  {name:<16} {spec.collector_cls.__name__:<24} {spec.description}")
        print(f"  {'':<16} scalars: {provides}")


def cmd_fig12(args: argparse.Namespace) -> None:
    histories = run_fluctuating(duration=args.duration)
    for node_id, history in histories.items():
        print(f"node {node_id}: {len(history)} frames")
        step = max(1, len(history) // 20)
        for time, value in history[::step]:
            print(f"  t={time:8.1f}s  cumulative Q = {value:8.1f}")


def cmd_slots(args: argparse.Namespace) -> None:
    snapshot, final = run_slot_utilisation(
        delta=args.delta, snapshot_time=args.snapshot, duration=args.duration
    )
    print(f"collision free (snapshot): {snapshot.collision_free}")
    print(f"collision free (final):    {final.collision_free}")
    for node, slots in sorted(final.assignments.items()):
        used = {m: a.short_name for m, a in sorted(final.node_subslots(node).items())}
        print(f"node {node}: {used}")


def cmd_figure(args: argparse.Namespace) -> None:
    """``fig7``, ``testbed`` and ``fig21``: stream the figure's sweep
    through the ``sweep`` command's sinks, then print the figure's table."""
    verb = args.command
    figure = FIGURES[f"testbed-{args.scenario}" if verb == "testbed" else verb]
    try:
        sweep = figure.sweep(args)
        for metric in figure.metrics:
            if not is_known_metric(sweep.experiment, metric, collectors=sweep.metrics):
                providers = [
                    name
                    for name in collector_kinds()
                    if is_known_metric(sweep.experiment, metric, collectors=[name])
                ]
                raise SystemExit(
                    f"qma-repro {verb}: error: metric {metric!r} missing — the chosen "
                    f"--collectors must include {' or '.join(providers)}"
                )
    except ValueError as exc:
        raise SystemExit(f"qma-repro {verb}: error: {exc}")
    runner = _runner_from_args(args)
    sinks = _sweep_sinks(args, sweep, figure.by, meta={"pool": runner.pool_config(sweep.size)})
    _stream(runner, sweep, sinks, verb)
    _print_table(list(figure.header), figure.table(sinks[0], args))
    _print_sink_lines(sinks)


def _sweep_from_args(args: argparse.Namespace) -> Sweep:
    """Build the :class:`Sweep` described by sweep/submit command arguments."""
    try:
        grid = _parse_assignments(args.grid, split_values=True)
        # ``mac``, ``propagation`` and ``metrics`` are registry axes, not
        # runner parameters: lift them out of the grid so that e.g.
        # ``--grid mac=qma,tdma propagation=unit-disk,fading metrics=pdr,delay``
        # resolves through the registries with zero per-component code.
        # Giving the same axis through both a flag and the grid is ambiguous.
        if "mac" in grid and args.macs is not None:
            raise SystemExit(
                "qma-repro sweep: error: give the MAC axis either via --macs "
                "or via --grid mac=..., not both"
            )
        if "propagation" in grid and args.propagation is not None:
            raise SystemExit(
                "qma-repro sweep: error: give the propagation axis either via "
                "--propagation or via --grid propagation=..., not both"
            )
        if "metrics" in grid and args.collectors is not None:
            raise SystemExit(
                "qma-repro sweep: error: give the collector set either via "
                "--collectors or via --grid metrics=..., not both"
            )
        if "mac" in grid:
            macs = [str(m) for m in grid.pop("mac")]
        else:
            macs = args.macs if args.macs is not None else ["qma"]
        propagations: List[Optional[str]] = (
            [str(p) for p in grid.pop("propagation")]
            if "propagation" in grid
            else [args.propagation]
        )
        collectors: Optional[List[str]] = (
            [str(c) for c in grid.pop("metrics")] if "metrics" in grid else args.collectors
        )
        sweep = Sweep(
            experiment=args.experiment,
            macs=macs,
            propagations=propagations,
            grid=grid,
            fixed=_parse_assignments(args.fixed, split_values=False),
            seeds=[args.base_seed + i for i in range(args.seeds)],
            metrics=collectors,
        )
    except ValueError as exc:
        raise SystemExit(f"qma-repro sweep: error: {exc}")
    # Fail fast on metric-name typos before spending hours on the sweep.
    for metric in getattr(args, "metrics", None) or ():
        if not is_known_metric(args.experiment, metric, collectors=sweep.metrics):
            names = experiment_metric_names(args.experiment, collectors=sweep.metrics)
            raise SystemExit(
                f"qma-repro sweep: error: unknown metric {metric!r} for "
                f"{args.experiment}; available: {', '.join(names)}"
            )
    return sweep


def _by_axes(sweep: Sweep) -> tuple:
    """Grouping columns of the sweep's aggregate table."""
    by = ("mac",)
    if any(propagation is not None for propagation in sweep.propagations):
        by += ("propagation",)
    return by + sweep.axes


def _print_aggregate(
    aggregator: TableAggregator, by: tuple, metrics: Optional[List[str]], verb: str
) -> None:
    """Print the mean/CI table of the finished campaign."""
    available = aggregator.metric_names()
    for metric in metrics or ():
        if metric not in available:  # e.g. pdr_node_<id> for an absent node
            raise SystemExit(
                f"qma-repro {verb}: error: metric {metric!r} not present in the "
                f"results; available: {', '.join(available)}"
            )
    rows = []
    for metric in metrics or available:
        for key, stats in aggregator.groups(metric).items():
            rows.append(
                list(key)
                + [metric, f"{stats['mean']:.4f}", f"±{stats['ci95']:.4f}", stats["n"]]
            )
    _print_table(list(by) + ["metric", "mean", "ci95", "n"], rows)


def _print_sink_lines(sinks: List[Any]) -> None:
    for sink in sinks[1:]:
        kind = {
            JsonlRecordSink: "jsonl",
            CsvRecordSink: "csv",
            JsonDocumentSink: "json",
        }[type(sink)]
        print(f"wrote {sink.written} records to {sink.path} ({kind})")


def _supervision_options(args: argparse.Namespace) -> Dict[str, Any]:
    """Flat backend+supervision options of a checkpointed CLI campaign."""
    options: Dict[str, Any] = {
        "jobs": getattr(args, "jobs", 1),
        "chunksize": getattr(args, "chunksize", "auto"),
        "build_cache": getattr(args, "build_cache", True),
        "batch_seeds": getattr(args, "batch_seeds", 1),
    }
    if getattr(args, "hosts", None):
        options["backend"] = "remote"
        options["hosts"] = list(args.hosts)
    if getattr(args, "no_supervise", False):
        options["supervise"] = False
    if getattr(args, "retries", None) is not None:
        options["max_attempts"] = args.retries
    if getattr(args, "run_timeout", None) is not None:
        options["run_timeout"] = args.run_timeout
    if getattr(args, "inject_faults", None):
        options["faults"] = args.inject_faults
    return options


def _print_supervision_event(event: Dict[str, Any]) -> None:
    """Narrate retry/degrade/quarantine events on stderr as they happen."""
    kind = event.get("kind")
    if kind == "retry":
        line = (
            f"supervisor: attempt {event['attempt']} on {event['backend']} "
            f"left {event['pending']} run(s) pending"
        )
        if event.get("timed_out"):
            line += " (run timeout)"
        if event.get("error"):
            line += f": {str(event['error']).splitlines()[0]}"
    elif kind == "degrade":
        line = (
            f"supervisor: degrading {event['from_backend']} -> "
            f"{event['to_backend']} after {event['after_failures']} failed attempt(s)"
        )
    elif kind == "quarantine":
        line = (
            f"supervisor: quarantined run {event['index']} (seed {event['seed']}) "
            f"after {event['attempts']} attempt(s): {event['failure']}"
        )
    else:
        return
    print(line, file=sys.stderr, flush=True)


def _backend_from_args(args: argparse.Namespace) -> "DispatchBackend":
    """Supervised dispatch backend of a checkpointed CLI campaign."""
    from repro.service.supervisor import make_supervised

    try:
        return make_supervised(
            _supervision_options(args), on_event=_print_supervision_event
        )
    except ValueError as exc:
        raise SystemExit(f"qma-repro: error: {exc}")


def _runner_from_args(args: argparse.Namespace) -> CampaignRunner:
    return CampaignRunner(
        jobs=args.jobs,
        chunksize=args.chunksize,
        build_cache=args.build_cache,
        batch_seeds=args.batch_seeds,
    )


def _stream(runner: CampaignRunner, sweep: Sweep, sinks: List[Any], verb: str) -> None:
    """Run the sweep through the sinks; a dead pool worker or an unknown
    parameter ends the command with ``qma-repro <verb>: error: ...``."""
    try:
        with runner:
            runner.stream(sweep, sinks=sinks)
    except WorkerDied as exc:
        raise SystemExit(f"qma-repro {verb}: error: {exc}")
    except TypeError as exc:
        # Unknown --grid/--set keys surface as unexpected-keyword errors from
        # the experiment runner (possibly re-raised by the pool); anything
        # else is a real bug whose traceback must be kept.
        if "unexpected keyword argument" not in str(exc):
            raise
        raise SystemExit(f"qma-repro {verb}: error: {exc}")


def cmd_sweep(args: argparse.Namespace) -> None:
    sweep = _sweep_from_args(args)
    by = _by_axes(sweep)
    if args.checkpoint:
        _run_checkpointed_sweep(args, sweep, by)
        return

    runner = _runner_from_args(args)
    # The effective pool configuration rides along in --json/--jsonl output
    # so throughput anomalies can be traced to their dispatch settings.
    pool_config = runner.pool_config(sweep.size)

    # Stream records through sinks: aggregation, JSONL and CSV run in
    # constant memory; only the --json document buffers records.
    sinks = _sweep_sinks(args, sweep, by, meta={"pool": pool_config})

    print(
        f"running {sweep.size} scenarios ({args.experiment}) with "
        f"jobs={pool_config['jobs']} chunksize={pool_config['chunksize']} "
        f"pool={pool_config['pool']}"
    )
    _stream(runner, sweep, sinks, "sweep")
    _print_aggregate(sinks[0], by, args.metrics, "sweep")
    _print_sink_lines(sinks)


def _sweep_sinks(
    args: argparse.Namespace, sweep: Sweep, by: tuple, meta: Dict[str, Any]
) -> List[Any]:
    """Record sinks of a sweep-style command: aggregator first, exports after."""
    aggregator = TableAggregator(by=by)
    sinks: List[Any] = [aggregator]
    if getattr(args, "jsonl_path", None):
        sinks.append(JsonlRecordSink(args.jsonl_path, meta=meta))
    if getattr(args, "csv_path", None):
        # Pre-declare the collector-provided columns: the streaming CSV
        # header is fixed at the first record, so metrics that only appear
        # later (e.g. trace_dropped) must be announced up front.
        declared = [
            name
            for name in experiment_metric_names(sweep.experiment, collectors=sweep.metrics)
            if "*" not in name
        ]
        sinks.append(CsvRecordSink(args.csv_path, columns=declared))
    if getattr(args, "json_path", None):
        sinks.append(JsonDocumentSink(args.json_path, meta=meta))
    return sinks


def _run_checkpointed_sweep(args: argparse.Namespace, sweep: Sweep, by: tuple) -> None:
    """The ``sweep --checkpoint`` / ``resume`` execution path."""
    from repro.service.checkpoint import run_checkpointed
    from repro.service.journal import JournalError
    from repro.service.manifest import sweep_digest

    backend = _backend_from_args(args)
    sinks = _sweep_sinks(
        args, sweep, by, meta={"checkpoint": {"journal": args.checkpoint}}
    )
    aggregator = sinks[0]
    print(
        f"running {sweep.size} scenarios ({sweep.experiment}) under checkpoint "
        f"{args.checkpoint} (spec {sweep_digest(sweep)[:12]}, "
        f"backend {backend.name})",
        flush=True,
    )
    try:
        outcome = run_checkpointed(
            sweep,
            args.checkpoint,
            backend=backend,
            sinks=sinks,
            meta={"cli": "sweep"},
        )
    except (JournalError, WorkerDied) as exc:
        raise SystemExit(f"qma-repro sweep: error: {exc}")
    except TypeError as exc:
        if "unexpected keyword argument" not in str(exc):
            raise
        raise SystemExit(f"qma-repro sweep: error: {exc}")
    finally:
        backend.close()
    print(
        f"resumed {outcome.resumed} completed run(s) from the journal, "
        f"executed {outcome.executed}"
    )
    _print_aggregate(aggregator, by, getattr(args, "metrics", None), "sweep")
    _print_sink_lines(sinks)
    if outcome.status == "partial":
        from repro.service.supervisor import quarantine_path

        print(
            f"campaign PARTIAL: {len(outcome.quarantined)} run(s) quarantined "
            f"(indices {outcome.quarantined}); details in "
            f"{quarantine_path(args.checkpoint)}; re-dispatch with "
            f"'qma-repro retry-quarantined {args.checkpoint}'",
            file=sys.stderr,
        )
        raise SystemExit(4)
    if outcome.status == "cancelled":
        print("campaign CANCELLED before completion", file=sys.stderr)
        raise SystemExit(1)


def cmd_serve(args: argparse.Namespace) -> None:
    """Run the long-lived campaign service until interrupted."""
    from repro.service.server import CampaignServer, CampaignService

    options: Dict[str, Any] = {
        "backend": args.backend,
        "jobs": args.jobs,
        "chunksize": args.chunksize,
        "build_cache": args.build_cache,
        "batch_seeds": args.batch_seeds,
    }
    if args.backend == "remote" and not args.hosts:
        raise SystemExit(
            "qma-repro serve: error: --backend remote requires --hosts"
        )
    if args.hosts:
        options["backend"] = "remote"
        options["hosts"] = list(args.hosts)
        from repro.service.remote import parse_hosts

        try:
            specs = parse_hosts(args.hosts, source="--hosts")
        except ValueError as exc:
            raise SystemExit(f"qma-repro serve: error: {exc}")
        print(
            "remote dispatch to "
            + ", ".join(f"{spec.key}*{spec.cap}" for spec in specs),
            file=sys.stderr,
        )
    elif args.backend == "pool" and args.throttle:
        options["throttle"] = args.throttle
    if args.no_supervise:
        options["supervise"] = False
    if args.retries is not None:
        options["max_attempts"] = args.retries
    if args.run_timeout is not None:
        options["run_timeout"] = args.run_timeout
    fault_plan = None
    if args.inject_faults:
        from repro.service.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_spec(args.inject_faults)
        except ValueError as exc:
            raise SystemExit(f"qma-repro serve: error: {exc}")
        options["faults"] = args.inject_faults
        print(f"fault injection active: {args.inject_faults}", file=sys.stderr)
    service = CampaignService(args.root, backend_options=options)
    server = CampaignServer(service, args.host, args.port, fault_plan=fault_plan)
    host, port = server.server_address[:2]
    # The smoke harness parses this line to find an ephemeral port.
    print(f"campaign service listening on http://{host}:{port} (root: {args.root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("campaign service stopped")
    finally:
        server.stop()


def _service_client(args: argparse.Namespace) -> "ServiceClient":
    from repro.service.client import ServiceClient

    return ServiceClient(args.host, args.port)


def _submit_options(args: argparse.Namespace) -> Dict[str, Any]:
    """Backend overrides the submit verb sends along (only flags given)."""
    options: Dict[str, Any] = {}
    for key, name in (
        ("backend", "backend"),
        ("jobs", "jobs"),
        ("batch_seeds", "batch_seeds"),
        ("hosts", "hosts"),
    ):
        value = getattr(args, key, None)
        if value is not None:
            options[name] = value
    if options.get("hosts") and "backend" not in options:
        options["backend"] = "remote"
    return options


def _print_job_snapshot(snapshot: Dict[str, Any]) -> None:
    print(
        f"job {snapshot['job']}: {snapshot['state']} "
        f"{snapshot['completed']}/{snapshot['total']} "
        f"({snapshot['experiment']}, spec {snapshot['digest'][:12]})"
    )
    if snapshot.get("error"):
        print(f"  error: {snapshot['error']}")
    if snapshot.get("quarantined"):
        print(f"  quarantined: {snapshot['quarantined']} run(s)")
    for event in (snapshot.get("events") or [])[-5:]:
        detail = " ".join(
            f"{key}={str(value)[:80]}"
            for key, value in sorted(event.items())
            if key != "kind" and value not in (None, "", False)
        )
        print(f"  [{event.get('kind')}] {detail}")
    rows = [
        [name, stats["n"], f"{stats['mean']:.4f}", f"±{stats['ci95']:.4f}"]
        for name, stats in sorted(snapshot.get("metrics", {}).items())
    ]
    if rows:
        _print_table(["metric", "n", "mean", "ci95"], rows)


def cmd_submit(args: argparse.Namespace) -> None:
    """Submit a sweep to a running campaign service."""
    from repro.service.client import ServiceError

    sweep = _sweep_from_args(args)
    client = _service_client(args)
    try:
        ack = client.submit(sweep.to_dict(), options=_submit_options(args) or None)
    except (ServiceError, ConnectionError, OSError) as exc:
        raise SystemExit(f"qma-repro submit: error: {exc}")
    print(
        f"submitted {ack['job']}: {ack['total']} runs, spec {ack['digest'][:12]}, "
        f"journal {ack['journal']}"
    )
    if args.wait:
        try:
            snapshot = client.wait(ack["job"], timeout=args.timeout)
        except (ServiceError, TimeoutError) as exc:
            raise SystemExit(f"qma-repro submit: error: {exc}")
        _print_job_snapshot(snapshot)


def cmd_status(args: argparse.Namespace) -> None:
    """Show job progress and live metric aggregates of a running service."""
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        if args.job:
            _print_job_snapshot(client.status(args.job)[0])
            return
        snapshots = client.status()
    except (ServiceError, ConnectionError, OSError) as exc:
        raise SystemExit(f"qma-repro status: error: {exc}")
    if not snapshots:
        print("no jobs submitted")
        return
    rows = [
        [
            snap["job"],
            snap["state"],
            f"{snap['completed']}/{snap['total']}",
            snap.get("quarantined") or "",
            snap["experiment"],
            snap["digest"][:12],
            # Errors carry the shard's multi-line stderr tail; the table
            # keeps the first line, `status --job` prints it whole.
            (snap.get("error") or "").splitlines()[0] if snap.get("error") else "",
        ]
        for snap in snapshots
    ]
    _print_table(["job", "state", "done", "quar", "experiment", "spec", "error"], rows)
    try:
        host_rows = client.hosts()
    except (ServiceError, ConnectionError, OSError):
        host_rows = []  # pre-remote server, or it went away mid-status
    if host_rows:
        print()
        _print_hosts_rows(host_rows)


def _format_beat_age(age: Any) -> str:
    return "-" if age is None else f"{float(age):.1f}s"


def _print_hosts_rows(host_rows: List[Dict[str, Any]]) -> None:
    rows = [
        [
            host["key"],
            host["state"],
            host["cap"],
            host["shards"],
            host["failures"],
            _format_beat_age(host.get("last_beat_age")),
        ]
        for host in host_rows
    ]
    _print_table(["host", "state", "cap", "shards", "fails", "beat"], rows)


def cmd_hosts(args: argparse.Namespace) -> None:
    """List remote dispatch agents, their health and recent failure events."""
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        host_rows = client.hosts()
    except (ServiceError, ConnectionError, OSError) as exc:
        raise SystemExit(f"qma-repro hosts: error: {exc}")
    if not host_rows:
        print("no remote hosts registered (service runs a local backend)")
        return
    _print_hosts_rows(host_rows)
    for host in host_rows:
        for event in (host.get("events") or [])[-5:]:
            stamp = time.strftime(
                "%H:%M:%S", time.localtime(float(event.get("time", 0)))
            )
            print(
                f"  {host['key']} [{event.get('kind')}] {stamp} "
                f"{event.get('detail', '')}"
            )


def cmd_agent(args: argparse.Namespace) -> None:
    """Run a campaign agent executing shard jobs for remote dispatchers."""
    from repro.service.agent import serve

    serve(args.host, args.port, args.workdir, args.max_jobs, args.name)


def cmd_resume(args: argparse.Namespace) -> None:
    """Resume a checkpointed sweep from its journal (sweep comes from the header)."""
    from repro.service.journal import CheckpointJournal, JournalError

    try:
        journal = CheckpointJournal.open(args.journal)
    except (OSError, JournalError) as exc:
        raise SystemExit(f"qma-repro resume: error: {exc}")
    try:
        sweep = journal.sweep
        pending = len(journal.pending_indices())
    finally:
        journal.close()
    print(
        f"journal {args.journal}: {journal.total - pending}/{journal.total} "
        f"complete, resuming {pending} run(s)"
    )
    args.checkpoint = args.journal
    _run_checkpointed_sweep(args, sweep, _by_axes(sweep))


def cmd_cancel(args: argparse.Namespace) -> None:
    """Cancel a queued or running campaign-service job."""
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        snapshot = client.cancel(args.job)
    except (ServiceError, ConnectionError, OSError) as exc:
        raise SystemExit(f"qma-repro cancel: error: {exc}")
    note = " (cancelling, draining in-flight runs)" if snapshot.get("cancelling") else ""
    print(
        f"job {snapshot['job']}: {snapshot['state']}{note} "
        f"{snapshot['completed']}/{snapshot['total']}"
    )


def cmd_retry_quarantined(args: argparse.Namespace) -> None:
    """Re-dispatch a journal's quarantined runs with a fresh attempt budget."""
    from repro.service.journal import JournalError
    from repro.service.supervisor import (
        load_quarantine,
        quarantine_path,
        retry_quarantined,
    )

    qpath = quarantine_path(args.journal)
    entries = load_quarantine(qpath)
    if not entries:
        print(f"{args.journal}: no quarantined runs")
        return
    for entry in entries:
        print(
            f"retrying run {entry['index']} (seed {entry['seed']}, "
            f"{len(entry['attempts'])} failed attempt(s))"
        )
    try:
        count, outcome = retry_quarantined(
            args.journal,
            _supervision_options(args),
            on_event=_print_supervision_event,
        )
    except (OSError, JournalError) as exc:
        raise SystemExit(f"qma-repro retry-quarantined: error: {exc}")
    done = outcome.total - len(outcome.quarantined)
    print(f"retried {count} run(s): campaign {outcome.status} ({done}/{outcome.total})")
    if outcome.status == "partial":
        print(
            f"{len(outcome.quarantined)} run(s) quarantined again "
            f"(indices {outcome.quarantined}); details in {qpath}",
            file=sys.stderr,
        )
        raise SystemExit(4)


def cmd_compact(args: argparse.Namespace) -> None:
    """Seal a journal's completed prefix into an immutable segment file."""
    import os

    from repro.service.journal import CheckpointJournal, JournalError

    try:
        journal = CheckpointJournal.open(args.journal)
    except (OSError, JournalError) as exc:
        raise SystemExit(f"qma-repro compact: error: {exc}")
    try:
        before = os.path.getsize(args.journal)
        segment = journal.compact(min_runs=args.min_runs)
        after = os.path.getsize(args.journal)
    finally:
        journal.close()
    if segment is None:
        print(
            f"{args.journal}: nothing to compact "
            f"(fewer than {args.min_runs} newly sealable run(s))"
        )
        return
    print(f"sealed segment {segment}; journal {before} -> {after} bytes")


def cmd_fig26(args: argparse.Namespace) -> None:
    curve = handshake_expected_messages(args.probabilities, retries=args.retries)
    rows = [[f"{p:.1f}", f"{messages:.2f}"] for p, messages in sorted(curve.items())]
    _print_table(["p", "expected messages"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qma-repro",
        description="Regenerate the evaluation data of the QMA paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table4", help="local/global reward table")
    p.add_argument("--agents", type=int)
    p.set_defaults(func=cmd_table4, **FIGURES["table4"].paper)

    p = sub.add_parser(
        "list", help="registered MAC kinds, propagation models and topologies"
    )
    p.set_defaults(func=cmd_list)

    # Figure commands take their defaults (the paper's sizes) from their
    # rows in repro.experiments.figures.
    p = sub.add_parser("fig7", help="hidden-node PDR / queue / delay sweep (Figs. 7-9)")
    p.add_argument("--macs", nargs="+")
    p.add_argument("--deltas", nargs="+", type=float)
    p.add_argument("--packets", type=int)
    p.add_argument("--warmup", type=float)
    p.add_argument("--repetitions", type=int)
    _add_propagation_option(p)
    _add_collectors_option(p)
    _add_campaign_options(p)
    p.set_defaults(func=cmd_figure, **FIGURES["fig7"].paper)

    p = sub.add_parser("fig12", help="fluctuating-traffic convergence (Fig. 12)")
    p.add_argument("--duration", type=float)
    p.set_defaults(func=cmd_fig12, **FIGURES["fig12"].paper)

    p = sub.add_parser("slots", help="subslot utilisation (Figs. 13-15)")
    p.add_argument("--delta", type=float)
    p.add_argument("--snapshot", type=float)
    p.add_argument("--duration", type=float)
    p.set_defaults(func=cmd_slots, **FIGURES["slots"].paper)

    p = sub.add_parser("testbed", help="tree / star per-node PDR (Figs. 18-19)")
    p.add_argument("scenario", choices=["tree", "star"])
    p.add_argument("--macs", nargs="+")
    p.add_argument("--delta", type=float)
    p.add_argument("--packets", type=int)
    p.add_argument("--seed", type=int)
    _add_propagation_option(p)
    _add_collectors_option(p)
    _add_campaign_options(p)
    # Both topologies run at the same paper size.
    p.set_defaults(func=cmd_figure, **FIGURES["testbed-tree"].paper)

    p = sub.add_parser("fig21", help="DSME secondary-traffic scalability (Figs. 21-22)")
    p.add_argument("--macs", nargs="+")
    p.add_argument("--rings", nargs="+", type=int)
    p.add_argument("--duration", type=float)
    p.add_argument("--warmup", type=float)
    p.add_argument("--seed", type=int)
    _add_propagation_option(p)
    _add_collectors_option(p)
    _add_campaign_options(p)
    p.set_defaults(func=cmd_figure, **FIGURES["fig21"].paper)

    p = sub.add_parser("sweep", help="run an arbitrary campaign grid in parallel")
    _add_sweep_spec_options(p)
    p.add_argument("--metrics", nargs="+", default=None, help=_METRICS_HELP)
    p.add_argument(
        "--jsonl",
        dest="jsonl_path",
        metavar="PATH",
        help="stream per-run records to a JSONL file while the sweep runs "
        "(constant memory, one flushed JSON object per record)",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal every completed run to PATH; re-running the same "
        "command resumes from the journal instead of recomputing "
        "(output is bit-identical to an uninterrupted sweep)",
    )
    _add_hosts_option(p)
    _add_campaign_options(p)
    _add_supervision_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve", help="run the long-lived campaign service (HTTP + ndjson)"
    )
    _add_service_address_options(p)
    p.add_argument(
        "--root",
        default=".qma-campaigns",
        help="directory holding the per-campaign checkpoint journals "
        "(default: .qma-campaigns)",
    )
    p.add_argument(
        "--backend",
        choices=("pool", "remote"),
        default="pool",
        help="dispatch backend for submitted campaigns (default: pool)",
    )
    _add_hosts_option(p)
    p.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep after each completed run (demo/testing aid: makes live "
        "progress observable on tiny sweeps)",
    )
    _add_campaign_options(p)
    _add_supervision_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a sweep to a running campaign service")
    _add_sweep_spec_options(p)
    _add_service_address_options(p)
    p.add_argument(
        "--backend", choices=("pool", "remote"), default=None,
        help="override the service's dispatch backend for this campaign",
    )
    p.add_argument("--jobs", type=int, default=None, help="override worker processes")
    p.add_argument(
        "--batch-seeds", type=int, default=None, metavar="N",
        help="override seed batching",
    )
    _add_hosts_option(p)
    p.add_argument(
        "--wait", action="store_true",
        help="poll until the campaign finishes and print its final aggregates",
    )
    p.add_argument(
        "--timeout", type=float, default=3600.0,
        help="--wait timeout in seconds (default: 3600)",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="show campaign service jobs and live aggregates")
    _add_service_address_options(p)
    p.add_argument("--job", default=None, help="show one job in detail (with metrics)")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "hosts",
        help="list remote dispatch agents, their health and recent failures",
    )
    _add_service_address_options(p)
    p.set_defaults(func=cmd_hosts)

    p = sub.add_parser(
        "agent",
        help="run a campaign agent executing shard jobs for remote dispatchers",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = ephemeral, printed on start)",
    )
    p.add_argument("--workdir", default=None, help="job/journal scratch directory")
    p.add_argument(
        "--max-jobs", type=int, default=0, metavar="N",
        help="maximum concurrent shard workers (default: 0 = unbounded)",
    )
    p.add_argument("--name", default=None, help="agent name reported to dispatchers")
    p.set_defaults(func=cmd_agent)

    p = sub.add_parser(
        "resume", help="resume a checkpointed sweep from its journal file"
    )
    p.add_argument("journal", help="checkpoint journal written by sweep --checkpoint")
    p.add_argument("--metrics", nargs="+", default=None, help=_METRICS_HELP)
    p.add_argument(
        "--jsonl", dest="jsonl_path", metavar="PATH",
        help="stream the merged records to a JSONL file",
    )
    _add_hosts_option(p)
    _add_campaign_options(p)
    _add_supervision_options(p)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "cancel", help="cancel a queued or running campaign-service job"
    )
    p.add_argument("job", help="job id returned by submit")
    _add_service_address_options(p)
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser(
        "retry-quarantined",
        help="re-dispatch a journal's quarantined runs with a fresh attempt budget",
    )
    p.add_argument("journal", help="checkpoint journal of the partial campaign")
    _add_hosts_option(p)
    _add_campaign_options(p)
    _add_supervision_options(p)
    p.set_defaults(func=cmd_retry_quarantined)

    p = sub.add_parser(
        "compact",
        help="seal a journal's completed prefix into an immutable segment file",
    )
    p.add_argument("journal", help="checkpoint journal to compact")
    p.add_argument(
        "--min-runs",
        type=int,
        default=1,
        metavar="N",
        help="only compact when at least N new runs are sealable (default: 1)",
    )
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("fig26", help="expected handshake messages (Fig. 26)")
    p.add_argument("--probabilities", nargs="+", type=_parse_probability, metavar="P")
    p.add_argument("--retries", type=_parse_non_negative_int, metavar="N")
    p.set_defaults(func=cmd_fig26, **FIGURES["fig26"].paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
