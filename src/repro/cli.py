"""Command-line interface for the reproduction.

``repro-experiments``-style usage (via ``python -m repro.cli``):

* ``list`` -- show the experiment registry (one entry per paper table/figure).
* ``run <experiment> [...]`` -- run one or more experiments and print the
  formatted tables (equivalent to ``examples/reproduce_paper.py``).
* ``zoo`` -- train/load the scaled-down model zoo and print a summary.
* ``serve`` -- start the dynamically-batched NB-SMT inference server
  (:mod:`repro.serve`) for selected zoo models.
* ``client`` -- closed-loop load generator against a running server.
* ``dash`` -- standalone telemetry dashboard over an event-spool
  directory (a live sweep's ``--telemetry-dir`` or a sharded service's).

``run`` shows a live one-line progress ticker (points done/total, reuse
hits, ETA) sourced from the telemetry event bus; ``--no-progress``
silences it (e.g. when piping output).

The CLI is a thin layer over :mod:`repro.eval.experiments` and
:mod:`repro.serve` so that results are identical to the benchmark harness.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro.eval.experiments import EXPERIMENTS


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, module in EXPERIMENTS.items():
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name.ljust(width)}  {summary}")
    return 0


class _ProgressTicker:
    """Live one-line sweep progress sourced from the telemetry spool.

    The parent and every forked sweep worker publish point events into one
    spool directory; the ticker follows it, folds the events through the
    :class:`~repro.telemetry.timeseries.TelemetryAggregator` (the same
    consumer the dashboard uses) and redraws one ``\\r`` status line on
    stderr twice a second.
    """

    def __init__(self, spool_dir: str):
        import threading

        from repro.telemetry.bus import SpoolFollower
        from repro.telemetry.timeseries import TelemetryAggregator

        self.follower = SpoolFollower(spool_dir)
        self.aggregator = TelemetryAggregator()
        self._stop = threading.Event()
        self._pause = threading.Event()
        self._drawn = False
        self._thread = threading.Thread(
            target=self._loop, name="sweep-ticker", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _line(self) -> str:
        sweep = self.aggregator.snapshot()["sweep"]
        label = f"[{sweep['experiment']}] " if sweep["experiment"] else ""
        eta = ""
        if not sweep["finished"] and sweep["eta_s"] is not None:
            eta = f" ETA {sweep['eta_s']:.0f}s"
        rate = (
            f" {sweep['points_per_s']:.2f}/s" if sweep["points_per_s"] else ""
        )
        workers = sum(
            1 for entry in sweep["workers"].values() if entry.get("alive")
        )
        workers_note = f" workers {workers}" if workers else ""
        return (
            f"{label}{sweep['done']}/{sweep['total']} points "
            f"({sweep['reused']} reused{rate}{eta}{workers_note})"
        )

    def _loop(self) -> None:
        while not self._stop.wait(0.5):
            self.aggregator.consume_all(self.follower.poll())
            if self._pause.is_set():
                continue
            print(f"\r\x1b[K{self._line()}", end="", file=sys.stderr,
                  flush=True)
            self._drawn = True

    def _clear(self) -> None:
        if self._drawn:
            print("\r\x1b[K", end="", file=sys.stderr, flush=True)
            self._drawn = False

    def pause(self) -> None:
        """Blank the status line while tables print (no interleaving)."""
        self._pause.set()
        self._clear()

    def resume(self) -> None:
        self._pause.clear()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        # One final catch-up so the summary reflects every event.
        self.aggregator.consume_all(self.follower.poll())
        self._clear()

    def summary(self) -> str:
        return self._line()


def _cmd_run(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.eval.sweep import SweepSession
    from repro.telemetry import bus as telemetry_bus

    names = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"known experiments: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    # One session spans all selected experiments, so sweep points shared
    # between experiments (e.g. Fig. 8 / Fig. 9) are computed once and a
    # --resume run continues from whatever points already completed.
    session = SweepSession(
        scale=args.scale, workers=args.workers, resume=args.resume
    )
    # Telemetry: parent and forked workers spool their events into one
    # directory; the progress ticker (and any `repro.cli dash --dir`)
    # follows it.  An explicit --telemetry-dir survives the run.  With
    # --no-progress and no explicit directory there is no possible
    # consumer, so nothing is attached and the hot path stays event-free.
    spool_dir = args.telemetry_dir
    owns_spool = spool_dir is None and not args.no_progress
    bus = telemetry_bus.get_bus()
    ticker = None
    if spool_dir is not None or not args.no_progress:
        if owns_spool:
            spool_dir = tempfile.mkdtemp(prefix="repro-telemetry-")
        bus.configure_source(role="sweep")
        bus.attach_spool(spool_dir, role="sweep")
    if not args.no_progress:
        ticker = _ProgressTicker(spool_dir)
        ticker.start()
    hub = None
    if args.listen is not None:
        from repro.cluster.worker import SweepHub

        listen = (
            args.listen if ":" in args.listen else f"127.0.0.1:{args.listen}"
        )
        hub = SweepHub.create(session, listen=listen, telemetry_dir=spool_dir)
        session.hub = hub
        host, port = hub.address
        print(
            f"sweep hub: listening on {host}:{port} (connect executors "
            f"with `repro.cli worker --connect {host}:{port}`; "
            f"trace {hub.trace_id})",
            file=sys.stderr,
        )
    try:
        for name in names:
            module = EXPERIMENTS[name]
            start = time.monotonic()
            print(f"\n=== {name} ===")
            telemetry_bus.publish("experiment_started", name=name)
            result = module.run(scale=args.scale, session=session)
            if ticker is not None:
                ticker.pause()
            print(module.format_result(result))
            print(f"[{name} finished in {time.monotonic() - start:.1f}s]")
            if ticker is not None:
                ticker.resume()
    finally:
        if hub is not None:
            hub.close()
        if ticker is not None:
            ticker.stop()
            print(f"sweep: {ticker.summary()}", file=sys.stderr)
        if spool_dir is not None:
            bus.detach_spool()
        if owns_spool:
            shutil.rmtree(spool_dir, ignore_errors=True)
        elif args.telemetry_dir is not None:
            print(f"telemetry spool kept at {spool_dir}", file=sys.stderr)
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.models.zoo import MODEL_BUILDERS, load_trained_model
    from repro.utils.tables import format_table

    rows = []
    names = args.models or sorted(MODEL_BUILDERS)
    for name in names:
        trained = load_trained_model(name, fast=(args.scale == "fast"))
        rows.append(
            (
                trained.display_name,
                trained.model.num_parameters(),
                f"{100 * trained.fp32_accuracy:.1f}%",
            )
        )
    print(format_table(["Model", "Parameters", "FP32 top-1"], rows,
                       title="Scaled-down model zoo"))
    return 0


def _load_alert_documents(path: str | None, flag: str, parse):
    """Parse an ``--alert-rules``/``--alert-routes`` JSON list file."""
    if path is None:
        return None
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            documents = json.load(handle)
        if not isinstance(documents, list):
            raise ValueError("the file must hold a JSON list")
        return tuple(parse(document) for document in documents)
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{flag} {path}: {exc}") from exc


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.registry import default_registry
    from repro.serve.server import ServeConfig, run_server
    from repro.telemetry.alerts import AlertRule, SinkRoute

    overrides = {
        "threads": args.threads,
        "max_batch": args.max_batch,
        "max_pending": args.max_pending,
        "collect_stats": not args.no_stats,
        "ladder_rungs": args.ladder_rungs,
        "slow_threads": args.slow_threads,
        "latency_budget_ms": args.latency_budget_ms,
        "pace_sysmt": args.pace,
    }
    if args.policy is not None:
        overrides["policy"] = args.policy
    registry = default_registry(models=args.models or ["resnet18"], **overrides)
    # One config for every topology: a single server, the --shards fork
    # and a --federate member all run with the same settings.
    try:
        config = ServeConfig(
            scale=args.scale,
            fork_workers=args.fork_workers,
            host=args.host,
            port=args.port,
            telemetry_dir=args.telemetry_dir,
            spool_budget_bytes=int(args.spool_budget_mb * 1024 * 1024),
            max_connections=args.max_connections,
            alerts=not args.no_alerts,
            alert_rules=_load_alert_documents(
                args.alert_rules, "--alert-rules", AlertRule.from_dict
            ),
            alert_webhook=args.alert_webhook,
            alert_routes=_load_alert_documents(
                args.alert_routes, "--alert-routes", SinkRoute.from_dict
            ),
            probe_interval_s=args.probe_interval_s,
            tracing=not args.no_trace,
            trace_sample=args.trace_sample,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.federate is not None:
        # Cross-machine federation: this process's metrics exchange, QoS
        # quorum and telemetry spool all flow through the cluster agent at
        # --federate, so servers on different hosts form one service.
        if args.shards > 1:
            print(
                "--federate federates whole processes; run one `serve "
                "--federate` per machine instead of combining it with "
                "--shards",
                file=sys.stderr,
            )
            return 2
        from repro.cluster.transport import SocketTransport
        from repro.serve.sharding import serve_member

        index, count = args.fed_index, args.fed_count
        if not 0 <= index < count:
            print("--fed-index must be in [0, --fed-count)", file=sys.stderr)
            return 2
        transport = SocketTransport(
            args.federate, node=f"serve-{index}", role="serve"
        )
        serve_member(
            registry, transport, index, count, config,
            coordinate=not args.no_coordinate,
        )
        return 0
    if args.shards > 1:
        from repro.serve.sharding import run_sharded

        run_sharded(
            registry, args.shards, config, coordinate=not args.no_coordinate
        )
        return 0
    run_server(registry, config)
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry.dashboard import run_dashboard

    # A sharded server keeps its event spool under `<exchange>/telemetry`
    # (the exchange root holds only shard-*.json documents): pointing
    # `dash` at the exchange dir must find the events, not show an empty
    # dashboard.
    directory = args.dir
    nested = os.path.join(directory, "telemetry")
    try:
        has_spools = any(
            name.endswith((".jsonl", ".jsonl.old"))
            for name in os.listdir(directory)
        )
    except OSError:
        has_spools = False
    if not has_spools and os.path.isdir(nested):
        print(f"repro.telemetry: following {nested}", flush=True)
        directory = nested
    run_dashboard(spool_dir=directory, host=args.host, port=args.port)
    return 0


def _silence_rule(args: argparse.Namespace) -> int:
    """Write a silence window into the shared silence document.

    Targets ``<dir>/history`` when it exists (a server's history ring
    directory), else ``<dir>`` itself; every engine sharing the
    directory picks the window up within its ~1s refresh.
    """
    import os
    import time as _time

    from repro.cluster.documents import DocumentStore
    from repro.telemetry.alerts import merge_silences

    directory = args.dir
    nested = os.path.join(directory, "history")
    if os.path.isdir(nested):
        directory = nested
    deadline = _time.time() + max(0.0, args.for_s)
    silences = merge_silences(
        DocumentStore.for_directory(directory), {args.silence: deadline}
    )
    until = _time.strftime(
        "%H:%M:%S", _time.localtime(silences.get(args.silence, deadline))
    )
    print(
        f"alerts: silenced rule {args.silence!r} for {args.for_s:g}s "
        f"(until {until}, via {directory})"
    )
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    """Follow a spool directory; print the alert lifecycle as it happens."""
    import json
    import time as _time

    from repro.telemetry.alerts import (
        ALERT_EVENT_TYPES,
        AlertEngine,
        AlertRule,
        default_rules,
    )
    from repro.telemetry.bus import SpoolFollower

    if args.silence is not None:
        return _silence_rule(args)

    def show(alert: dict, derived: bool = False) -> None:
        status = str(alert.get("status", "?")).upper()
        stamp = _time.strftime(
            "%H:%M:%S", _time.localtime(float(alert.get("at") or _time.time()))
        )
        message = alert.get("message") or (
            f"{alert.get('rule')}[{alert.get('key')}]"
        )
        origin = "local" if derived else "bus"
        print(f"[{stamp}] {status:<8} {message} ({origin})", flush=True)

    engine = None
    if args.evaluate or args.rules:
        rules = default_rules()
        if args.rules:
            with open(args.rules, encoding="utf-8") as handle:
                rules = [AlertRule.from_dict(doc) for doc in json.load(handle)]
        engine = AlertEngine(
            rules, publish=None,
            sinks=[lambda alert: show(alert, derived=True)],
        )
    follower = SpoolFollower(args.dir)
    try:
        while True:
            for event in follower.poll():
                if event.type in ALERT_EVENT_TYPES:
                    # Server-published lifecycle events replay verbatim.
                    show(event.data)
                elif engine is not None:
                    engine.consume(event)
            if args.once:
                break
            _time.sleep(args.poll_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    stats = follower.stats()
    if stats.get("corrupt_lines"):
        print(
            f"alerts: skipped {stats['corrupt_lines']} corrupt spool line(s)",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """List (or waterfall-render) persisted traces from a ring directory."""
    import os

    from repro.telemetry.tracing import (
        TraceStore,
        render_waterfall,
        summarize_trace,
    )
    from repro.utils.tables import format_table

    # A serving front-end keeps its trace ring under `<telemetry>/traces`;
    # accept either the telemetry dir or the traces dir itself.
    directory = args.dir
    nested = os.path.join(directory, "traces")
    if os.path.isdir(nested):
        directory = nested
    store = TraceStore(directory)
    # compact=False: inspection must never rewrite a live server's ring.
    traces = store.load_traces(compact=False)
    if args.id:
        wanted = args.id.strip().lower()
        spans = traces.get(wanted)
        if not spans:
            print(
                f"trace: no spans for id {args.id!r} in {directory}",
                file=sys.stderr,
            )
            return 1
        summary = summarize_trace(wanted, spans)
        line = (
            f"trace {wanted}: {summary['spans']} span(s), "
            f"{summary['duration_ms']:.2f} ms, status {summary['status']}"
        )
        if summary["exemplar"]:
            line += f", exemplar={summary['exemplar']}"
        print(line)
        for row in render_waterfall(spans):
            print(row)
        return 0
    if not traces:
        print(f"trace: no traces in {directory}", file=sys.stderr)
        return 1
    summaries = sorted(
        (summarize_trace(tid, spans) for tid, spans in traces.items()),
        key=lambda s: s["start"],
        reverse=True,
    )
    rows = [
        (
            s["trace_id"],
            s["root"],
            s["endpoint"] or "-",
            f"{s['duration_ms']:.2f}",
            str(s["spans"]),
            s["status"] + (f" [{s['exemplar']}]" if s["exemplar"] else ""),
        )
        for s in summaries
    ]
    print(
        format_table(
            ["Trace", "Root", "Endpoint", "ms", "Spans", "Status"],
            rows,
            title=f"Traces in {directory}",
        )
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import importlib

    from repro.cluster.worker import RemoteWorker

    # Point runners register on import; the built-in experiment registry
    # is imported by RemoteWorker.run itself, --import adds extra kinds
    # (e.g. a test harness's cheap runners).
    for module in args.imports or []:
        importlib.import_module(module)
    worker = RemoteWorker(
        args.connect, node=args.node, max_idle_s=args.max_idle_s
    )
    summary = worker.run()
    print(
        f"worker: completed {summary['completed_points']} point(s) in "
        f"{summary['completed_groups']} group(s), "
        f"{summary['failed_groups']} group(s) failed",
        file=sys.stderr,
    )
    return 0


def _cmd_agent(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.cluster.agent import ClusterAgent
    from repro.cluster.transport import parse_address

    listen = args.listen if ":" in args.listen else f"127.0.0.1:{args.listen}"
    host, port = parse_address(listen)
    spaces = {
        name: os.path.join(args.dir, name)
        for name in ("exchange", "qos", "telemetry", "points")
    }
    agent = ClusterAgent(spaces, host=host, port=port, node=args.node)

    async def serve() -> None:
        bound_host, bound_port = await agent.start()
        print(
            f"repro.cluster: agent {agent.node!r} on "
            f"{bound_host}:{bound_port} serving {sorted(spaces)} under "
            f"{args.dir}",
            flush=True,
        )
        await agent.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.models.zoo import load_dataset
    from repro.serve.client import fetch_json, run_load
    from repro.utils.tables import format_table

    dataset = load_dataset(fast=(args.scale == "fast"))
    images = dataset.val_images[: args.pool_images]
    labels = dataset.val_labels[: args.pool_images]
    retry = None
    if args.retries > 0:
        from repro.serve.client import RetryPolicy

        retry = RetryPolicy(max_retries=args.retries)
    report = run_load(
        args.url,
        args.model,
        images,
        labels,
        requests=args.requests,
        concurrency=args.concurrency,
        batch_size=args.batch_size,
        mode=args.mode,
        rate=args.rate,
        latency_budget_ms=args.latency_budget_ms,
        deadline_ms=args.deadline_ms,
        retry=retry,
    )
    summary = report.summary()
    rows = [(key, f"{value:.4g}" if isinstance(value, float) else str(value))
            for key, value in summary.items()]
    print(format_table(["Metric", "Value"], rows,
                       title=f"Load report: {args.model} @ {args.url}"))
    if args.show_metrics:
        metrics = fetch_json(args.url, "/v1/metrics")
        endpoint = metrics.get("endpoints", {}).get(args.model)
        if endpoint:
            print(
                f"server: batches={endpoint['batches']} "
                f"mean_batch={endpoint['mean_batch_size']:.2f} "
                f"fill={endpoint['batch_fill']:.2f} "
                f"p99={endpoint['latency']['p99_s'] * 1000:.1f}ms"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NB-SMT / SySMT reproduction (Shomron & Weiser, MICRO 2020)",
    )
    parser.add_argument(
        "--scale",
        choices=("fast", "full"),
        default="fast",
        help="experiment scale (fast: small eval sets; full: larger protocol)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT")
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker budget for the sweep scheduler (points x image shards; "
        "never oversubscribes the machine)",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse sweep points persisted by earlier runs instead of "
        "recomputing them (continue an interrupted suite)",
    )
    run_parser.add_argument(
        "--no-progress",
        action="store_true",
        help="disable the live one-line sweep progress ticker",
    )
    run_parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="spool sweep telemetry events into this directory (kept after "
        "the run; watch it live with `repro.cli dash --dir DIR`)",
    )
    run_parser.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="serve a sweep hub on this address: remote `repro.cli worker "
        "--connect` processes lease pending points and stream results "
        "(and telemetry) into this run's store (port 0 picks a free port)",
    )
    run_parser.set_defaults(func=_cmd_run)

    zoo_parser = subparsers.add_parser("zoo", help="train/load the model zoo")
    zoo_parser.add_argument("models", nargs="*", metavar="MODEL")
    zoo_parser.set_defaults(func=_cmd_zoo)

    serve_parser = subparsers.add_parser(
        "serve", help="start the dynamically-batched NB-SMT inference server"
    )
    serve_parser.add_argument(
        "models",
        nargs="*",
        metavar="MODEL",
        default=None,
        help="zoo models to serve (default: resnet18)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8421)
    serve_parser.add_argument(
        "--threads", type=int, default=4, help="NB-SMT threads per endpoint"
    )
    serve_parser.add_argument(
        "--policy", default=None, help="packing policy (default: per-model)"
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=32, help="images per engine call"
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=512,
        help="admission budget: in-flight images before shedding (429)",
    )
    serve_parser.add_argument(
        "--fork-workers",
        type=int,
        default=0,
        help="forked worker replicas per endpoint (0 = serve in-process)",
    )
    serve_parser.add_argument(
        "--no-stats",
        action="store_true",
        help="skip NB-SMT statistics collection on the serving path",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="front-end server processes sharing the port via SO_REUSEPORT "
        "(1 = single process)",
    )
    serve_parser.add_argument(
        "--ladder-rungs",
        type=int,
        default=0,
        help="operating-point ladder size per endpoint (>1 enables the "
        "adaptive QoS controller; rung 0 slows the N-1 highest-MSE layers)",
    )
    serve_parser.add_argument(
        "--slow-threads",
        type=int,
        default=2,
        help="thread count of throttled (slowed) layers on the ladder",
    )
    serve_parser.add_argument(
        "--latency-budget-ms",
        type=float,
        default=0.0,
        help="per-request service objective the QoS controller defends "
        "(0 = no latency term in the overload signal)",
    )
    serve_parser.add_argument(
        "--pace",
        action="store_true",
        help="pace batches to the modeled SySMT service time of the active "
        "operating point (the host functional simulation is cost-inverted)",
    )
    serve_parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="spool telemetry events (and, with --shards, the metrics/QoS "
        "exchange) into this directory; with --federate events go to the "
        "agent and the directory keeps the alert history and trace rings; "
        "the live dashboard at /dashboard works with or without it",
    )
    serve_parser.add_argument(
        "--no-coordinate",
        action="store_true",
        help="with --shards: let every shard walk its QoS ladder "
        "independently instead of following the service-wide coordinator",
    )
    serve_parser.add_argument(
        "--max-connections",
        type=int,
        default=256,
        help="open-connection cap per front-end process; beyond it the "
        "idlest parked connection is evicted (slow-loris defense)",
    )
    serve_parser.add_argument(
        "--spool-budget-mb",
        type=float,
        default=0.0,
        help="disk budget for the telemetry spool (and, with --shards, the "
        "metrics exchange); over budget the writer degrades to "
        "count-and-drop instead of filling the disk (0 = unlimited)",
    )
    serve_parser.add_argument(
        "--federate",
        default=None,
        metavar="HOST:PORT",
        help="join the cross-machine serving federation whose cluster agent "
        "(`repro.cli agent`) listens at this address: metrics exchange, "
        "QoS quorum and telemetry all flow through the agent's shared "
        "spaces, so servers on different hosts answer /v1/metrics and "
        "walk the QoS ladder as one service",
    )
    serve_parser.add_argument(
        "--fed-index",
        type=int,
        default=0,
        help="this process's shard index within the federation",
    )
    serve_parser.add_argument(
        "--fed-count",
        type=int,
        default=1,
        help="total server processes in the federation",
    )
    serve_parser.add_argument(
        "--no-alerts",
        action="store_true",
        help="disable the alert engine (rules over the telemetry bus, "
        "lifecycle events, history ring)",
    )
    serve_parser.add_argument(
        "--alert-rules",
        default=None,
        metavar="FILE",
        help="JSON list of alert-rule objects replacing the default rules "
        "(see docs/telemetry.md for the schema)",
    )
    serve_parser.add_argument(
        "--alert-webhook",
        default=None,
        metavar="URL",
        help="POST every alert fire/resolve to this URL (retrying backoff, "
        "delivered off the serving path)",
    )
    serve_parser.add_argument(
        "--alert-routes",
        default=None,
        metavar="FILE",
        help="JSON list of sink routes ({rule glob, severity, sinks}): "
        "first match selects which named sinks (e.g. \"webhook\") receive "
        "an alert; an empty sink list keeps it bus-only",
    )
    serve_parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable distributed request tracing (span events, exemplars, "
        "the /v1/traces routes)",
    )
    serve_parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.1,
        help="head-sampling probability for request traces; budget "
        "breaches, sheds, expiries and errors are always kept as "
        "exemplars regardless (default 0.1)",
    )
    serve_parser.add_argument(
        "--probe-interval-s",
        type=float,
        default=0.0,
        help="send one synthetic probe request per endpoint every N seconds "
        "through the real batcher/engine path; probe_result events feed "
        "the probe_failure rule (0 = no probes)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    alerts_parser = subparsers.add_parser(
        "alerts",
        help="follow a telemetry spool directory and print the alert "
        "lifecycle (fire/resolve) as it streams",
    )
    alerts_parser.add_argument(
        "--dir",
        required=True,
        help="telemetry spool directory to follow (a server's "
        "--telemetry-dir)",
    )
    alerts_parser.add_argument(
        "--evaluate",
        action="store_true",
        help="additionally run the default rules locally over the followed "
        "events (derives alerts here even if the server runs --no-alerts)",
    )
    alerts_parser.add_argument(
        "--rules",
        default=None,
        metavar="FILE",
        help="JSON list of alert-rule objects for --evaluate (implies it)",
    )
    alerts_parser.add_argument(
        "--once",
        action="store_true",
        help="drain what the spool holds now, print, and exit (scripting)",
    )
    alerts_parser.add_argument(
        "--poll-s", type=float, default=0.5, help="spool poll interval"
    )
    alerts_parser.add_argument(
        "--silence",
        default=None,
        metavar="RULE",
        help="instead of following: silence this alert rule (by name) for "
        "--for seconds, then exit; engines sharing the directory pick "
        "the window up within ~1s",
    )
    alerts_parser.add_argument(
        "--for",
        dest="for_s",
        type=float,
        default=300.0,
        metavar="S",
        help="silence window length in seconds (with --silence; "
        "default 300)",
    )
    alerts_parser.set_defaults(func=_cmd_alerts)

    dash_parser = subparsers.add_parser(
        "dash",
        help="standalone telemetry dashboard over an event-spool directory",
    )
    dash_parser.add_argument(
        "--dir",
        required=True,
        help="telemetry spool directory to follow (a run's --telemetry-dir, "
        "or `<exchange>/telemetry` of a sharded server)",
    )
    dash_parser.add_argument("--host", default="127.0.0.1")
    dash_parser.add_argument("--port", type=int, default=8471)
    dash_parser.set_defaults(func=_cmd_dash)

    trace_parser = subparsers.add_parser(
        "trace",
        help="list or inspect persisted request traces from a trace ring "
        "directory (a server's `<telemetry>/traces`)",
    )
    trace_parser.add_argument(
        "--dir",
        required=True,
        help="trace ring directory (a server's --telemetry-dir or its "
        "`traces` subdirectory)",
    )
    trace_parser.add_argument(
        "--id",
        default=None,
        metavar="TRACE",
        help="render this trace id as an ASCII waterfall instead of "
        "listing all traces",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    worker_parser = subparsers.add_parser(
        "worker",
        help="remote sweep executor: lease points from a `run --listen` hub",
    )
    worker_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the sweep hub (printed by `repro.cli run --listen`)",
    )
    worker_parser.add_argument(
        "--node",
        default=None,
        help="node identity in the hub's roster (default: host-role-pid)",
    )
    worker_parser.add_argument(
        "--max-idle-s",
        type=float,
        default=None,
        help="exit after this long without leased work (default: stay "
        "resident until the hub goes away)",
    )
    worker_parser.add_argument(
        "--import",
        dest="imports",
        action="append",
        metavar="MODULE",
        help="import MODULE before serving (registers extra point runners)",
    )
    worker_parser.set_defaults(func=_cmd_worker)

    agent_parser = subparsers.add_parser(
        "agent",
        help="standalone cluster agent serving shared spaces over TCP",
    )
    agent_parser.add_argument(
        "--dir",
        required=True,
        help="root directory of the served spaces (exchange/, qos/, "
        "telemetry/, points/ are created under it; follow telemetry/ "
        "with `repro.cli dash --dir`)",
    )
    agent_parser.add_argument(
        "--listen", default="127.0.0.1:9431", metavar="[HOST:]PORT"
    )
    agent_parser.add_argument("--node", default="agent")
    agent_parser.set_defaults(func=_cmd_agent)

    client_parser = subparsers.add_parser(
        "client", help="closed-loop load generator against a running server"
    )
    client_parser.add_argument("model", metavar="MODEL")
    client_parser.add_argument("--url", default="http://127.0.0.1:8421")
    client_parser.add_argument("--requests", type=int, default=100)
    client_parser.add_argument("--concurrency", type=int, default=8)
    client_parser.add_argument(
        "--batch-size", type=int, default=1, help="images per request"
    )
    client_parser.add_argument(
        "--pool-images",
        type=int,
        default=128,
        help="validation images cycled through by the generator",
    )
    client_parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed loop (back-to-back) or open loop (fixed arrival rate; "
        "the only way to generate sustained overload)",
    )
    client_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in requests/second",
    )
    client_parser.add_argument(
        "--latency-budget-ms",
        type=float,
        default=None,
        help="count responses within this budget (reports goodput)",
    )
    client_parser.add_argument(
        "--show-metrics",
        action="store_true",
        help="also fetch and summarize the server-side /v1/metrics",
    )
    client_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="attach a per-request deadline (X-Deadline-Ms); each retry "
        "carries the remaining budget, 504s count as expired",
    )
    client_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry budget per request for sheds (429, honoring "
        "Retry-After) and transport errors, on capped exponential "
        "backoff with jitter and a stable idempotency key",
    )
    client_parser.set_defaults(func=_cmd_client)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
