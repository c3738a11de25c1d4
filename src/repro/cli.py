"""Command line interface.

Nine subcommands::

    repro-decompose decompose INPUT [--algorithm linear --colors 4 --output masks.gds]
    repro-decompose batch INPUT [INPUT ...] [--workers 4 --cache-db cells.db --json report.json]
    repro-decompose serve [--port 8000 --workers 0 --cache-db cells.db]
    repro-decompose cluster node|coordinator [...]
    repro-decompose prefill --cache-db cells.db INPUT [INPUT ...]
    repro-decompose stats INPUT
    repro-decompose generate CIRCUIT [--scale 0.35 --output circuit.json]
    repro-decompose trace --journal DIR [TRACE_ID] [--since SEQ|ISO --limit N] [--json]
    repro-decompose lint [PATHS ...] [--json --no-baseline --update-baseline --update-manifest]

``INPUT`` may be a GDSII file (``.gds``/``.gdsii``) or a JSON layout produced
by this library.  The decompose command writes the masks as a GDSII or JSON
file whose layers are named ``mask0`` .. ``mask(K-1)``.

``batch`` decomposes many layouts in one invocation: the divided components
of every layout are scheduled across ``--workers`` processes and memoised in
a shared component cache (repeated cells are solved once), then per-layout
and aggregate summaries are printed.  ``--cache-db`` backs that cache with a
SQLite file shared across invocations; ``--cache-max-entries`` bounds it.
Results are bit-identical to running ``decompose`` on each input serially.

``serve`` runs the long-lived decomposition server of
:mod:`repro.service` (also reachable as ``python -m repro.service``): a
persistent worker pool behind ``POST /decompose`` / ``POST /batch`` /
``POST /components`` / ``GET /healthz`` / ``GET /stats`` / ``GET /metrics``,
with the same SQLite cache flags so solved components persist across
requests and restarts.

``cluster`` runs the multi-node roles of :mod:`repro.cluster`: ``cluster
node`` is a decomposition server acting as a shard (identical flags to
``serve``), ``cluster coordinator`` (also ``python -m repro.cluster``) is
the front end that routes each divided component to its cache-owning node
via a consistent-hash ring and merges results byte-identically.

``prefill`` warms a ``--cache-db`` offline: it decomposes a cell library
once and stores every solved component, so nodes mounting that database
start with a hot cache.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional

from repro.core.decomposer import Decomposer
from repro.core.options import DecomposerOptions
from repro.errors import ReproError
from repro.geometry.layout import Layout
from repro.io.gds import read_gds, write_gds
from repro.io.jsonio import read_json, write_json


def _load_layout(path: str) -> Layout:
    from repro.errors import LayoutIOError

    suffix = Path(path).suffix.lower()
    try:
        if suffix in (".gds", ".gdsii", ".gds2"):
            return read_gds(path)
        return read_json(path)
    except OSError as exc:
        raise LayoutIOError(f"cannot read layout {path!r}: {exc}") from exc


def _save_layout(layout: Layout, path: str) -> None:
    suffix = Path(path).suffix.lower()
    if suffix in (".gds", ".gdsii", ".gds2"):
        write_gds(layout, path)
    else:
        write_json(layout, path)


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.analysis import decomposition_to_svg, summary_text

    layout = _load_layout(args.input)
    layer = args.layer or (layout.layers()[0] if layout.layers() else "metal1")
    result = Decomposer(_solve_options_from(args)).decompose(layout, layer=layer)
    print(summary_text(result))
    if args.output:
        _save_layout(result.to_mask_layout(), args.output)
        print(f"masks written to {args.output}")
    if args.svg:
        decomposition_to_svg(result, args.svg)
        print(f"SVG rendering written to {args.svg}")
    return 0


def _load_named_layouts(paths) -> list:
    """Load CLI input paths into the (name, layout) pairs the batch API takes."""
    return [(Path(path).stem, _load_layout(path)) for path in paths]


def _solve_options_from(args: argparse.Namespace) -> DecomposerOptions:
    """Build DecomposerOptions from the shared --colors/--algorithm/--min-spacing."""
    options = DecomposerOptions.for_k_patterning(args.colors, args.algorithm)
    if args.min_spacing is not None:
        options.construction.min_coloring_distance = args.min_spacing
    return options


def _open_cli_cache(db_path, max_entries):
    """Open a component cache, keeping the CLI's "error: ..." contract for
    bad --cache-db paths instead of a raw traceback."""
    import sqlite3

    from repro.errors import ConfigurationError
    from repro.runtime import open_cache

    try:
        return open_cache(db_path=db_path, max_entries=max_entries)
    except (OSError, sqlite3.Error, ValueError) as exc:
        raise ConfigurationError(
            f"cannot open component cache ({db_path or 'in-memory'}): {exc}"
        ) from exc


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.runtime import decompose_many

    named = _load_named_layouts(args.inputs)
    options = _solve_options_from(args)

    if args.no_cache:
        if args.cache_db or args.cache_max_entries is not None:
            raise ConfigurationError(
                "--no-cache cannot be combined with --cache-db/--cache-max-entries"
            )
        cache = False
    else:
        cache = _open_cli_cache(args.cache_db, args.cache_max_entries)

    from repro.errors import LayoutIOError

    try:
        # layer=None resolves per layout (each input may name its layers
        # differently); an explicit --layer applies to every input.
        batch = decompose_many(
            named,
            options=options,
            layer=args.layer,
            workers=args.workers,
            cache=cache,
        )
        for item in batch.items:
            print(item.summary())
        print(batch.aggregate_summary())

        try:
            if args.output_dir:
                out_dir = Path(args.output_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                for item in batch.items:
                    target = out_dir / f"{item.name}-masks.json"
                    _save_layout(item.result.to_mask_layout(), str(target))
                print(f"masks written to {out_dir}")
            if args.json:
                with open(args.json, "w", encoding="utf-8") as handle:
                    json.dump(batch.to_json_dict(), handle, indent=2)
                print(f"batch report written to {args.json}")
        except OSError as exc:
            raise LayoutIOError(f"cannot write batch outputs: {exc}") from exc
    finally:
        if cache is not False:
            cache.close()
    return 0


@contextmanager
def _daemon_logging(args: argparse.Namespace, component: str):
    """Structured ``repro`` logging for one daemon command, undone on return.

    :func:`~repro.obs.logsetup.setup_logging` reconfigures the process-wide
    ``repro`` logger (level, ``propagate``, a stderr handler); :func:`main`
    also runs in-process, where that must not outlive the command.
    """
    from repro.errors import ConfigurationError
    from repro.obs.logsetup import setup_logging

    logger = logging.getLogger("repro")
    level, propagate, handlers = logger.level, logger.propagate, list(logger.handlers)
    try:
        setup_logging(args.log_level, component)  # checks the level first
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    try:
        yield
    finally:
        for handler in logger.handlers:
            if handler not in handlers:
                handler.close()
        logger.handlers[:] = handlers
        logger.propagate = propagate
        logger.setLevel(level)


def _front_door_config(args: argparse.Namespace) -> Dict[str, object]:
    """The ``HttpServerConfig`` fields every front end takes from the flags
    :func:`_add_front_door_flags` defines."""
    return dict(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
        max_body_bytes=args.max_body_mb * 1024 * 1024,
        journal_dir=args.journal,
        journal_fsync=args.journal_fsync,
        journal_segment_bytes=args.journal_segment_mb * 1024 * 1024,
    )


def _server_config_from(args: argparse.Namespace):
    from repro.service import ServerConfig

    return ServerConfig(
        **_front_door_config(args),
        workers=args.workers,
        cache_db=args.cache_db,
        cache_max_entries=args.cache_max_entries,
        force_inline_pool=args.inline_pool,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import run_server

    with _daemon_logging(args, "server"):
        return run_server(_server_config_from(args))


def _cmd_cluster_node(args: argparse.Namespace) -> int:
    from repro.service import run_server

    # A node *is* a decomposition server — the shard role only adds traffic
    # on POST /components, routed here by the coordinators' hash ring.
    with _daemon_logging(args, "node"):
        return run_server(_server_config_from(args))


def _coordinator_config_from(args: argparse.Namespace):
    from repro.cluster import CoordinatorConfig

    peers = [
        peer.strip()
        for chunk in args.peers
        for peer in chunk.split(",")
        if peer.strip()
    ]
    return CoordinatorConfig(
        **_front_door_config(args),
        peers=peers,
        probe_interval=args.probe_interval,
        failure_threshold=args.failure_threshold,
        virtual_nodes=args.virtual_nodes,
        component_timeout=args.component_timeout,
        fanout_threads=args.fanout_threads,
        batch_max_components=args.batch_max_components,
        batch_max_bytes=args.batch_max_bytes,
    )


def _cmd_cluster_coordinator(args: argparse.Namespace) -> int:
    from repro.cluster import run_coordinator

    with _daemon_logging(args, "coordinator"):
        return run_coordinator(_coordinator_config_from(args))


def _parse_since(text: Optional[str]):
    """``--since`` accepts a journal sequence number or an ISO timestamp.

    Returns ``(since_seq, since_ts)`` — exactly one is set.  An all-digit
    value is a seq (matches what ``trace`` listings and journal lines
    print); anything else must parse as ``datetime.fromisoformat``.
    """
    from datetime import datetime

    from repro.errors import ConfigurationError

    if text is None:
        return None, None
    text = text.strip()
    if text.isdigit():
        return int(text), None
    try:
        return None, datetime.fromisoformat(text).timestamp()
    except ValueError as exc:
        raise ConfigurationError(
            f"--since {text!r} is neither a sequence number nor an ISO "
            f"timestamp (try 12345 or 2026-01-31T12:00:00)"
        ) from exc


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs.journal import read_journal
    from repro.obs.trace import assemble_trace, format_trace_tree

    since_seq, since_ts = _parse_since(args.since)
    try:
        events = read_journal(
            args.journal,
            since_seq=since_seq,
            since_ts=since_ts,
            limit=args.limit,
        )
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read journal {args.journal!r}: {exc}"
        ) from exc
    if not args.trace_id:
        # No id: list the journaled traces, most recent last.
        seen: dict = {}
        for event in events:
            trace_id = event.get("trace_id")
            if trace_id:
                seen.setdefault(trace_id, []).append(event)
        for trace_id, trace_events in seen.items():
            trace = assemble_trace(trace_events)
            print(
                f"{trace_id}  {trace['status']:<10} "
                f"{len(trace_events)} events"
            )
        print(f"{len(seen)} traces in {args.journal}")
        return 0
    matching = [e for e in events if e.get("trace_id") == args.trace_id]
    if not matching:
        print(f"error: no journaled events for trace {args.trace_id}", file=sys.stderr)
        return 1
    trace = assemble_trace(matching)
    if args.json:
        print(json.dumps(trace, indent=2, sort_keys=True))
    else:
        print(format_trace_tree(trace))
    return 0


def _cmd_prefill(args: argparse.Namespace) -> int:
    from repro.runtime import decompose_many

    named = _load_named_layouts(args.inputs)
    options = _solve_options_from(args)
    cache = _open_cli_cache(args.cache_db, args.cache_max_entries)
    try:
        before = cache.snapshot_stats()
        batch = decompose_many(
            named,
            options=options,
            layer=args.layer,
            workers=args.workers,
            cache=cache,
        )
        for item in batch.items:
            print(item.summary())
        after = cache.snapshot_stats()
        print(
            f"prefilled {args.cache_db}: {after.entries_hint} components stored "
            f"({after.misses - before.misses} solved this run, "
            f"{after.hits - before.hits} replayed) in {batch.total_seconds:.3f}s; "
            f"point 'repro-decompose cluster node --cache-db {args.cache_db}' or "
            f"'serve --cache-db {args.cache_db}' at it to start warm"
        )
    finally:
        cache.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    layout = _load_layout(args.input)
    print(f"layout {layout.name!r}: {len(layout)} shapes on layers {layout.layers()}")
    for layer in layout.layers():
        stats = layout.statistics(layer)
        print(
            f"  {layer}: {stats['shapes']} shapes, density {stats['density']:.3f}, "
            f"bbox {stats['bbox_width']}x{stats['bbox_height']} nm"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.circuits import load_circuit

    layout = load_circuit(args.circuit, scale=args.scale)
    output = args.output or f"{args.circuit.lower()}.json"
    _save_layout(layout, output)
    print(f"generated {len(layout)} shapes for {args.circuit} -> {output}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Reached only via build_parser() round-trips in tests; the normal
    # entry point short-circuits in main() with the raw argument tail.
    from repro.analysis.linter import main as lint_main

    return lint_main([])


def _add_front_door_flags(
    parser: argparse.ArgumentParser, default_port: int, default_queue_limit: int, jobs: str
) -> None:
    """Flags every front end shares: bind address, overload contract, body
    bound, event journal and logging (see :func:`_front_door_config`)."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=default_port,
        help="TCP port (0 = ephemeral, printed on start)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=default_queue_limit,
        help=f"max queued+in-flight {jobs} before requests get 503 + Retry-After",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request solve budget in seconds (504 beyond it)",
    )
    parser.add_argument(
        "--max-body-mb",
        type=int,
        default=64,
        help="largest accepted request body in MiB",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "append lifecycle events to a JSONL journal in DIR and enable "
            "request tracing plus GET /trace (default: off)"
        ),
    )
    parser.add_argument(
        "--journal-fsync",
        action="store_true",
        help="fsync every journal append (durability over throughput)",
    )
    parser.add_argument(
        "--journal-segment-mb",
        type=int,
        default=4,
        metavar="MB",
        help="rotate journal segments beyond this many MiB",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        metavar="LEVEL",
        help="structured key=value log level: debug, info, warning, error",
    )


def _add_server_flags(parser: argparse.ArgumentParser, default_port: int) -> None:
    """Flags of ``serve`` and ``cluster node`` (one server, two roles)."""
    _add_front_door_flags(parser, default_port, default_queue_limit=32, jobs="jobs")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-db",
        default=None,
        metavar="PATH",
        help="SQLite component cache shared by workers and across restarts",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the component cache to N entries (LRU eviction)",
    )
    parser.add_argument(
        "--inline-pool",
        action="store_true",
        help="run jobs on threads in-process instead of worker processes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-decompose",
        description=(
            "Quadruple (and general K) patterning layout decomposition.  "
            "Use 'batch' to decompose many layouts at once with a process "
            "pool (--workers) and a shared component cache; both knobs keep "
            "results bit-identical to the serial flow."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decompose = subparsers.add_parser("decompose", help="decompose a layout into masks")
    decompose.add_argument("input", help="input layout (.gds or .json)")
    decompose.add_argument("--layer", default=None, help="layer to decompose")
    decompose.add_argument("--colors", type=int, default=4, help="number of masks K")
    decompose.add_argument(
        "--algorithm",
        default="sdp-backtrack",
        choices=list(DecomposerOptions.KNOWN_ALGORITHMS),
        help="color assignment algorithm",
    )
    decompose.add_argument(
        "--min-spacing", type=int, default=None, help="override min coloring distance (nm)"
    )
    decompose.add_argument("--output", default=None, help="write masks to this file")
    decompose.add_argument(
        "--svg", default=None, help="write an SVG rendering of the masks to this file"
    )
    decompose.set_defaults(func=_cmd_decompose)

    batch = subparsers.add_parser(
        "batch",
        help="decompose many layouts with shared workers and component cache",
        description=(
            "Decompose several layouts in one run.  Divided components are "
            "scheduled across a process pool (--workers) and memoised in a "
            "shared component cache keyed by canonical component structure, "
            "so cells repeated within or across layouts are solved once.  "
            "Masks, conflict and stitch counts are bit-identical to serial "
            "per-layout decomposition."
        ),
    )
    batch.add_argument("inputs", nargs="+", help="input layouts (.gds or .json)")
    batch.add_argument("--layer", default=None, help="layer to decompose (default: first)")
    batch.add_argument("--colors", type=int, default=4, help="number of masks K")
    batch.add_argument(
        "--algorithm",
        default="sdp-backtrack",
        choices=list(DecomposerOptions.KNOWN_ALGORITHMS),
        help="color assignment algorithm",
    )
    batch.add_argument(
        "--min-spacing", type=int, default=None, help="override min coloring distance (nm)"
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for component coloring (1 = serial, 0 = one per CPU)",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared component cache (every component re-solved)",
    )
    batch.add_argument(
        "--cache-db",
        default=None,
        metavar="PATH",
        help=(
            "back the component cache with a SQLite file at PATH, shared "
            "across processes and invocations (default: in-memory LRU)"
        ),
    )
    batch.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the component cache to N entries (LRU eviction)",
    )
    batch.add_argument(
        "--output-dir", default=None, help="write per-layout mask files to this directory"
    )
    batch.add_argument(
        "--json", default=None, help="write the per-layout + aggregate report as JSON"
    )
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve",
        help="run the decomposition server (persistent worker pool + HTTP API)",
        description=(
            "Start the long-running decomposition service: an asyncio HTTP "
            "front end (POST /decompose, POST /batch, POST /components, "
            "GET /healthz, GET /stats, GET /metrics) over a pool of worker "
            "processes created once at startup.  With --cache-db, solved "
            "components persist in a SQLite store shared by every worker "
            "and surviving restarts.  Served masks are bit-identical to the "
            "serial decompose flow.  Also invocable as "
            "'python -m repro.service'."
        ),
    )
    _add_server_flags(serve, default_port=8000)
    serve.set_defaults(func=_cmd_serve)

    cluster = subparsers.add_parser(
        "cluster",
        help="run a multi-node decomposition cluster role (node / coordinator)",
        description=(
            "Multi-node sharded decomposition.  'node' runs one shard (a "
            "decomposition server whose component cache owns a hash range); "
            "'coordinator' runs the front end that splits layouts into "
            "canonical components, routes each to its cache-owning node via "
            "a consistent-hash ring, and merges results byte-identically to "
            "a single-process run.  Kill a node and the coordinator "
            "rebalances the ring and re-routes in-flight components."
        ),
    )
    roles = cluster.add_subparsers(dest="role", required=True)

    node = roles.add_parser(
        "node",
        help="run one cluster shard (decomposition server + component endpoint)",
        description=(
            "One cluster shard.  Identical to 'serve' — the coordinators "
            "add traffic on POST /components (binary component frames; "
            "coordinators refuse a node whose /healthz reports another "
            "frame version).  Give every node of a cluster "
            "its own --cache-db (or its own disk): a node owns the cache "
            "for its hash range, so sharing one database across shards is "
            "unnecessary.  Use 'repro-decompose prefill' to warm the cache "
            "before the node joins."
        ),
    )
    _add_server_flags(node, default_port=8001)
    node.set_defaults(func=_cmd_cluster_node)

    coordinator = roles.add_parser(
        "coordinator",
        help="run the cluster front end (hash-routes components to nodes)",
        description=(
            "The cluster front end: accepts the same POST /decompose and "
            "POST /batch API as 'serve', shards every layout's components "
            "across the --peers nodes by canonical hash, and merges the "
            "results.  Any number of coordinators with the same --peers "
            "list route identically (placement is deterministic), so "
            "coordinators scale out statelessly.  Also invocable as "
            "'python -m repro.cluster'."
        ),
    )
    _add_front_door_flags(
        coordinator, default_port=8100, default_queue_limit=16, jobs="layout jobs"
    )
    coordinator.add_argument(
        "--peers",
        action="append",
        required=True,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="cluster nodes (repeat the flag or separate with commas)",
    )
    coordinator.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        help="seconds between node heartbeat probes",
    )
    coordinator.add_argument(
        "--failure-threshold",
        type=int,
        default=2,
        help="consecutive failed heartbeats before a node leaves the ring",
    )
    coordinator.add_argument(
        "--virtual-nodes",
        type=int,
        default=64,
        help="virtual nodes per physical node on the consistent-hash ring",
    )
    coordinator.add_argument(
        "--component-timeout",
        type=float,
        default=120.0,
        help="per-component node request timeout in seconds",
    )
    coordinator.add_argument(
        "--fanout-threads",
        type=int,
        default=8,
        help="threads fanning component requests out to nodes",
    )
    coordinator.add_argument(
        "--batch-max-components",
        type=int,
        default=64,
        metavar="N",
        help="most components micro-batched into one POST /components request",
    )
    coordinator.add_argument(
        "--batch-max-bytes",
        type=int,
        default=4 * 1024 * 1024,
        metavar="BYTES",
        help=(
            "approximate serialized-size bound per micro-batch "
            "(an oversized single component still ships, alone)"
        ),
    )
    coordinator.set_defaults(func=_cmd_cluster_coordinator)

    prefill = subparsers.add_parser(
        "prefill",
        help="warm a --cache-db offline by decomposing a cell library",
        description=(
            "Decompose LAYOUTS once and store every solved component in the "
            "SQLite cache at --cache-db, so a server or cluster node "
            "mounting that file starts with a warm cache (repeated cells "
            "are replayed instead of re-solved from the first request on)."
        ),
    )
    prefill.add_argument("inputs", nargs="+", help="input layouts (.gds or .json)")
    prefill.add_argument(
        "--cache-db",
        required=True,
        metavar="PATH",
        help="SQLite component cache file to create or extend",
    )
    prefill.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the component cache to N entries (LRU eviction)",
    )
    prefill.add_argument("--layer", default=None, help="layer to decompose (default: first)")
    prefill.add_argument("--colors", type=int, default=4, help="number of masks K")
    prefill.add_argument(
        "--algorithm",
        default="sdp-backtrack",
        choices=list(DecomposerOptions.KNOWN_ALGORITHMS),
        help="color assignment algorithm",
    )
    prefill.add_argument(
        "--min-spacing", type=int, default=None, help="override min coloring distance (nm)"
    )
    prefill.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for component coloring (1 = serial, 0 = one per CPU)",
    )
    prefill.set_defaults(func=_cmd_prefill)

    trace = subparsers.add_parser(
        "trace",
        help="inspect a server/coordinator event journal (list or show traces)",
        description=(
            "Read the append-only event journal a '--journal DIR' server or "
            "coordinator wrote.  Without TRACE_ID, lists every journaled "
            "trace; with one, prints the assembled span tree (per-stage "
            "offsets and durations) and lifecycle events."
        ),
    )
    trace.add_argument(
        "--journal", required=True, metavar="DIR", help="journal directory to read"
    )
    trace.add_argument(
        "trace_id", nargs="?", default=None, help="trace id to assemble and print"
    )
    trace.add_argument(
        "--since",
        default=None,
        metavar="SEQ|ISO",
        help=(
            "only events after journal sequence SEQ, or at/after an ISO "
            "timestamp (skips whole segments via their first-event index)"
        ),
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="keep only the last N matching events",
    )
    trace.add_argument(
        "--json", action="store_true", help="print the assembled trace as JSON"
    )
    trace.set_defaults(func=_cmd_trace)

    stats = subparsers.add_parser("stats", help="print layout statistics")
    stats.add_argument("input", help="input layout (.gds or .json)")
    stats.set_defaults(func=_cmd_stats)

    generate = subparsers.add_parser("generate", help="generate a synthetic benchmark circuit")
    generate.add_argument("circuit", help="circuit name, e.g. C432 or S38417")
    generate.add_argument("--scale", type=float, default=0.35, help="size scale factor")
    generate.add_argument("--output", default=None, help="output file (.gds or .json)")
    generate.set_defaults(func=_cmd_generate)

    # ``lint`` is dispatched in main() before this parser runs (its flags,
    # --json/--update-manifest/..., belong to the linter's own parser and
    # argparse.REMAINDER cannot reliably forward leading optionals); the
    # stub exists so ``repro-decompose --help`` lists the subcommand.
    lint = subparsers.add_parser(
        "lint",
        help="run the project static-analysis pass (see python -m repro.analysis)",
        add_help=False,
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        from repro.analysis.linter import main as lint_main

        return lint_main(raw[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
