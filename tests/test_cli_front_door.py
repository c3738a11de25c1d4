"""Pins of the front-door command lines: ``serve``, ``cluster node`` and
``cluster coordinator``.

Every action each parser defines (option strings, dest, default, help, type,
metavar, required, action kind), and every config field the parsed flags
map to, as the three roles took them before their shared flags were defined
once.
"""

import argparse
import logging

import pytest

from repro.cli import build_parser, main


def _store(flag, default, help, type=None, metavar=None, kind="_StoreAction"):
    return ((flag,), default, help, type, metavar, False, kind)


BIND_HELP = "TCP port (0 = ephemeral, printed on start)"
#: Flags every front end defines, with the same defaults.
FRONT_DOOR = {
    "help": (
        ("-h", "--help"), "==SUPPRESS==", "show this help message and exit",
        None, None, False, "_HelpAction",
    ),
    "host": _store("--host", "127.0.0.1", "bind address"),
    "timeout": _store(
        "--timeout", 300.0, "per-request solve budget in seconds (504 beyond it)", "float"
    ),
    "max_body_mb": _store("--max-body-mb", 64, "largest accepted request body in MiB", "int"),
    "journal": _store(
        "--journal",
        None,
        "append lifecycle events to a JSONL journal in DIR and enable request "
        "tracing plus GET /trace (default: off)",
        metavar="DIR",
    ),
    "journal_fsync": _store(
        "--journal-fsync",
        False,
        "fsync every journal append (durability over throughput)",
        kind="_StoreTrueAction",
    ),
    "journal_segment_mb": _store(
        "--journal-segment-mb", 4, "rotate journal segments beyond this many MiB", "int", "MB"
    ),
    "log_level": _store(
        "--log-level",
        "warning",
        "structured key=value log level: debug, info, warning, error",
        metavar="LEVEL",
    ),
}
#: ``serve`` and ``cluster node``: one server, two roles.
SERVER = {
    **FRONT_DOOR,
    "queue_limit": _store(
        "--queue-limit",
        32,
        "max queued+in-flight jobs before requests get 503 + Retry-After",
        "int",
    ),
    "workers": _store("--workers", 0, "worker processes (0 = one per CPU)", "int"),
    "cache_db": _store(
        "--cache-db",
        None,
        "SQLite component cache shared by workers and across restarts",
        metavar="PATH",
    ),
    "cache_max_entries": _store(
        "--cache-max-entries",
        None,
        "bound the component cache to N entries (LRU eviction)",
        "int",
        "N",
    ),
    "inline_pool": _store(
        "--inline-pool",
        False,
        "run jobs on threads in-process instead of worker processes",
        kind="_StoreTrueAction",
    ),
}
COORDINATOR = {
    **FRONT_DOOR,
    "port": _store("--port", 8100, BIND_HELP, "int"),
    "queue_limit": _store(
        "--queue-limit",
        16,
        "max queued+in-flight layout jobs before requests get 503 + Retry-After",
        "int",
    ),
    "peers": (
        ("--peers",), None, "cluster nodes (repeat the flag or separate with commas)",
        None, "HOST:PORT[,HOST:PORT...]", True, "_AppendAction",
    ),
    "probe_interval": _store(
        "--probe-interval", 2.0, "seconds between node heartbeat probes", "float"
    ),
    "failure_threshold": _store(
        "--failure-threshold",
        2,
        "consecutive failed heartbeats before a node leaves the ring",
        "int",
    ),
    "virtual_nodes": _store(
        "--virtual-nodes",
        64,
        "virtual nodes per physical node on the consistent-hash ring",
        "int",
    ),
    "component_timeout": _store(
        "--component-timeout", 120.0, "per-component node request timeout in seconds", "float"
    ),
    "fanout_threads": _store(
        "--fanout-threads", 8, "threads fanning component requests out to nodes", "int"
    ),
    "batch_max_components": _store(
        "--batch-max-components",
        64,
        "most components micro-batched into one POST /components request",
        "int",
        "N",
    ),
    "batch_max_bytes": _store(
        "--batch-max-bytes",
        4194304,
        "approximate serialized-size bound per micro-batch (an oversized "
        "single component still ships, alone)",
        "int",
        "BYTES",
    ),
}
ACTIONS = {
    ("serve",): {**SERVER, "port": _store("--port", 8000, BIND_HELP, "int")},
    ("cluster", "node"): {**SERVER, "port": _store("--port", 8001, BIND_HELP, "int")},
    ("cluster", "coordinator"): COORDINATOR,
}


def _subparser(*names):
    parser = build_parser()
    for name in names:
        action = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = action.choices[name]
    return parser


def _describe(parser):
    return {
        action.dest: (
            tuple(action.option_strings),
            action.default,
            action.help,
            getattr(action.type, "__name__", action.type),
            action.metavar,
            action.required,
            type(action).__name__,
        )
        for action in parser._actions
    }


@pytest.mark.parametrize("names", list(ACTIONS), ids=" ".join)
def test_every_action_is_pinned(names):
    assert _describe(_subparser(*names)) == ACTIONS[names]


SHARED_FLAGS = [
    "--host", "0.0.0.0", "--port", "0", "--queue-limit", "5", "--timeout", "7.5",
    "--max-body-mb", "3", "--journal", "/tmp/j", "--journal-fsync",
    "--journal-segment-mb", "2",
]
SHARED_FIELDS = {
    "host": "0.0.0.0",
    "port": 0,
    "queue_limit": 5,
    "request_timeout": 7.5,
    "max_body_bytes": 3 * 1024 * 1024,
    "journal_dir": "/tmp/j",
    "journal_fsync": True,
    "journal_segment_bytes": 2 * 1024 * 1024,
}


@pytest.fixture
def started(monkeypatch):
    """The config each role's command would start its daemon with."""
    import repro.cluster
    import repro.service

    # The commands set up the ``repro`` logger; undo it after the test.
    logger = logging.getLogger("repro")
    for attribute in ("level", "propagate", "handlers"):
        value = getattr(logger, attribute)
        monkeypatch.setattr(logger, attribute, list(value) if attribute == "handlers" else value)
    configs = []
    monkeypatch.setattr(repro.service, "run_server", lambda config: configs.append(config) or 0)
    monkeypatch.setattr(
        repro.cluster, "run_coordinator", lambda config: configs.append(config) or 0
    )
    return configs


@pytest.mark.parametrize("names", [("serve",), ("cluster", "node")], ids=" ".join)
def test_server_flags_map_to_server_config(started, names):
    extra = ["--workers", "3", "--cache-db", "c.db", "--cache-max-entries", "9", "--inline-pool"]
    assert main([*names, *SHARED_FLAGS, *extra]) == 0
    (config,) = started
    fields = {
        **SHARED_FIELDS,
        "workers": 3,
        "cache_db": "c.db",
        "cache_max_entries": 9,
        "force_inline_pool": True,
    }
    assert {name: getattr(config, name) for name in fields} == fields


def test_coordinator_flags_map_to_coordinator_config(started):
    extra = [
        "--peers", "a:1,b:2", "--peers", "c:3", "--probe-interval", "1.5",
        "--failure-threshold", "4", "--virtual-nodes", "8", "--component-timeout", "9.0",
        "--fanout-threads", "2", "--batch-max-components", "6", "--batch-max-bytes", "100",
    ]
    assert main(["cluster", "coordinator", *SHARED_FLAGS, *extra]) == 0
    (config,) = started
    fields = {
        **SHARED_FIELDS,
        "peers": ["a:1", "b:2", "c:3"],
        "probe_interval": 1.5,
        "failure_threshold": 4,
        "virtual_nodes": 8,
        "component_timeout": 9.0,
        "fanout_threads": 2,
        "batch_max_components": 6,
        "batch_max_bytes": 100,
    }
    assert {name: getattr(config, name) for name in fields} == fields


@pytest.mark.parametrize(
    "argv, port, queue_limit",
    [
        (["serve"], 8000, 32),
        (["cluster", "node"], 8001, 32),
        (["cluster", "coordinator", "--peers", "a:1"], 8100, 16),
    ],
    ids=["serve", "node", "coordinator"],
)
def test_defaults_reach_the_config(started, argv, port, queue_limit):
    assert main(argv) == 0
    (config,) = started
    assert (config.host, config.port, config.queue_limit) == ("127.0.0.1", port, queue_limit)
    assert (config.request_timeout, config.max_body_bytes) == (300.0, 64 * 1024 * 1024)
    assert (config.journal_dir, config.journal_fsync) == (None, False)
    assert config.journal_segment_bytes == 4 * 1024 * 1024


def _logger_state():
    logger = logging.getLogger("repro")
    return logger.level, logger.propagate, list(logger.handlers)


@pytest.mark.parametrize(
    "argv, code, runs",
    [
        (["serve", "--log-level", "info"], 0, 1),
        (["cluster", "node", "--log-level", "info"], 0, 1),
        (["cluster", "coordinator", "--peers", "a:1", "--log-level", "info"], 0, 1),
        (["cluster", "coordinator", "--peers", "no-port", "--log-level", "info"], 1, 1),
        (["serve", "--log-level", "loud"], 1, 0),
    ],
    ids=["serve", "node", "coordinator", "coordinator-bad-peer", "serve-bad-level"],
)
def test_daemon_commands_restore_the_repro_logger(monkeypatch, caplog, argv, code, runs):
    """A daemon command run in-process leaves the ``repro`` logger as it found
    it, so later ``caplog`` captures of ``repro.*`` loggers still see records,
    also when the daemon raises after logging was set up."""
    import repro.cluster
    import repro.service
    from repro.cluster import ClusterCoordinator

    logger = logging.getLogger("repro")
    for attribute in ("level", "propagate", "handlers"):
        value = getattr(logger, attribute)
        monkeypatch.setattr(logger, attribute, list(value) if attribute == "handlers" else value)
    during = []

    def run(config):
        during.append(_logger_state())
        return 0

    def run_coordinator(config):
        run(config)
        ClusterCoordinator(config)  # binds nothing; a bad peer raises here
        return 0

    monkeypatch.setattr(repro.service, "run_server", run)
    monkeypatch.setattr(repro.cluster, "run_coordinator", run_coordinator)
    before = _logger_state()
    assert main(argv) == code
    assert len(during) == runs
    for level, propagate, handlers in during:
        assert (level, propagate, len(handlers)) == (logging.INFO, False, len(before[2]) + 1)
    assert _logger_state() == before
    with caplog.at_level(logging.WARNING, logger="repro.runtime.pipeline"):
        logging.getLogger("repro.runtime.pipeline").warning("still captured")
    assert "still captured" in caplog.text
