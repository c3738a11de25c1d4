"""Cluster membership: static peer list, heartbeats, ring maintenance.

The cluster uses **static membership** (a ``--peers`` list fixed at
coordinator startup) with **dynamic liveness**: every node starts presumed
alive, a background heartbeat thread probes ``GET /healthz`` on each peer,
and the consistent-hash ring is rebuilt over the live subset whenever
liveness changes.  Two paths mark a node dead:

* **heartbeat failures** — ``failure_threshold`` consecutive probe failures
  (tolerates one dropped probe without a rebalance).  A probe fails when
  the node is unreachable, not ``ok``, or reports a ``components_frame``
  version other than the one this build encodes: nodes speak exactly one
  wire, so a mixed-version peer is refused — taken out of the ring with
  both versions in its ``last_error`` — instead of negotiated with;
* **observed request failures** — the coordinator calls :meth:`mark_dead`
  the moment a component request dies on a connection error, so re-routing
  does not wait for the next probe tick.

A dead node keeps being probed and rejoins the ring on the first successful
heartbeat (failback), reclaiming exactly the key ranges it owned before —
consistent hashing makes leave/rejoin a no-op for every other node's cache.

All state transitions hold one lock and swap in a freshly-built
:class:`~repro.cluster.ring.HashRing`; readers grab the current ring
reference and route against an immutable snapshot, so routing never blocks
on probing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.cluster.ring import DEFAULT_VIRTUAL_NODES, HashRing
from repro.runtime.wire_binary import FRAME_VERSION


class NoNodesAvailable(ReproError):
    """Every node in the cluster is marked dead (mapped to HTTP 503)."""


def _health_error(health: Dict) -> Optional[str]:
    """Why a ``/healthz`` answer disqualifies its node, or ``None`` if ready."""
    if health.get("status") != "ok":
        return f"status={health.get('status')!r}"
    frame = health.get("components_frame")
    if frame != FRAME_VERSION:
        return (
            f"node speaks components frame {frame!r}, "
            f"this coordinator speaks {FRAME_VERSION}"
        )
    return None


def parse_peer(peer: str) -> Tuple[str, int]:
    """Parse one ``host:port`` peer spec."""
    host, sep, port_text = peer.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"peer {peer!r} is not of the form host:port")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(f"peer {peer!r} has a non-numeric port") from exc
    if not 0 < port < 65536:
        raise ConfigurationError(f"peer {peer!r} port out of range")
    return host, port


@dataclass
class NodeState:
    """Liveness bookkeeping for one peer node."""

    node_id: str
    host: str
    port: int
    alive: bool = True
    consecutive_failures: int = 0
    probes: int = 0
    last_error: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "alive": self.alive,
            "consecutive_failures": self.consecutive_failures,
            "probes": self.probes,
            "last_error": self.last_error,
        }


class Membership:
    """Static peer set with heartbeat-driven liveness and ring rebuilds."""

    def __init__(
        self,
        peers: Sequence[str],
        probe_interval: float = 2.0,
        probe_timeout: float = 2.0,
        failure_threshold: int = 2,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        if not peers:
            raise ConfigurationError("a cluster needs at least one peer node")
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.failure_threshold = failure_threshold
        self.virtual_nodes = virtual_nodes
        self._nodes: Dict[str, NodeState] = {}
        for peer in peers:
            host, port = parse_peer(peer)
            node_id = f"{host}:{port}"
            if node_id in self._nodes:
                raise ConfigurationError(f"peer {node_id} listed twice")
            self._nodes[node_id] = NodeState(node_id=node_id, host=host, port=port)
        self._lock = threading.Lock()
        self._ring = HashRing(self._nodes, virtual_nodes=virtual_nodes)
        self._rebalances = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the heartbeat thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._probe_loop, name="repro-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the heartbeat thread and join it."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=self.probe_timeout + self.probe_interval + 5)
        self._thread = None

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval):
            try:
                self.probe_once()
            except Exception:  # pragma: no cover - probes must never kill the thread
                pass

    def probe_once(self) -> None:
        """Probe every peer's ``/healthz`` once and update liveness."""
        from repro.service.client import ServiceClient, ServiceError

        for node in self.nodes():
            client = ServiceClient(node.host, node.port, timeout=self.probe_timeout)
            try:
                error = _health_error(client.healthz())
            except ServiceError as exc:
                error = str(exc)
            finally:
                client.close()
            self._record_probe(node.node_id, error is None, error)

    # ------------------------------------------------------------- liveness
    def _record_probe(self, node_id: str, success: bool, error: Optional[str]) -> None:
        with self._lock:
            node = self._nodes[node_id]
            node.probes += 1
            if success:
                node.consecutive_failures = 0
                node.last_error = None
                if not node.alive:
                    node.alive = True
                    self._rebuild_ring_locked()
            else:
                node.consecutive_failures += 1
                node.last_error = error
                if node.alive and node.consecutive_failures >= self.failure_threshold:
                    node.alive = False
                    self._rebuild_ring_locked()

    def mark_dead(self, node_id: str, error: Optional[str] = None) -> bool:
        """Immediately remove ``node_id`` from the ring (observed hard failure).

        Returns True when this call performed the alive→dead transition.
        """
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or not node.alive:
                return False
            node.alive = False
            node.consecutive_failures = max(
                node.consecutive_failures + 1, self.failure_threshold
            )
            node.last_error = error
            self._rebuild_ring_locked()
        return True

    def _rebuild_ring_locked(self) -> None:
        self._ring = HashRing(
            (node_id for node_id, state in self._nodes.items() if state.alive),
            virtual_nodes=self.virtual_nodes,
        )
        self._rebalances += 1

    # -------------------------------------------------------------- routing
    def ring(self) -> HashRing:
        """Return the current ring snapshot (immutable; safe without the lock)."""
        with self._lock:
            return self._ring

    def owner(self, key: str) -> str:
        """Return the live node owning ``key``; raise when none are left."""
        ring = self.ring()
        if not ring:
            raise NoNodesAvailable("no cluster nodes are alive")
        return ring.owner(key)

    # --------------------------------------------------------------- views
    def node(self, node_id: str) -> NodeState:
        with self._lock:
            return self._nodes[node_id]

    def nodes(self) -> List[NodeState]:
        with self._lock:
            return list(self._nodes.values())

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for state in self._nodes.values() if state.alive)

    def __len__(self) -> int:
        return len(self._nodes)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable membership state for ``/stats``."""
        with self._lock:
            return {
                "nodes": {
                    node_id: state.to_json_dict()
                    for node_id, state in sorted(self._nodes.items())
                },
                "alive": sum(1 for s in self._nodes.values() if s.alive),
                "total": len(self._nodes),
                "rebalances": self._rebalances,
                "virtual_nodes": self.virtual_nodes,
                "failure_threshold": self.failure_threshold,
            }
