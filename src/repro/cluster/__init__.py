"""Multi-node decomposition: consistent-hash sharding with cache affinity.

This package composes many :class:`~repro.service.server.DecompositionServer`
nodes into one horizontally-scalable service — the ROADMAP's "route
components by canonical hash to a cache-owning node" step:

* :mod:`repro.cluster.ring` — consistent-hash ring with virtual nodes;
  deterministic placement, minimal movement on node loss;
* :mod:`repro.cluster.membership` — static ``--peers`` list, heartbeat
  probes (which also refuse a node reporting a different components frame
  version), immediate mark-dead on observed failures, ring rebalance and
  failback;
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`, the
  front end accepting the single-node ``POST /decompose``/``/batch`` API,
  splitting layouts into canonical components, micro-batching each node's
  share into one binary ``POST /components`` frame over keep-alive
  connections and merging deterministically;
* :mod:`repro.cluster.client` — :class:`ClusterClient`, a
  :class:`~repro.service.client.ServiceClient` with coordinator failover.

The cluster invariant matches every other execution layer of this repo:
**byte-identical output** to a direct :meth:`Decomposer.decompose` run —
including while nodes are dying mid-batch.  Topology:

::

                    POST /decompose|/batch
    clients ──────────► ClusterCoordinator ◄──────── (any number of
                        │ split + hash-route           coordinators;
           POST /components (keep-alive)               same placement)
            ┌───────────┼───────────┐
            ▼           ▼           ▼
         node A       node B      node C        each DecompositionServer
        (cache of    (cache of   (cache of      owns a hash range of the
         range A)     range B)    range C)      component-cache keyspace

Run nodes with ``repro-decompose cluster node`` and the front end with
``repro-decompose cluster coordinator --peers hostA:8001,hostB:8001,...``.
"""

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterRoutingError,
    CoordinatorConfig,
    CoordinatorThread,
    NodeBusyError,
    NodeRequestError,
    coordinator_metrics_text,
    run_coordinator,
)
from repro.cluster.membership import Membership, NodeState, NoNodesAvailable, parse_peer
from repro.cluster.ring import HashRing, ring_position

__all__ = [
    "ClusterClient",
    "ClusterCoordinator",
    "ClusterRoutingError",
    "CoordinatorConfig",
    "CoordinatorThread",
    "HashRing",
    "Membership",
    "NoNodesAvailable",
    "NodeBusyError",
    "NodeRequestError",
    "NodeState",
    "coordinator_metrics_text",
    "parse_peer",
    "ring_position",
    "run_coordinator",
]
