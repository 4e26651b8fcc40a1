"""A fleet of DIDO nodes behind a consistent-hash ring.

:class:`KVCluster` routes each query by key to a node and processes the
per-node batches through the nodes' full adaptive pipelines.  Failing a
node reroutes its keys to ring successors, shifting the survivors' key
popularity and sizes — the production scenario the paper cites as a driver
for runtime pipeline adaptation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.cluster.ring import HashRing
from repro.core.dido import DidoSystem
from repro.errors import ConfigurationError
from repro.kv.protocol import Query, Response
from repro.hardware.specs import APU_A10_7850K, PlatformSpec
from repro.telemetry import get_telemetry

logger = logging.getLogger("repro.cluster.fleet")


@dataclass
class NodeStats:
    """Per-node summary for cluster reporting."""

    name: str
    queries: int
    replans: int
    pipeline: str


class KVCluster:
    """Consistent-hash cluster of adaptive DIDO nodes.

    Parameters
    ----------
    node_names:
        Names of the initial nodes.
    platform:
        Hardware model each node plans against.
    node_memory_bytes / expected_objects:
        Per-node store sizing.
    """

    def __init__(
        self,
        node_names: list[str],
        platform: PlatformSpec = APU_A10_7850K,
        node_memory_bytes: int = 32 << 20,
        expected_objects: int = 32768,
    ):
        if not node_names:
            raise ConfigurationError("a cluster needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ConfigurationError("node names must be unique")
        self.ring = HashRing()
        self.nodes: dict[str, DidoSystem] = {}
        self._queries_routed: dict[str, int] = {}
        for name in node_names:
            self.ring.add_node(name)
            self.nodes[name] = DidoSystem(
                platform,
                memory_bytes=node_memory_bytes,
                expected_objects=expected_objects,
            )
            self._queries_routed[name] = 0

    # --------------------------------------------------------------- routing

    def route(self, queries: list[Query]) -> dict[str, list[tuple[int, Query]]]:
        """Partition a client batch by owning node, keeping original order
        indices so responses can be reassembled."""
        routed: dict[str, list[tuple[int, Query]]] = {}
        for index, query in enumerate(queries):
            node = self.ring.node_for(query.key)
            routed.setdefault(node, []).append((index, query))
        return routed

    def process(self, queries: list[Query]) -> list[Response]:
        """Process a client batch across the fleet; responses in input order."""
        responses: list[Response | None] = [None] * len(queries)
        telemetry = get_telemetry()
        for node_name, indexed in self.route(queries).items():
            node = self.nodes[node_name]
            batch = [q for _, q in indexed]
            result = node.process(batch)
            self._queries_routed[node_name] += len(batch)
            if telemetry.enabled:
                telemetry.registry.counter(
                    "repro_cluster_node_queries_total",
                    help="Queries routed to each node",
                ).inc(len(batch), node=node_name)
            for (index, _), response in zip(indexed, result.responses):
                responses[index] = response
        return [r for r in responses if r is not None]

    # -------------------------------------------------------------- topology

    def fail_node(self, name: str) -> None:
        """Remove a node from the ring (its data is lost, as in a crash;
        subsequent GETs for its keys miss on the new owners and clients
        re-SET them — cache semantics)."""
        if name not in self.nodes:
            raise ConfigurationError(f"unknown node {name!r}")
        self.ring.remove_node(name)
        del self.nodes[name]
        del self._queries_routed[name]
        logger.info("node %s failed; %d survivors re-own its key range", name, len(self.nodes))
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "repro_cluster_node_failures_total", help="Nodes removed from the ring"
            ).inc()

    # ------------------------------------------------------------- reporting

    def stats(self) -> list[NodeStats]:
        out = []
        for name, node in sorted(self.nodes.items()):
            report = node.report()
            out.append(
                NodeStats(
                    name=name,
                    queries=self._queries_routed[name],
                    replans=report.replans,
                    pipeline=report.current_pipeline,
                )
            )
        return out

    def total_replans(self) -> int:
        return sum(node.controller.replan_count for node in self.nodes.values())
