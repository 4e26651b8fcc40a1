"""Cluster manifest: the epoch-stamped topology document every router shares.

A manifest is the single source of truth for "who owns which arcs right
now": node name -> data-plane ``host:port`` -> control-plane port -> the
explicit ring vnode points that node occupies, stamped with a
monotonically increasing **epoch**.  It serialises to plain JSON (no
pickle anywhere on the cluster planes) so the coordinator can serve it
over a socket, write it to disk for spawned servers, and hand it to
clients.

Recording the *explicit* points — rather than re-deriving them from node
names — guarantees every participant bisects the byte-identical ring,
collision nudges included (see :meth:`repro.cluster.ring.HashRing.add_node`).

Epochs are how the cluster stays sane during membership change: servers
reject any manifest install whose epoch is not strictly greater than the
one they hold (stale-epoch rejection), and a ``WRONG_NODE`` redirect
carries the redirecting server's epoch so clients know to refresh before
retrying.

:class:`ManifestRouter` is the client-side hot path: it flattens the
manifest into one sorted point array plus an owner column and routes
whole key batches with a vectorized hash + ``searchsorted``
(bit-identical to :meth:`HashRing.node_for` key by key).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

import numpy as np

from repro.cluster.ring import DEFAULT_VNODES, HashRing, key_point
from repro.errors import ConfigurationError

_U64 = np.uint64
_SPLITMIX_A = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_B = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class NodeInfo:
    """One node's addresses and ring placement."""

    name: str
    host: str
    port: int
    control_port: int
    points: tuple[int, ...]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def control_address(self) -> tuple[str, int]:
        return (self.host, self.control_port)


class ClusterManifest:
    """Epoch-stamped node -> address -> vnode-points topology."""

    def __init__(self, epoch: int, nodes: list[NodeInfo], vnodes: int = DEFAULT_VNODES):
        if epoch < 1:
            raise ConfigurationError("manifest epoch must be >= 1")
        if not nodes:
            raise ConfigurationError("a manifest needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("manifest node names must be unique")
        seen: set[int] = set()
        for node in nodes:
            if not node.points:
                raise ConfigurationError(f"node {node.name!r} occupies no ring points")
            for point in node.points:
                if point in seen:
                    raise ConfigurationError(f"duplicate ring point {point}")
                seen.add(point)
        self.epoch = epoch
        self.vnodes = vnodes
        self.nodes: dict[str, NodeInfo] = {n.name: n for n in nodes}

    # ----------------------------------------------------------- construction

    @classmethod
    def from_ring(
        cls,
        epoch: int,
        ring: HashRing,
        addresses: dict[str, tuple[str, int, int]],
    ) -> "ClusterManifest":
        """Snapshot ``ring`` with each node's ``(host, port, control_port)``."""
        missing = ring.nodes - set(addresses)
        if missing:
            raise ConfigurationError(f"no address for ring nodes {sorted(missing)}")
        nodes = [
            NodeInfo(name, host, port, control_port, tuple(ring.points_of(name)))
            for name, (host, port, control_port) in addresses.items()
            if name in ring.nodes
        ]
        return cls(epoch, nodes, vnodes=ring.vnodes)

    def to_ring(self) -> HashRing:
        """The exact :class:`HashRing` this manifest describes."""
        owners = {
            point: info.name for info in self.nodes.values() for point in info.points
        }
        return HashRing.from_points(owners, vnodes=self.vnodes)

    # ---------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "vnodes": self.vnodes,
            "nodes": {
                info.name: {
                    "host": info.host,
                    "port": info.port,
                    "control_port": info.control_port,
                    "points": list(info.points),
                }
                for info in self.nodes.values()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterManifest":
        try:
            nodes = [
                NodeInfo(
                    name,
                    entry["host"],
                    int(entry["port"]),
                    int(entry["control_port"]),
                    tuple(int(p) for p in entry["points"]),
                )
                for name, entry in payload["nodes"].items()
            ]
            return cls(
                int(payload["epoch"]),
                nodes,
                vnodes=int(payload.get("vnodes", DEFAULT_VNODES)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed cluster manifest: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed cluster manifest: {exc}") from exc
        return cls.from_dict(payload)

    # --------------------------------------------------------------- routing

    def owner_for(self, key: bytes) -> str:
        return ManifestRouter(self).owner_for(key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterManifest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ClusterManifest(epoch={self.epoch}, "
            f"nodes={sorted(self.nodes)})"
        )


class ManifestRouter:
    """Flattened, batch-capable view of a manifest's ring.

    Owner lookups run against one sorted point array; a batch's
    whole key column is hashed (vectorized FNV-1a + splitmix64 finaliser,
    bit-identical to :func:`repro.cluster.ring.key_point`) and routed with
    a single ``searchsorted``.
    """

    def __init__(self, manifest: ClusterManifest):
        self.manifest = manifest
        pairs = sorted(
            (point, info.name)
            for info in manifest.nodes.values()
            for point in info.points
        )
        self._points = [p for p, _ in pairs]
        self._owner_ids: list[int] = []
        self.names = sorted(manifest.nodes)
        index = {name: i for i, name in enumerate(self.names)}
        self._owner_ids = [index[name] for _, name in pairs]
        self._np_points = np.asarray(self._points, dtype=np.uint64)
        self._np_owners = np.asarray(self._owner_ids, dtype=np.intp)

    def owner_for(self, key: bytes) -> str:
        point = key_point(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self.names[self._owner_ids[index]]

    def owner_ids_for(self, keys: list[bytes]):
        """Owner index (into :attr:`names`) per key; small batches stay scalar."""
        if len(keys) < 16:
            points = self._points
            owners = self._owner_ids
            n = len(points)
            out = []
            for key in keys:
                index = bisect.bisect_right(points, key_point(key))
                out.append(owners[0 if index == n else index])
            return out
        hashes = _key_points_vector(keys)
        index = np.searchsorted(self._np_points, hashes, side="right")
        index[index == len(self._points)] = 0
        return self._np_owners[index].tolist()

    def owners_for(self, keys: list[bytes]) -> list[str]:
        names = self.names
        return [names[i] for i in self.owner_ids_for(keys)]


def _key_points_vector(keys: list[bytes]):
    """Vectorized :func:`repro.cluster.ring.key_point` over a key column."""
    from repro.engine.vector import fnv_hash_columns

    with np.errstate(over="ignore"):
        value = fnv_hash_columns(keys, 1)[0]
        value = value + _SPLITMIX_A
        value = (value ^ (value >> _U64(30))) * _SPLITMIX_B
        value = (value ^ (value >> _U64(27))) * _SPLITMIX_C
        return value ^ (value >> _U64(31))


__all__ = ["ClusterManifest", "ManifestRouter", "NodeInfo"]
