"""Multi-node substrate: consistent hashing over DIDO nodes.

The paper's motivation (Section II-C1) notes that production IMKV traffic
shifts abruptly "when machines go down, keys will be redistributed with
consistent hashing, which may change the workload characteristics of other
IMKV nodes".  This package provides that substrate as a real multi-process
fleet over the columnar wire plane: a consistent-hash ring
(:mod:`repro.cluster.ring`), epoch-stamped manifests
(:mod:`repro.cluster.manifest`) shared by servers and client routers, and
ring-routed ``repro serve`` processes with live key migration under a
coordinator (:mod:`repro.cluster.serving`); see ``docs/cluster.md``.
"""

from repro.cluster.manifest import ClusterManifest, ManifestRouter, NodeInfo
from repro.cluster.ring import HashRing
from repro.cluster.serving import (
    ClusterCoordinator,
    ClusterError,
    ClusterNode,
    NodeOwnership,
    control_request,
    fetch_manifest,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterManifest",
    "ClusterNode",
    "HashRing",
    "ManifestRouter",
    "NodeInfo",
    "NodeOwnership",
    "control_request",
    "fetch_manifest",
]
