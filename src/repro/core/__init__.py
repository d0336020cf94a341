"""NICE core: virtual rings, SDN controller, metadata service, storage
nodes, clients, and the cluster builder — the paper's contribution."""

from .client import NiceClient, OpResult
from .config import (
    ACK_BYTES,
    CLIENT_PORT,
    COMMIT_BYTES,
    ClusterConfig,
    GET_PORT,
    HEARTBEAT_BYTES,
    MEMBERSHIP_BYTES,
    META_PORT,
    NODE_PORT,
    PUT_PORT,
    REQUEST_BYTES,
)
from .controller import HostRecord, NiceControllerApp
from .controlplane_ha import (
    ControlPlaneHA,
    MembershipLog,
    MetadataReplica,
    replay_log,
)
from .membership import PartitionMap, ReplicaSet
from .metadata import MetadataService
from .storage_node import NiceStorageNode
from .system import NiceCluster
from .vring import VirtualRing

__all__ = [
    "ACK_BYTES",
    "CLIENT_PORT",
    "COMMIT_BYTES",
    "ClusterConfig",
    "ControlPlaneHA",
    "GET_PORT",
    "HEARTBEAT_BYTES",
    "HostRecord",
    "MEMBERSHIP_BYTES",
    "META_PORT",
    "MembershipLog",
    "MetadataReplica",
    "MetadataService",
    "NODE_PORT",
    "NiceClient",
    "NiceCluster",
    "NiceControllerApp",
    "NiceStorageNode",
    "OpResult",
    "PUT_PORT",
    "PartitionMap",
    "REQUEST_BYTES",
    "ReplicaSet",
    "replay_log",
    "VirtualRing",
]
