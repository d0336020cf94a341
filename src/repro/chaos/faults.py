"""The fault table: what the chaos layer knows about each fault kind, once.

A kind is one frozen :class:`Fault` record in :data:`FAULTS`, registered by
:func:`fault` on the function that performs it.  The record says what the
schedule builders, the engine and a schedule generator need to know — what
the kind is aimed at, which kind ends it, which cluster parts it requires,
its parameters and their defaults; ``apply`` holds only what is particular
to the kind.  Resolving the target, deciding that the fault cannot apply,
drawing the event's rng stream and logging the label are
:meth:`ChaosEngine._fire <repro.chaos.engine.ChaosEngine._fire>`'s, for
every kind alike.

Vocabulary:

``scope``
    What the event's target names: ``node`` (``"node:<name>"``,
    ``"primary:<key>"``, ``"secondary:<key>"`` — ``apply`` gets the node
    name), ``rack`` (``"rack:<idx>"`` — the index), ``key`` (``"key:<key>"``
    — the key's partition) or ``cluster`` (no target — ``None``).
``binding``
    Node scope only.  ``bind``: an outage records the concrete node it hit
    under its symbolic target; ``unbind``: the recovery consumes the oldest
    record (failover may have promoted someone else since, and it is the
    node that went out that must come back); ``peek``: reads it and leaves
    it for the paired ``rejoin``; ``none``: resolves fresh.
``ends``
    The kind this one undoes.  A kind that nothing ends heals itself after
    its own ``duration`` parameter, or (``disk_corrupt``) is left to the
    system under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..net.flowtable import Drop, Match, Rule

__all__ = ["FAULTS", "Fault", "Skip"]

#: Above every routing rule (vring rules are O(100), ARP 500).
PARTITION_PRIORITY = 10_000


class Skip(Exception):
    """Raised (with the reason) when a fault cannot apply to the cluster as
    it is now; the engine logs that instead of a label and goes on."""


@dataclass(frozen=True)
class Fault:
    """One fault kind (module docstring for the vocabulary)."""

    name: str
    doc: str
    scope: str
    #: ``apply(engine, target, params) -> label``: do it, return what to log
    #: (``None`` when :meth:`ChaosEngine.restart` already logged it).
    apply: Callable
    binding: str = "none"
    ends: Optional[str] = None
    #: Cluster parts (``ChaosEngine.parts``) that must not be ``None``.
    needs: Tuple[str, ...] = ()
    #: Node scope: skip unless the target's host is up.
    node_up: bool = False
    #: The metadata service declares the target failed while this lasts, so
    #: a ``rejoin`` must follow the kind that ends it (§4.5).
    rejoins: bool = False
    #: Every parameter the kind takes, with the value an event that does
    #: not carry it gets.
    defaults: Mapping[str, object] = field(default_factory=dict)


#: kind -> record, in definition order.
FAULTS: Dict[str, Fault] = {}


def fault(scope: str, **spec):
    """Register the decorated ``apply`` as the kind named after it; its
    docstring is the kind's one-line ``doc``."""

    def register(apply: Callable) -> Callable:
        doc = " ".join(apply.__doc__.split())
        FAULTS[apply.__name__] = Fault(apply.__name__, doc, scope, apply, **spec)
        return apply

    return register


def _access_link(e, name: str):
    """The node's own port's link: sw0<->host in the single-switch
    topology, leaf<->host in a fabric."""
    return e.cluster.nodes[name].host.port.link


def _access_switch(e, name: str):
    """The switch the node's access link terminates on."""
    return e.cluster.nodes[name].host.port.peer.device


# -- node outages and their recoveries ------------------------------------------------
@fault("node", binding="bind", node_up=True)
def crash(e, name, p):
    """fail-stop the target node (volatile state lost)"""
    e.cluster.nodes[name].crash()
    return f"{name} crashes"


@fault("node", binding="unbind", ends="crash")
def rejoin(e, name, p):
    """power the node back on; NICE runs the two-stage rejoin"""
    e.restart(name)


@fault("node", binding="bind", rejoins=True)
def isolate(e, name, p):
    """take the node's access link down (node alive, link dark)"""
    _access_link(e, name).set_down(True)
    return f"{name} link down"


@fault("node", binding="unbind", ends="isolate")
def heal(e, name, p):
    """restore the node's access link"""
    _access_link(e, name).set_down(False)
    return f"{name} link up"


@fault("node", binding="bind", rejoins=True)
def partition(e, name, p):
    """install switch drop rules between the node and its storage and
    metadata peers — clients still reach it (the asymmetric partition that
    exposes stale replicas)"""
    directory = e.cluster.directory
    peer_ips = [ip for peer, ip in sorted(directory.items()) if peer != name]
    meta = e.cluster.network.devices.get("meta")
    if meta is not None:
        peer_ips.append(meta.ip)
    access, ip = _access_switch(e, name), directory[name]
    for peer_ip in peer_ips:
        for src, dst in ((ip, peer_ip), (peer_ip, ip)):
            access.install_rule(
                Rule(
                    Match(ip_src=src, ip_dst=dst),
                    [Drop()],
                    PARTITION_PRIORITY,
                    cookie=f"chaos:partition:{name}",
                )
            )
    return f"{name} partitioned from peers"


@fault("node", binding="peek", ends="partition")
def heal_partition(e, name, p):
    """remove those drop rules"""
    removed = _access_switch(e, name).remove_cookie(f"chaos:partition:{name}")
    return f"{name} partition healed ({removed} rules)"


# -- self-healing bursts ------------------------------------------------------------------
@fault("node", defaults=dict(rate=0.05, duration=1.0))
def loss(e, name, p):
    """random packet loss on the node's link for ``duration``"""
    link = _access_link(e, name)
    link.set_loss(p["rate"], e.rng)
    e.burst(p["duration"], lambda: link.set_loss(0.0), f"{name} loss burst ends")
    return f"{name} loss burst {p['rate']:.0%} for {p['duration']:g}s"


@fault("node", defaults=dict(jitter_s=100e-6, duration=1.0))
def jitter(e, name, p):
    """extra random delivery delay on the node's link for ``duration``"""
    link = _access_link(e, name)
    link.set_delay_jitter(p["jitter_s"], e.rng)
    e.burst(p["duration"], lambda: link.set_delay_jitter(0.0), f"{name} jitter ends")
    return f"{name} jitter {p['jitter_s'] * 1e6:g}us for {p['duration']:g}s"


@fault("key", needs=("controller",), defaults=dict(down_s=0.2))
def flap(e, partition, p):
    """delete the partition's vring flow rules from every switch, re-sync
    after ``down_s``"""
    # The harmonia read rule (DESIGN.md §5j) is a family of its own; left
    # in, its frozen replica choices would outlive the flap window.
    removed = sum(
        switch.remove_cookie(f"{family}:{partition}")
        for switch in e.cluster.switches
        for family in ("uni", "mc", "hread")
    )
    resync = e.cluster.controller.sync_partition
    e.burst(p["down_s"], lambda: resync(partition), f"p{partition} rules re-synced")
    return f"p{partition} rules flapped ({removed} removed, {p['down_s']:g}s)"


@fault("cluster", needs=("control_plane",), defaults=dict(latency_s=0.05, duration=1.0))
def stall(e, _, p):
    """raise the controller's control-plane latency for ``duration``"""
    control_plane = e.cluster.control_plane
    previous, control_plane.latency_s = control_plane.latency_s, p["latency_s"]

    def restore():
        control_plane.latency_s = previous

    e.burst(p["duration"], restore, "controller stall ends")
    return f"controller stalled to {p['latency_s'] * 1e3:g}ms for {p['duration']:g}s"


# -- rack-level faults (leaf-spine fabric) --------------------------------------------------
@fault("rack", needs=("fabric",))
def rack_isolate(e, rack, p):
    """cut every spine uplink of the rack's leaf: the whole failure domain
    drops off the fabric (its hosts still reach each other through the leaf)"""
    uplinks = e.cluster.fabric.uplinks_of(rack)
    for link in uplinks:
        link.set_down(True)
    return f"rack {rack} isolated ({len(uplinks)} uplinks down)"


@fault("rack", needs=("fabric",), ends="rack_isolate")
def rack_heal(e, rack, p):
    """restore the rack's uplinks and two-phase-rejoin every node in it the
    metadata service declared failed meanwhile"""
    cluster = e.cluster
    for link in cluster.fabric.uplinks_of(rack):
        link.set_down(False)
    e.mark(f"rack {rack} uplinks healed")
    status = cluster.metadata_active.status
    for name in sorted(cluster.nodes):
        if cluster.rack_of[name] == rack and status.get(name) == "down":
            e.restart(name)


# -- control-plane faults --------------------------------------------------------------------
@fault("cluster", needs=("metadata_ha",))
def metadata_crash(e, _, p):
    """fail-stop the acting metadata leader; a standby must promote itself
    (skipped without a standby)"""
    name = e.crash_leader()
    if name is None:
        raise Skip("no leader")
    return f"{name} (metadata leader) crashes"


@fault("cluster", needs=("metadata_ha",), ends="metadata_crash")
def metadata_rejoin(e, _, p):
    """power the crashed metadata replica back on (it returns as a standby
    and syncs the membership log)"""
    name = e.revive_leader()
    if name is None:
        raise Skip("no crashed replica")
    return f"{name} (metadata replica) rejoins"


@fault("cluster", needs=("control_plane",))
def controller_crash(e, _, p):
    """sever the controller<->switch channel: flow-mods and packet-ins are
    dropped until ``controller_recover``"""
    e.cluster.control_plane.set_down(True)
    return "controller channel down"


@fault("cluster", needs=("control_plane",), ends="controller_crash")
def controller_recover(e, _, p):
    """restore the channel and run the epoch-stamped reconciliation pass
    (repair what diverged, not reinstall)"""
    e.cluster.control_plane.set_down(False)
    stats = e.cluster.metadata_active.reconcile_switches()
    return (
        "controller channel up (reconciled "
        f"+{stats['installed']}/-{stats['deleted']}, {stats['matched']} kept)"
    )


# -- durability faults (DESIGN.md §5k) ---------------------------------------------------------
@fault("node", binding="bind", node_up=True, defaults=dict(factor=8.0))
def disk_slow(e, name, p):
    """fail-slow disk: service times scaled by ``factor``; the device keeps
    answering, so only the health signal can expose it"""
    e.cluster.nodes[name].disk.set_degraded(p["factor"])
    return f"{name} disk {p['factor']:g}x slow"


@fault("node", binding="unbind", ends="disk_slow")
def disk_heal(e, name, p):
    """restore the disk's factory service times"""
    e.cluster.nodes[name].disk.set_degraded(1.0)
    return f"{name} disk healed"


@fault("node", node_up=True, defaults=dict(count=1))
def disk_corrupt(e, name, p):
    """silent bit-rot: flip ``count`` stored objects on the target;
    checksums are untouched, so reads and scrubs can detect the rot"""
    store = e.cluster.nodes[name].store
    names = sorted(store.names())
    if not names:
        raise Skip(f"{name}: empty store")
    count = min(int(p["count"]), len(names))
    picks = [names[i] for i in e.rng.choice(len(names), size=count, replace=False)]
    rotted = sum(1 for key in picks if store.corrupt(key))
    return f"{name} bit-rot in {rotted} objects"


@fault("cluster", needs=("control_plane",))
def power_failure(e, _, p):
    """whole-cluster power loss: every up node crashes with volatile state
    *and* unflushed disk caches (torn-tail appends included) discarded; the
    controller channel goes dark too, and so does a metadata leader that has
    a standby.  The membership log is modeled as durable (§4.4's recovery
    assumes it survives)"""
    downed = [name for name, node in sorted(e.cluster.nodes.items()) if node.host.up]
    for name in downed:
        e.cluster.nodes[name].crash(power_loss=True)
    e.bound.setdefault("power", []).append(downed)
    e.crash_leader()
    e.cluster.control_plane.set_down(True)
    return f"power failure ({len(downed)} nodes dark)"


@fault("cluster", needs=("control_plane",), ends="power_failure", defaults=dict(stagger_s=0.25))
def power_restore(e, _, p):
    """power returns: controller and metadata first, then the storage nodes
    restart staggered by ``stagger_s``; each cold-restarts from its durable
    image + WAL replay, then runs the two-phase rejoin (§4.4 complete
    cluster failure)"""
    fifo = e.bound.get("power")
    downed = fifo.pop(0) if fifo else []
    e.cluster.control_plane.set_down(False)
    replica = e.revive_leader()
    if replica is not None:
        e.mark(f"{replica} (metadata replica) rejoins")
    for i, name in enumerate(downed):
        if i == 0:
            e.restart(name, "cold restart")
        else:
            e.sim.call_in(i * p["stagger_s"], e.restart, name, "cold restart")
    return f"power restored ({len(downed)} nodes booting)"
