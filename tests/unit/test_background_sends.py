"""Background sends nobody waits on vs the processes they replaced
(DESIGN.md §5g, "what nobody waits on is not built").

A membership push (``MetadataService._inform_replicas``) and a lock-query
reply (``Recovery.serve_query_locks``) used to be processes that sent and
then waited for the delivery, with nothing left to do after it.  They are
now sends called in the URGENT record where the process started, with
``then=None``.  Against the old process forms (``tests.helpers``), each
run must schedule the same records in the same ``(now, delay, priority)``
slots, less only the records that ran no code: the delivery record of the
send and the wake of a process that then just ended.
"""

from collections import Counter
from functools import partial

from repro.core import ClusterConfig, NiceCluster
from repro.core.config import NODE_PORT, REQUEST_BYTES
from repro.core.storage_node.shell import NiceStorageNode
from tests.helpers import record_targets, ref_inform_replicas, ref_serve_query_locks

#: The targets of the records an old form scheduled that ran no code: the
#: delivery of a send someone waited on, and the wake of that waiter.
RAN_NOTHING = {"_SendMessage._delivered", "Event._fire"}


def _cluster():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=6, n_clients=1, replication_level=3))
    cluster.warm_up()
    sim = cluster.sim

    def put():
        assert (yield cluster.clients[0].put("k", "v", 1000)).ok

    sim.process(put())
    sim.run(until=sim.now + 0.05)
    return cluster


def _push(old_form):
    """The metadata leader pushes one partition's slice to its replicas."""
    cluster = _cluster()
    sim = cluster.sim
    service = cluster.metadata_active
    rs = cluster.partition_map.get(cluster.partition_of_key("k"))
    held = {name: node.replica_sets.get(rs.partition) for name, node in cluster.nodes.items()}
    log = record_targets(sim)
    inform = partial(ref_inform_replicas, service) if old_form else service._inform_replicas
    inform(rs)
    sim.run(until=sim.now + 0.05)
    installed = sorted(name for name, node in cluster.nodes.items()
                       if node.replica_sets.get(rs.partition) is not held[name])
    return log, sim._eid, service.membership_messages.value, installed


def _query_locks(old_form, monkeypatch):
    """A node asks a partition's primary for its locked and committed ops;
    the reply lands in the asking connection's inbox."""
    if old_form:  # before the build: the mailbox serves the bound handler
        dispatch = NiceStorageNode._on_node_msg

        def on_node_msg(node, msg):
            body = msg.payload or {}
            if body.get("type") == "query_locks":
                node.sim.process(ref_serve_query_locks(node.recovery, msg, body))
            else:
                dispatch(node, msg)

        monkeypatch.setattr(NiceStorageNode, "_on_node_msg", on_node_msg)
    cluster = _cluster()
    sim = cluster.sim
    part = cluster.partition_of_key("k")
    primary = cluster.node_of_partition(part)
    asker = next(n for n in cluster.nodes.values() if n is not primary)
    log = record_targets(sim)
    asker.stack.tcp.send_message(
        primary.ip, NODE_PORT, {"type": "query_locks", "partition": part, "token": ("t", 1)},
        REQUEST_BYTES)
    sim.run(until=sim.now + 0.05)
    conn = asker.stack.tcp._client_conns[(primary.ip, NODE_PORT)]
    replies = [m.payload for m in conn.inbox.items]
    return log, sim._eid, replies


def _less_what_ran_nothing(new, old, dropped):
    """``new`` is ``old`` less its records that ran no code, which are
    ``dropped`` by target; the new run schedules none of them."""
    assert not [entry for entry in new if entry[3] in RAN_NOTHING]
    assert [e[:3] for e in new] == [e[:3] for e in old if e[3] not in RAN_NOTHING]
    assert Counter(e[3] for e in old if e[3] in RAN_NOTHING) == dropped


def test_a_membership_push_schedules_the_process_records_less_what_ran_nothing():
    new_log, new_eid, *new_seen = _push(old_form=False)
    old_log, old_eid, *old_seen = _push(old_form=True)
    sent, installed = new_seen
    assert new_seen == old_seen and sent == 3 and len(installed) == 3
    # Each of the three sends drops its delivery and its process's wake.
    _less_what_ran_nothing(new_log, old_log, {"_SendMessage._delivered": 3, "Event._fire": 3})
    assert new_eid == old_eid - 6


def test_a_lock_query_reply_schedules_the_process_records_less_what_ran_nothing(monkeypatch):
    new_log, new_eid, new_replies = _query_locks(False, monkeypatch)
    old_log, old_eid, old_replies = _query_locks(True, monkeypatch)
    assert new_replies == old_replies
    assert [r["type"] for r in new_replies] == ["query_locks_reply"]
    assert new_replies[0]["committed"]  # the put's op is in it
    # The reply drops the wake of the process that waited for its delivery.
    _less_what_ran_nothing(new_log, old_log, {"Event._fire": 1})
    assert new_eid == old_eid - 1
