"""A warm request builds few Events (DESIGN.md §5g, "A wait is not an event").

A one-shot wait with one waiter — a resource or lock grant, a service or
flush timer, a TCP connect or delivery, a client's reply, a NOOB vote, a
2PC phase's acks — is a call record in the slot its Event took, not an
Event, and a wait nobody waits for (``then=None``) builds nothing.  A disk
IO and a TCP send are plain chains, not Events.  What a warm op still
builds is counted here by class and held under a named ceiling: the
chains a caller can wait on (the client ``_Op``, a multicast ``_Send``,
the put and get chains) and the timers ``cancel_timer`` tombstones (the
client retry timer, the gather and RPC peer timers).  A conversion undone,
or a new one-shot Event on these paths, fails the test.
"""

from collections import Counter

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.noob import NoobCluster, NoobConfig
from repro.sim import Event, Process, Simulator

#: Events built per warm op, at most — what a warm op builds today (the
#: counts are deterministic).  A NICE put: 3 replica ``_Put`` chains, 3
#: timers (the client retry and two gather timers), the ``_Op`` and the
#: ``_Send``.  A NICE get: the ``_Op``, its retry timer and the
#: ``_Serve``.  A NOOB 2PC put: 5 timers (the client's, four RPC peer
#: timers), the ``_Op`` and the ``_Put``.
CEILINGS = {
    "nice_put": 8,
    "nice_get": 3,
    "noob_2pc_put": 7,
}

OPS = 8


def _count_events(monkeypatch, counts):
    """Count every Event built from here on, by class: through
    ``Event.__init__`` (chains and conditions call it), ``Simulator.timeout``
    (which builds its Timeout inline) and ``Process.__init__``."""
    init, timeout, spawn = Event.__init__, Simulator.timeout, Process.__init__

    def counted_init(self, sim):
        counts[type(self).__name__] += 1
        init(self, sim)

    def counted_timeout(sim, delay, value=None):
        counts["Timeout"] += 1
        return timeout(sim, delay, value)

    def counted_spawn(self, *args, **kwargs):
        counts["Process"] += 1
        spawn(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counted_init)
    monkeypatch.setattr(Simulator, "timeout", counted_timeout)
    monkeypatch.setattr(Process, "__init__", counted_spawn)


def _built(monkeypatch, build, op):
    """Events, by class, that ``OPS`` warm ops of ``op`` build."""
    cluster = build()
    sim = cluster.sim
    client = cluster.clients[0]
    counts = Counter()
    results = []

    def driver():
        for i in range(OPS):  # connections up, keys stored
            yield client.put(f"k{i}", "v", 1000)
        _count_events(monkeypatch, counts)
        for i in range(OPS):
            results.append((yield op(client, f"k{i}")))
        monkeypatch.undo()

    sim.process(driver())
    sim.run(until=sim.now + 5.0)
    assert len(results) == OPS and all(r.ok for r in results)
    return counts


def _nice():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=6, n_clients=1, replication_level=3))
    cluster.warm_up()
    return cluster


def _noob_2pc():
    cluster = NoobCluster(NoobConfig(n_storage_nodes=6, n_clients=1, replication_level=3,
                                     consistency="2pc"))
    cluster.warm_up()
    return cluster


CASES = {
    "nice_put": (_nice, lambda c, key: c.put(key, "w", 1000)),
    "nice_get": (_nice, lambda c, key: c.get(key)),
    "noob_2pc_put": (_noob_2pc, lambda c, key: c.put(key, "w", 1000)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_op_builds_at_most_its_ceiling_of_events(case, monkeypatch):
    counts = _built(monkeypatch, *CASES[case])
    per_op = sum(counts.values()) / OPS
    detail = ", ".join(f"{name} {n / OPS:g}" for name, n in counts.most_common())
    assert per_op <= CEILINGS[case], f"{case}: {per_op:g} Events per op ({detail})"
