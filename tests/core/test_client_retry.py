"""Client retry semantics: fixed back-off, bounded any-k, authoritative miss.

Pins the PR-4 bugfix sweep:

* ``_put``/``_get`` honor the documented fixed back-off after a rejection
  (previously a non-ok reply re-sent immediately — a zero-sim-time retry
  storm against a rejecting replica set);
* ``_put_anyk`` is bounded by ``client_retry_timeout_s`` instead of
  hanging forever (and reporting ok) when the quorum is unreachable;
* an authoritative get "miss" returns immediately — it is an answer,
  not a failure to reach the store.

The attempt loop itself is one piece of code (``core/client.py: _Op``) that
the NICE and the NOOB client both run: the ``system``-parametrized tests
at the bottom drive it through each, using only the network (dark hosts, a
rejection sent by another machine) to provoke each branch.
"""

import pytest

from repro.chaos import ChaosEngine, FaultEvent, FaultSchedule
from repro.core import CLIENT_PORT, ClusterConfig, NiceCluster
from repro.noob import NoobCluster, NoobConfig
from repro.obs import install as install_tracer


def make_cluster(**kw):
    # heartbeat_miss_limit is huge so a crashed replica is never declared
    # failed: the replica set stays degraded and every 2PC put against it
    # aborts after peer_timeout_s — the rejection path under test.
    defaults = dict(
        n_storage_nodes=6, n_clients=1, replication_level=3,
        heartbeat_miss_limit=10_000,
    )
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def crash_one_secondary(cluster, key):
    part = cluster.uni_vring.subgroup_of_key(key)
    rs = cluster.partition_map.get(part)
    victim = next(m for m in rs.members if m != rs.primary)
    cluster.nodes[victim].crash()
    return victim


def run_driver(cluster, gen, until=60.0):
    proc = cluster.sim.process(gen)
    cluster.sim.run(until=until)
    assert proc.triggered, "driver did not finish"
    return proc.value


def test_put_retry_attempts_are_spaced_by_fixed_backoff():
    """A rejecting replica set must see retries ``client_retry_timeout_s``
    apart, not a same-instant storm (the attempt spans prove the spacing)."""
    cluster = make_cluster()
    tracer = install_tracer(cluster.sim, label="test")
    client = cluster.clients[0]
    key = "stormy"
    crash_one_secondary(cluster, key)
    cfg = cluster.config

    def driver():
        result = yield client.put(key, "v", 1000, max_retries=2)
        return result

    result = run_driver(cluster, driver())
    # Two aborts (peer timeout on the crashed secondary), then the §4.4
    # two-strikes failure report repairs the replica set and the third
    # attempt commits.
    assert result.ok
    assert result.retries == 2
    assert client.retries.value == 2
    assert client.failures.value == 0

    attempts = tracer.spans("put")
    assert len(attempts) == 3
    # The rejected attempts ended with the coordinator's "fail" reply, not
    # a timeout: the back-off (not the 2 s op timeout) made the spacing.
    assert [e.args["status"] for _, e in attempts] == ["fail", "fail", "ok"]
    starts = [b.ts for b, _ in attempts]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    for gap in gaps:
        assert gap >= cfg.client_retry_timeout_s
        # ... but not a full op timeout: the reply arrived early (at the
        # 0.5 s peer timeout) and only the back-off was waited out.
        assert gap < cfg.client_retry_timeout_s + 2 * cfg.peer_timeout_s
    # Total: 2 aborts at ~peer_timeout plus 2 back-offs plus a fast commit.
    expected = 2 * cfg.peer_timeout_s + 2 * cfg.client_retry_timeout_s
    assert result.latency == pytest.approx(expected, rel=0.2)


def test_put_anyk_times_out_when_quorum_unreachable():
    """Chaos-crashed replica + quorum == replication level: the any-k
    multicast can never complete, so the op must return ``status ==
    "timeout"`` at the retry timeout instead of hanging (and must not
    report ok)."""
    cluster = make_cluster()
    client = cluster.clients[0]
    key = "anyk-k"
    schedule = FaultSchedule(
        "crash_secondary",
        (FaultEvent.make(0.1, "crash", f"secondary:{key}"),),
    )
    ChaosEngine(cluster, schedule, seed=1).start()
    cfg = cluster.config
    out = {}

    def driver(sim):
        yield sim.timeout(0.2)  # after the crash fires
        t0 = sim.now
        result = yield client.put_anyk(key, "v", 1000, quorum=cfg.replication_level)
        out["elapsed"] = sim.now - t0
        return result

    result = run_driver(cluster, driver(cluster.sim))
    assert not result.ok
    assert result.status == "timeout"
    assert out["elapsed"] == pytest.approx(cfg.client_retry_timeout_s, rel=0.01)
    assert client.failures.value == 1


def test_put_anyk_still_completes_with_reachable_quorum():
    """Same degraded cluster, but quorum == 2 of 3 replicas: the two live
    replicas satisfy it, so the timeout bound must not fire."""
    cluster = make_cluster()
    client = cluster.clients[0]
    key = "anyk-k"
    crash_one_secondary(cluster, key)

    def driver():
        result = yield client.put_anyk(key, "v", 1000, quorum=2)
        return result

    result = run_driver(cluster, driver())
    assert result.ok
    assert result.value == 2  # exactly the quorum acks
    assert result.latency < cluster.config.client_retry_timeout_s


def resolved_routes(tracer, key):
    """The per-attempt get routes a client traced for ``key``."""
    return [
        ev.args["vnode"]
        for ev in tracer.events
        if ev.ph == "i" and ev.name == "vnode_resolve"
        and ev.args.get("kind") == "get" and ev.args.get("key") == key
    ]


def test_get_retries_reresolve_the_route():
    """Each get retry must re-resolve routing and present a *fresh* flow
    identity within the key's subgroup — not re-send the byte-identical
    header tuple its failed predecessor used (which any per-flow state
    keyed on the old route would keep answering stale)."""
    cluster = make_cluster()
    tracer = install_tracer(cluster.sim, label="test")
    client = cluster.clients[0]
    key = "re-resolve-me"

    def swallow_attempts(sim, n):
        # Eat the first n in-flight attempts so the client times out and
        # walks the whole retry ladder.
        for _ in range(n):
            yield sim.timeout(1e-4)
            (op_id, waiter), = list(client._waiters.items())
            waiter.succeed({"op_id": list(op_id), "status": "error"})
            yield sim.timeout(cluster.config.client_retry_timeout_s)

    def driver(sim):
        sim.process(swallow_attempts(sim, 3))
        result = yield client.get(key, max_retries=3)
        return result

    result = run_driver(cluster, driver(cluster.sim), until=120.0)
    assert result.retries == 3
    routes = resolved_routes(tracer, key)
    # One resolution per attempt — and every attempt got its own address.
    assert len(routes) == 4
    assert len(set(routes)) == 4, f"retries reused a route: {routes}"
    # The rotation never leaves the key's subgroup: partition and rule
    # coverage are unchanged, only the flow identity moves.
    vring = cluster.uni_vring
    subgroup = vring.subgroup_of_key(key)
    for route in routes:
        from repro.net import IPv4Address
        assert vring.subgroup_of_address(IPv4Address(route)) == subgroup


def test_get_succeeds_across_rule_flap():
    """Rule-flap chaos: the partition's flow rules are ripped out while a
    get is in flight.  The attempt that lands in the down window stalls,
    and the retry — re-resolved against the re-synced tables — must
    complete with the committed value."""
    cluster = make_cluster()
    tracer = install_tracer(cluster.sim, label="test")
    client = cluster.clients[0]
    key = "flappy"
    # One long flap (down > retry timeout) so at least one retry is forced
    # to route against freshly re-synced tables.
    schedule = FaultSchedule.rule_flap(
        key=key, at=1.0, down_s=2.5 * cluster.config.client_retry_timeout_s,
        times=1,
    )

    def driver(sim):
        r = yield client.put(key, "v-flap", 1000)
        assert r.ok
        yield sim.timeout(1.2 - sim.now)  # inside the down window
        result = yield client.get(key, max_retries=3)
        return result

    ChaosEngine(cluster, schedule, seed=7).start()
    result = run_driver(cluster, driver(cluster.sim), until=120.0)
    assert result.ok
    assert result.value == "v-flap"
    routes = resolved_routes(tracer, key)
    # Every attempt re-resolved; no two attempts shared a flow identity.
    assert len(routes) == result.retries + 1
    assert len(set(routes)) == len(routes)


# -- the shared attempt loop, through a NICE and a NOOB client ---------------------


@pytest.fixture(params=["nice", "noob"])
def system(request):
    """A small cluster of either system with one key already stored."""
    kw = dict(n_storage_nodes=6, n_clients=2, replication_level=3)
    if request.param == "nice":
        cluster = NiceCluster(ClusterConfig(**kw, heartbeat_miss_limit=10_000))
    else:
        cluster = NoobCluster(NoobConfig(**kw))  # no metadata service to declare
    cluster.warm_up()
    result = run_driver(cluster, put_one(cluster.clients[0], "stored"), until=5.0)
    assert result.ok
    return cluster


def put_one(client, key):
    result = yield client.put(key, "v", 1000)
    return result


def set_replicas_dark(cluster, key, dark):
    """NIC-level outage of every replica of ``key``: requests vanish, no
    failure is ever declared (``heartbeat_miss_limit`` is huge)."""
    for node in cluster.replica_nodes(key):
        if dark:
            node.host.fail()
        else:
            node.host.recover()


def test_miss_is_an_answer_not_a_retry(system):
    client = system.clients[0]

    def driver():
        result = yield client.get("never-written", max_retries=3)
        return result

    result = run_driver(system, driver())
    assert not result.ok
    assert result.status == "miss"
    assert result.retries == 0  # answered on the first attempt
    assert client.retries.value == 0 and client.failures.value == 0
    assert result.latency < system.config.client_retry_timeout_s


def test_timeout_retries_until_the_store_answers(system):
    client = system.clients[0]
    timeout = system.config.client_retry_timeout_s

    def driver(sim):
        set_replicas_dark(system, "stored", True)
        op = client.get("stored", max_retries=5)
        yield sim.timeout(1.25 * timeout)  # the first attempt has timed out
        set_replicas_dark(system, "stored", False)
        result = yield op
        return result

    result = run_driver(system, driver(system.sim))
    assert result.ok and result.value == "v"
    assert result.retries >= 1
    assert client.retries.value == result.retries
    assert client.failures.value == 0
    assert result.latency >= timeout


def test_exhausted_retries_count_one_failure(system):
    client = system.clients[0]
    timeout = system.config.client_retry_timeout_s
    set_replicas_dark(system, "stored", True)

    def driver():
        result = yield client.get("stored", max_retries=1)
        return result

    result = run_driver(system, driver())
    assert not result.ok
    assert result.status == "timeout"
    assert result.retries == 1
    assert client.retries.value == 1
    assert client.failures.value == 1
    assert result.latency == pytest.approx(2 * timeout, rel=0.01)


def test_early_rejection_waits_out_the_backoff(system):
    """A non-ok, non-miss reply that arrives early must not trigger a
    same-instant resend.  No node emits such a status for a get, so
    another machine sends it to the client's reply socket."""
    tracer = install_tracer(system.sim, label="test")
    client, other = system.clients
    timeout = system.config.client_retry_timeout_s

    def driver(sim):
        set_replicas_dark(system, "stored", True)  # attempt 0 goes nowhere
        op = client.get("stored", max_retries=1)
        yield sim.timeout(0)  # let the attempt take its op id
        begin = next(ev for ev in tracer.events if ev.ph == "B" and ev.name == "get")
        other.stack.tcp.send_message(
            client.ip, CLIENT_PORT,
            {"type": "get_reply", "op_id": begin.op, "status": "error"}, 64,
        )
        yield sim.timeout(0.5 * timeout)
        set_replicas_dark(system, "stored", False)
        result = yield op
        return result

    result = run_driver(system, driver(system.sim))
    assert result.ok and result.value == "v"
    assert result.retries == 1 and client.retries.value == 1
    attempts = tracer.spans("get")
    assert [end.args["status"] for _, end in attempts] == ["error", "ok"]
    gap = attempts[1][0].ts - attempts[0][0].ts
    assert timeout <= gap < timeout + 0.1
