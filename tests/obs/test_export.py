"""Exporter tests: Chrome trace validity and JSONL round-tripping."""

import json

from repro.obs import Tracer, chrome_trace, install, jsonl_lines, write_chrome_trace, write_jsonl
from repro.sim import Simulator


def sample_tracer(label="run"):
    sim = Simulator()
    tracer = install(sim, label=label)
    op = ("10.0.0.9", 1)
    span = tracer.begin("put", "op", node="c0", op=op, key="k")
    sim._now = 0.001
    tracer.instant("rule_hit", "switch", node="sw", op=op, cookie="uni:0")
    sim._now = 0.002
    tracer.instant("node down", "fault", node="chaos")
    sim._now = 0.003
    tracer.begin("idle", "proc", node="n1").end()  # uncorrelated duration
    sim._now = 0.004
    span.end(status="ok")
    return tracer


def test_chrome_trace_structure():
    doc = chrome_trace([sample_tracer()])
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    # Metadata rows: process name/sort + thread name/sort per component.
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert names == {"run"}
    threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert threads == {"c0", "sw", "chaos", "n1"}
    # Op-correlated spans are async pairs sharing the stringified op id.
    b = next(e for e in events if e["ph"] == "b")
    e_ = next(e for e in events if e["ph"] == "e")
    assert b["id"] == e_["id"] == "10.0.0.9/1"
    assert b["ts"] == 0.0 and e_["ts"] == 4000.0  # microseconds of sim time
    # Fault instants are global-scope, others thread-scope.
    instants = {e["name"]: e["s"] for e in events if e["ph"] == "i"}
    assert instants == {"rule_hit": "t", "node down": "g"}
    # Uncorrelated spans stay plain duration events.
    assert [e["name"] for e in events if e["ph"] in ("B", "E")] == ["idle", "idle"]


def test_chrome_trace_balanced_and_multi_run_pids():
    t1, t2 = sample_tracer("a"), sample_tracer("b")
    events = chrome_trace([t1, t2])["traceEvents"]
    assert {e["pid"] for e in events} == {1, 2}
    for ph_open, ph_close in (("b", "e"), ("B", "E")):
        opens = [e for e in events if e["ph"] == ph_open]
        closes = [e for e in events if e["ph"] == ph_close]
        assert len(opens) == len(closes) > 0


def test_write_chrome_trace_is_strict_json(tmp_path):
    path = tmp_path / "out.trace.json"
    n = write_chrome_trace(str(path), [sample_tracer()])
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n
    required = {"name", "ph", "pid", "tid", "ts"}
    for event in doc["traceEvents"]:
        if event["ph"] != "M":
            assert required <= set(event)


def test_jsonl_round_trip(tmp_path):
    tracer = sample_tracer("jr")
    path = tmp_path / "out.jsonl"
    n = write_jsonl(str(path), [tracer])
    lines = path.read_text().splitlines()
    assert len(lines) == n == len(tracer.events)
    rows = [json.loads(line) for line in lines]
    assert all(row["run"] == "jr" for row in rows)
    assert rows[0]["name"] == "put" and rows[0]["ph"] == "B"
    assert rows[0]["op"] == ["10.0.0.9", 1]
    assert rows[-1]["args"] == {"status": "ok"}


def test_export_is_deterministic():
    """Two identically-driven tracers must export byte-identical JSON."""
    a = json.dumps(chrome_trace([sample_tracer()]), sort_keys=True)
    b = json.dumps(chrome_trace([sample_tracer()]), sort_keys=True)
    assert a == b
    assert list(jsonl_lines([sample_tracer()])) == list(jsonl_lines([sample_tracer()]))


def test_chaos_faults_export_as_global_instants():
    """A chaos-injected fault must surface in the Chrome export as a
    global-scope instant, visible across the whole timeline."""
    from repro.chaos import ChaosEngine, FaultEvent, FaultSchedule
    from repro.core import ClusterConfig, NiceCluster

    cluster = NiceCluster(ClusterConfig(n_storage_nodes=6, n_clients=1))
    cluster.warm_up()
    tracer = install(cluster.sim, label="chaos-run")
    schedule = FaultSchedule(
        "crash_one",
        (FaultEvent.make(0.05, "crash", "node:n0"),),
    )
    ChaosEngine(cluster, schedule, seed=7).start()
    cluster.sim.run(until=0.2)

    faults = [ev for ev in tracer.events if ev.cat == "fault"]
    assert faults and faults[0].ph == "i"
    events = chrome_trace([tracer])["traceEvents"]
    exported = [
        e for e in events if e["ph"] == "i" and e.get("cat") == "fault"
    ]
    assert exported, "fault marker missing from Chrome export"
    assert all(e["s"] == "g" for e in exported)


def test_a_traced_puts_addresses_export_as_dotted_strings(tmp_path):
    """Switch sites store addresses raw, and an address is an ``int``, which
    ``json`` writes as a number: both exporters must write the dotted form
    for every address argument."""
    from repro.bench.harness import build_nice, run_to_completion
    from repro.net import IPv4Address

    cluster = build_nice(n_storage_nodes=6, n_clients=1)
    tracer = install(cluster.sim, label="put")
    client = cluster.clients[0]

    def driver(sim):
        assert (yield client.put("k", "v", 1024)).ok
        assert (yield client.get("k")).ok

    run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    raw = [ev.args or {} for ev in tracer.events]
    addressed = [
        (i, name, value) for i, args in enumerate(raw)
        for name, value in args.items() if isinstance(value, IPv4Address)
    ]
    assert {name for _, name, _ in addressed} >= {"dst", "old", "new"}

    chrome = [e for e in chrome_trace([tracer])["traceEvents"] if e["ph"] != "M"]
    path = tmp_path / "put.jsonl"
    write_jsonl(str(path), [tracer])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(chrome) == len(lines) == len(raw)
    for i, name, value in addressed:
        assert chrome[i]["args"][name] == lines[i]["args"][name] == str(value)
    doc = json.loads(json.dumps(chrome_trace([tracer]), default=str))
    assert not any(
        isinstance(v, int) and v >= 1 << 24
        for e in doc["traceEvents"] for v in e["args"].values()
    ), "an address escaped as an integer"
