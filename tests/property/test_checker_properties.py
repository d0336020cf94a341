"""Property tests for the history checkers (Hypothesis).

Two families:

* histories generated *linearizable by construction* — each op is given an
  explicit linearization point inside its window and reads return the
  register value at that point — must always be accepted;
* histories with an injected stale-read-after-acked-overwrite must always
  be rejected, the screen's verdict must agree with the exact checker, and
  the minimal core must itself be a violating subhistory.
"""

from hypothesis import given, settings, strategies as st

from repro.check import Operation, check_linearizable, check_monotonic


def _op(i, client, kind, key, inv, ret, value=None, ok=True, status="ok"):
    return Operation(
        op_index=i,
        client=client,
        kind=kind,
        key=key,
        invoke_ts=inv,
        return_ts=ret,
        value=value,
        ok=ok,
        status=status,
    )


@st.composite
def linearizable_history(draw, max_ops=24, n_clients=3, keys=("a", "b")):
    """A history with explicit in-window linearization points per op.

    Per-client sequential (invoke after the client's previous return),
    reads return the register value at their linearization point — so a
    valid linearization exists by construction.
    """
    n = draw(st.integers(min_value=1, max_value=max_ops))
    client_clock = {c: 0.0 for c in range(n_clients)}
    ops = []  # (linearization_point, op_record_stub)
    seq = 0
    for i in range(n):
        client = draw(st.integers(min_value=0, max_value=n_clients - 1))
        key = draw(st.sampled_from(keys))
        is_put = draw(st.booleans())
        gap = draw(st.floats(min_value=0.0, max_value=1.0))
        dur = draw(st.floats(min_value=0.01, max_value=1.5))
        inv = client_clock[client] + gap
        ret = inv + dur
        frac = draw(st.floats(min_value=0.0, max_value=1.0))
        lin = inv + frac * dur
        client_clock[client] = ret + 1e-3
        if is_put:
            seq += 1
            value = f"c{client}:{seq}"
        else:
            value = None  # filled from register state below
        ops.append([lin, i, client, key, inv, ret, is_put, value])

    # Replay in linearization order to resolve read values.
    register = {}
    history = []
    for lin, i, client, key, inv, ret, is_put, value in sorted(ops):
        if is_put:
            register[key] = value
        else:
            value = register.get(key)
        history.append(
            _op(
                i,
                f"c{client}",
                "put" if is_put else "get",
                key,
                inv,
                ret,
                value=value,
                ok=True if is_put or value is not None else False,
                status="ok" if is_put or value is not None else "miss",
            )
        )
    history.sort(key=lambda op: op.invoke_ts)
    return history


@settings(max_examples=40, deadline=None)
@given(linearizable_history())
def test_accepts_truly_linearizable_histories(history):
    result = check_linearizable(history)
    assert result.ok, result.describe()
    assert check_monotonic(history).ok


@settings(max_examples=40, deadline=None)
@given(linearizable_history(), st.sampled_from(["a", "b"]))
def test_rejects_stale_read_after_acked_overwrite(history, key):
    """Appending put(old); put(new); get->old must always be caught."""
    t = max((op.return_ts for op in history), default=0.0) + 1.0
    n = len(history)
    poison = [
        _op(n, "w", "put", key, t, t + 1, value="stale-old"),
        _op(n + 1, "w", "put", key, t + 2, t + 3, value="stale-new"),
        _op(n + 2, "r", "get", key, t + 4, t + 5, value="stale-old"),
    ]
    bad = history + poison

    lin = check_linearizable(bad)
    assert not lin.ok
    assert lin.key == key
    # The minimal core is itself a violating subhistory, no bigger than
    # the key's slice, and still fails when re-checked in isolation.
    assert 0 < len(lin.violation) <= sum(1 for op in bad if op.key == key)
    assert not check_linearizable(lin.violation).ok

    # The cheap screen agrees (it only ever reports true violations).
    mono = check_monotonic(bad)
    assert not mono.ok
    assert mono.key == key


@settings(max_examples=40, deadline=None)
@given(linearizable_history())
def test_ambiguous_ops_never_cause_false_positives(history):
    """Marking any suffix of puts as timed-out keeps the history accepted
    (an ambiguous put may simply have taken effect)."""
    mutated = []
    for op in history:
        if op.kind == "put" and op.invoke_ts > 1.0:
            op = Operation(
                op_index=op.op_index,
                client=op.client,
                kind=op.kind,
                key=op.key,
                invoke_ts=op.invoke_ts,
                return_ts=op.return_ts,
                value=op.value,
                ok=False,
                status="timeout",
            )
        mutated.append(op)
    assert check_linearizable(mutated).ok


@settings(max_examples=25, deadline=None)
@given(linearizable_history(max_ops=16))
def test_screen_never_disagrees_with_exact_checker(history):
    """check_monotonic reports only true violations: if it fires on a
    (possibly mutated) history, Wing–Gong must reject that history too."""
    mono = check_monotonic(history)
    if not mono.ok:
        assert not check_linearizable(history).ok


# -- the read-regression scan against its quadratic reference ----------------


def _reference_check_key(key, ops, n_total):
    """``check_monotonic``'s per-key check as it was before the read-
    regression half became a bisect: every earlier get scanned per get."""
    import bisect
    import math

    from repro.check import CheckResult

    def window(value):
        w = writers.get(value) if value is not None else None
        if w is None:
            return (-math.inf, -math.inf)
        return (w.invoke_ts, w.return_ts if w.completed else math.inf)

    writers = {op.value: op for op in ops if op.kind == "put"}
    acked_puts = [op for op in ops if op.kind == "put" and op.acked]
    gets = [
        op for op in ops
        if op.kind == "get" and (op.acked or (op.completed and op.status == "miss"))
    ]

    def violation(core, reason):
        seen, ordered = set(), []
        for op in sorted(core, key=lambda o: o.invoke_ts):
            if id(op) not in seen:
                seen.add(id(op))
                ordered.append(op)
        return CheckResult(ok=False, n_ops=n_total, key=key, violation=ordered, reason=reason)

    acked_by_ret = sorted(acked_puts, key=lambda p: p.return_ts)
    rets = [p.return_ts for p in acked_by_ret]
    prefix_best, best = [], None
    for p in acked_by_ret:
        if best is None or p.invoke_ts > best.invoke_ts:
            best = p
        prefix_best.append(best)
    for g in gets:
        _, w_ret = window(g.value)
        hi = bisect.bisect_left(rets, g.invoke_ts)
        if hi == 0:
            continue
        q = prefix_best[hi - 1]
        if q.invoke_ts > w_ret and writers.get(g.value) is not q:
            core = [q, g]
            w = writers.get(g.value)
            if w is not None:
                core.insert(0, w)
            what = f"value {g.value!r}" if g.value is not None else "the initial value"
            return violation(
                core,
                f"stale read: {g.client} get({key}) returned {what}, "
                f"overwritten by an acked put before the get was invoked",
            )
    gets_by_inv = sorted(gets, key=lambda g: g.invoke_ts)
    for j, g2 in enumerate(gets_by_inv):
        _, w2_ret = window(g2.value)
        for g1 in gets_by_inv[:j]:
            if not g1.completed or g1.return_ts >= g2.invoke_ts:
                continue
            if g1.value == g2.value:
                continue
            w1_inv, _ = window(g1.value)
            if w2_ret < w1_inv:
                core = [g1, g2]
                for v in (g1.value, g2.value):
                    w = writers.get(v)
                    if w is not None:
                        core.append(w)
                return violation(
                    core,
                    f"read regression: {g2.client} get({key}) returned "
                    f"{g2.value!r} after {g1.client} had already read the "
                    f"strictly newer {g1.value!r}",
                )
    return None


def _reference_check_monotonic(ops):
    from repro.check import CheckResult

    by_key = {}
    for op in ops:
        if op.kind in ("put", "get"):
            by_key.setdefault(op.key, []).append(op)
    for key in sorted(by_key):
        bad = _reference_check_key(key, by_key[key], len(ops))
        if bad is not None:
            return bad
    return CheckResult(ok=True, n_ops=len(ops), checked_keys=tuple(sorted(by_key)))


_ticks = st.integers(min_value=0, max_value=40).map(lambda t: t / 4)


@st.composite
def arbitrary_history(draw, max_puts=8, max_gets=24, keys=("a", "b")):
    """Puts with unique values, then gets that return any put's value (or
    a miss) in any window — stale reads and read regressions included —
    with ties on a quarter-second grid and some ops left pending."""
    ops = []
    for i in range(draw(st.integers(min_value=0, max_value=max_puts))):
        inv = draw(_ticks)
        ret = inv + draw(_ticks) if draw(st.integers(0, 5)) else None
        ok = None if ret is None else draw(st.sampled_from([True, True, False]))
        status = "pending" if ret is None else "ok" if ok else "timeout"
        ops.append(_op(len(ops), f"w{i % 3}", "put", draw(st.sampled_from(keys)),
                       inv, ret, value=f"v{i}", ok=ok, status=status))
    values = [None] + [op.value for op in ops]
    for i in range(draw(st.integers(min_value=0, max_value=max_gets))):
        inv = draw(_ticks)
        ret = inv + draw(_ticks) if draw(st.integers(0, 5)) else None
        value = draw(st.sampled_from(values)) if ret is not None else None
        ok = None if ret is None else value is not None
        status = "pending" if ret is None else "ok" if ok else "miss"
        ops.append(_op(len(ops), f"r{i % 4}", "get", draw(st.sampled_from(keys)),
                       inv, ret, value=value, ok=ok, status=status))
    return draw(st.permutations(ops))


def _verdict(result):
    ids = None if result.violation is None else [id(op) for op in result.violation]
    return result.ok, result.key, result.reason, ids


@settings(max_examples=300, deadline=None)
@given(arbitrary_history())
def test_read_regression_bisect_matches_the_quadratic_scan(history):
    assert _verdict(check_monotonic(history)) == _verdict(_reference_check_monotonic(history))


def test_read_regression_reports_the_same_core_and_reason():
    """A directed regression: r1 reads v1, then r0 (invoked after r1
    returned) reads v0, whose writer returned before v1's began."""
    history = [
        _op(0, "w", "put", "k", 0.0, 1.0, value="v0"),
        _op(1, "w", "put", "k", 2.0, 3.0, value="v1", ok=False, status="timeout"),
        _op(2, "r1", "get", "k", 3.5, 4.0, value="v1"),
        _op(3, "r0", "get", "k", 5.0, 6.0, value="v0"),
    ]
    result = check_monotonic(history)
    assert not result.ok
    assert result.reason.startswith("read regression: r0 get(k) returned 'v0'")
    assert _verdict(result) == _verdict(_reference_check_monotonic(history))
