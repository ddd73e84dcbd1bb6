"""Unit tests for the process context, stats accounting and the trace."""


from repro.network.delays import ConstantDelay
from repro.network.transport import Network
from repro.sim.context import (
    LocalEffect,
    ProcessStats,
    RoundLimitExceeded,
    SendEffect,
    SharedMemEffect,
    WaitEffect,
)
from repro.sim.events import TraceEntry
from repro.sim.kernel import SimConfig, SimulationKernel
from repro.sim.rng import RandomSource
from repro.sim.trace import Trace


def _idle(ctx):
    yield from ctx.local_step()
    return "idle"


def build_kernel(max_rounds=None):
    kernel = SimulationKernel(seed=1, config=SimConfig(max_rounds=max_rounds))
    kernel.attach_network(Network(2, delay_model=ConstantDelay(1.0), rng=RandomSource(1)))
    return kernel


def test_context_effect_objects_are_yielded():
    kernel = build_kernel()
    captured = []

    def proc(ctx):
        gen_send = ctx.send(1, "x")
        captured.append(next(gen_send))
        gen_sm = ctx.sm_op(lambda: 5)
        captured.append(next(gen_sm))
        gen_wait = ctx.wait_until(lambda mb: mb or None)
        captured.append(next(gen_wait))
        gen_local = ctx.local_step(0.5)
        captured.append(next(gen_local))
        return 0
        yield

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    kernel.run()
    assert isinstance(captured[0], SendEffect) and captured[0].dest == 1
    assert isinstance(captured[1], SharedMemEffect)
    assert isinstance(captured[2], WaitEffect)
    assert isinstance(captured[3], LocalEffect) and captured[3].duration == 0.5


def test_context_counters_track_activity():
    kernel = build_kernel()

    def proc(ctx):
        yield from ctx.send(1, "a")
        yield from ctx.sm_op(lambda: None)
        ctx.mark_round(3)
        ctx.count_coin_flip()
        return "done"

    record = kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    kernel.run()
    stats = record.context.stats
    assert stats.messages_sent == 1
    assert stats.sm_ops == 1
    assert stats.rounds == 3
    assert stats.coin_flips == 1
    assert stats.steps >= 1


def test_mark_round_respects_round_cap():
    kernel = build_kernel(max_rounds=2)

    def proc(ctx):
        ctx.mark_round(1)
        yield from ctx.local_step()
        ctx.mark_round(3)
        return "unreachable"

    kernel.add_process(0, proc)
    result = kernel.run()
    assert result.decisions == {}


def test_mark_round_keeps_maximum():
    stats = ProcessStats()
    stats.rounds = 5
    assert stats.rounds == 5


def test_round_limit_exception_carries_details():
    exc = RoundLimitExceeded(pid=3, round_number=7, limit=5)
    assert exc.pid == 3 and exc.round_number == 7 and exc.limit == 5
    assert "round 7" in str(exc)


def test_context_random_stream_is_per_process_and_deterministic():
    values = [{}, {}]  # one dict per kernel, by its position in the loop

    for seen in values:

        def proc(ctx, seen=seen):
            seen[ctx.pid] = ctx.random().random()
            yield from ctx.local_step()
            return 1

        kernel = build_kernel()
        kernel.add_process(0, proc)
        kernel.add_process(1, proc)
        kernel.run()
    a_vals, b_vals = values
    assert a_vals[0] != a_vals[1]  # different processes, independent streams
    assert a_vals == b_vals  # same seed, reproducible


def test_trace_disabled_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, "step", 0, "x")
    assert len(trace) == 0


def test_trace_bounded_and_counts_drops():
    trace = Trace(enabled=True, max_entries=2)
    for index in range(5):
        trace.record(float(index), "step", 0, f"entry {index}")
    assert len(trace) == 2
    assert trace.dropped == 3


def test_trace_filters_by_process_and_kind():
    trace = Trace(enabled=True)
    trace.record(0.0, "send", 1, "a")
    trace.record(1.0, "send", 2, "b")
    trace.record(2.0, "deliver", 1, "c")
    assert len(trace.for_process(1)) == 2
    assert len(trace.of_kind("send")) == 2
    formatted = trace.format()
    assert "send" in formatted and "deliver" in formatted


def test_trace_entry_format_contains_fields():
    entry = TraceEntry(time=1.5, sequence=7, kind="send", pid=3, detail="hello")
    text = entry.format()
    assert "send" in text and "hello" in text and "3" in text


# ------------------------------------------------------- structured tracing
def build_traced_kernel():
    kernel = SimulationKernel(seed=1, config=SimConfig(trace=True))
    kernel.attach_network(Network(2, delay_model=ConstantDelay(1.0), rng=RandomSource(1)))
    return kernel


def test_log_annotation_carries_simulation_time():
    # Regression: annotations used to land at a -1.0 sentinel time instead
    # of the virtual time at which the algorithm logged them.
    kernel = build_traced_kernel()

    def proc(ctx):
        yield from ctx.local_step(2.5)
        ctx.log("after the step")
        return 0

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    kernel.run()
    notes = kernel.trace.of_kind("note")
    assert len(notes) == 1
    # The local step costs 2.5 virtual seconds (plus scheduling epsilon),
    # so a correctly timed annotation cannot land before it.
    assert notes[0].time >= 2.5


def test_round_and_phase_markers_are_structured():
    kernel = build_traced_kernel()

    def proc(ctx):
        ctx.mark_round(1)
        ctx.mark_phase("vote")
        yield from ctx.local_step()
        ctx.mark_round(2)
        return 0

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    kernel.run()
    rounds = kernel.trace.of_kind("round")
    assert [entry.data for entry in rounds] == [{"round": 1}, {"round": 2}]
    phases = kernel.trace.of_kind("phase")
    assert phases[0].data == {"phase": "vote"} and phases[0].pid == 0


def test_markers_cost_nothing_when_tracing_is_off():
    kernel = build_kernel()

    def proc(ctx):
        ctx.mark_round(1)
        ctx.mark_phase("vote")
        yield from ctx.local_step()
        return 0

    kernel.add_process(0, proc)
    kernel.run()
    assert len(kernel.trace) == 0


def test_send_entries_carry_destination_data():
    kernel = build_traced_kernel()

    def proc(ctx):
        yield from ctx.send(1, "payload")
        return 0

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    kernel.run()
    sends = kernel.trace.of_kind("send")
    assert sends and sends[0].data == {"dest": 1}
    events = kernel.trace.of_kind("event")
    assert events and all("event" in entry.data for entry in events)


def test_trace_jsonl_is_one_stable_object_per_line():
    import json

    trace = Trace(enabled=True)
    trace.record(0.0, "send", 1, "to=2", {"dest": 2})
    trace.record(1.0, "note", None, "free text")
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert list(first) == ["time", "seq", "kind", "pid", "detail", "data"]
    assert first["data"] == {"dest": 2}
    second = json.loads(lines[1])
    assert second["pid"] is None and "data" not in second
    assert Trace(enabled=True).to_jsonl() == ""


def test_trace_sink_dumps_jsonl_on_run_end(tmp_path):
    import json

    sink = tmp_path / "trace.jsonl"
    kernel = SimulationKernel(seed=1, trace_sink=sink)
    kernel.attach_network(Network(2, delay_model=ConstantDelay(1.0), rng=RandomSource(1)))

    def proc(ctx):
        ctx.mark_round(1)
        yield from ctx.send(1, "x")
        return 0

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    # A sink force-enables tracing even though the config leaves it off.
    assert kernel.trace.enabled
    kernel.run()
    lines = sink.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1] == {"meta": {"entries": len(records) - 1, "dropped": 0}}
    kinds = {record["kind"] for record in records[:-1]}
    assert {"round", "send", "event"} <= kinds
