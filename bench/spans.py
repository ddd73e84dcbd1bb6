"""In-memory span tracer for the traced benchmark pass.

The untraced pass measures the end-to-end metrics with the program exactly
as shipped.  The traced pass installs timing wrappers -- from here, never
from inside ``src/`` -- around the public entry points of every layer, runs
the same fixed work again, and turns what the wrappers saw into the
per-layer metrics of ``BENCHMARK.json``.  :meth:`Tracer.uninstall` restores
every patched attribute, so a traced pass leaves the program untouched.

Two kinds of wrapper share one accounting protocol:

* **span** wrappers (coarse callables: a kernel run, ``prepare_consensus``,
  ``run_many``, a lease claim, ...) append one ``(name, start, end, parent,
  run)`` tuple per call to :attr:`Tracer.spans`;
* **hot** wrappers (per-message callables: ``Network.transmit``,
  ``scan_mailbox``, delay refills, adversary verdicts, consensus-object
  steps) only count and accumulate -- one span per call would cost more
  than the call.

Both keep an exact *self time*: each wrapper zeroes a shared child-time
cell on entry and, on exit, bills ``duration - children`` to itself and
``duration`` to its caller's cell.  Self times therefore partition the
traced wall clock, and what they do not cover is ``trace.unattributed_s``.
The per-call cost of a wrapper that lands in the *caller's* frame is
calibrated when the tracer is built and billed to ``trace.wrapper_s``
instead of inflating the caller's self time.
"""

from __future__ import annotations

import json
import pickle
import sys
import threading
import weakref
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Calls timed to calibrate the per-call wrapper cost.
_CALIBRATION_CALLS = 20_000

#: How many reduced summaries are pickled to estimate ``aggregate.summary_bytes``.
_SUMMARY_SAMPLE = 64


class Acc:
    """Call count, inclusive time and self time of one wrapped name."""

    __slots__ = ("calls", "enters", "total", "self_s", "off_thread_s", "outer_each")

    def __init__(self) -> None:
        #: Calibrated caller-side cost of one entry into this name's wrapper.
        self.outer_each = 0.0
        self.calls = 0
        #: Timed wrapper entries; above ``calls`` only for generators, which
        #: are timed once per resumed step.
        self.enters = 0
        self.total = 0.0
        self.self_s = 0.0
        #: Time spent in calls from other threads (lease heartbeats); kept
        #: out of the self-time partition of the measuring thread.
        self.off_thread_s = 0.0


class Tracer:
    """Wrap the layers' entry points, collect spans and counts, restore."""

    def __init__(self) -> None:
        self.accs: Dict[str, Acc] = {}
        #: ``(name, start, end, parent_index, run_id)`` per coarse call.
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counters: Dict[str, float] = {}
        self._child = [0.0]
        #: Re-entrancy flags of guarded hot wrappers, shared per name.
        self._depths: Dict[str, List[int]] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._main_thread = threading.get_ident()
        self._runs: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()
        self._last_run = -1
        self._summary_sizes: List[int] = []
        #: Calibrated wrapper cost per call (see :meth:`_calibrate`).
        self.inner_s = self.outer_s = self.outer_observed_s = 0.0
        self._calibrate()

    # ------------------------------------------------------------ accounting
    def acc(self, name: str) -> Acc:
        """The accumulator of ``name``, created on first use."""
        found = self.accs.get(name)
        if found is None:
            found = self.accs[name] = Acc()
        return found

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the free-form counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _run_id(self, key: Any) -> int:
        """A stable small integer for the run that owns kernel ``key``."""
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = len(self._runs)
        self._last_run = run
        return run

    def _calibrate(self) -> None:
        """Measure what a wrapper adds to a call, inside and outside its clock.

        A no-op is timed bare and wrapped.  What the wrapper's own clock saw
        beyond the bare call is :attr:`inner_s` (argument forwarding, half
        of each clock read); the rest of the added wall is paid in the
        caller's frame: :attr:`outer_s`, or :attr:`outer_observed_s` for a
        wrapper that also runs a counting hook.
        """

        def bare(first: int, second: int) -> None:
            return None

        def timed_loop(fn: Callable[[int, int], None]) -> float:
            started = perf_counter()
            for index in range(_CALIBRATION_CALLS):
                fn(index, index)
            return (perf_counter() - started) / _CALIBRATION_CALLS

        bare_s = timed_loop(bare)
        lean_s = timed_loop(self._hot("calibration", bare))
        seen_s = self.accs.pop("calibration").total / _CALIBRATION_CALLS
        observed_s = timed_loop(
            self._hot("calibration", bare, observe=lambda args, result: self.count("calibration"))
        )
        del self.accs["calibration"], self.counters["calibration"]
        self._child[0] = 0.0
        self.inner_s = max(0.0, seen_s - bare_s)
        self.outer_s = max(0.0, lean_s - seen_s)
        self.outer_observed_s = max(self.outer_s, observed_s - seen_s)

    # -------------------------------------------------------------- wrappers
    def _hot(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[tuple, Any], None]] = None,
        guard: bool = False,
    ) -> Callable[..., Any]:
        """Count-and-accumulate wrapper for a per-message callable.

        ``observe(args, result)`` runs after the timed region to take counts
        at the boundary.  ``guard`` makes nested calls of the same name (a
        subclass delegating to ``super()``) pass through untimed.
        """
        acc = self.acc(name)
        cell = self._child
        outer = acc.outer_each = self.outer_s if observe is None else self.outer_observed_s
        clock = perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            saved = cell[0]
            cell[0] = 0.0
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spent = clock() - started
                acc.calls += 1
                acc.enters += 1
                acc.total += spent
                acc.self_s += spent - cell[0]
                cell[0] = saved + spent + outer
                if observe is not None:
                    observe(args, result)

        if not guard:
            timed.__wrapped__ = fn  # type: ignore[attr-defined]
            return timed
        depth = self._depths.setdefault(name, [0])

        def guarded(*args: Any, **kwargs: Any) -> Any:
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            try:
                return timed(*args, **kwargs)
            finally:
                depth[0] = 0

        guarded.__wrapped__ = fn  # type: ignore[attr-defined]
        return guarded

    def _stepped(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrapper for a generator function: times every resumed step."""
        acc = self.acc(name)
        cell = self._child
        outer = acc.outer_each = self.outer_s
        clock = perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            generator = fn(*args, **kwargs)
            acc.calls += 1
            sent = None
            while True:
                saved = cell[0]
                cell[0] = 0.0
                finished = False
                started = clock()
                try:
                    effect = generator.send(sent)
                except StopIteration as stop:
                    finished = True
                    effect = stop.value
                finally:
                    spent = clock() - started
                    acc.enters += 1
                    acc.total += spent
                    acc.self_s += spent - cell[0]
                    cell[0] = saved + spent + outer
                if finished:
                    return effect
                sent = yield effect

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _span(
        self,
        name: str,
        fn: Callable[..., Any],
        run_key: Optional[Callable[[tuple, Any], Any]] = None,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """One-span-per-call wrapper for a coarse callable.

        ``run_key(args, result)`` names the kernel whose run the span
        belongs to; spans without one inherit their parent's run, else the
        most recent run.
        """
        acc = self.acc(name)
        cell = self._child
        outer = acc.outer_each = self.outer_s if observe is None else self.outer_observed_s
        clock = perf_counter
        spans = self.spans
        stack = self._stack
        main = self._main_thread

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != main:
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc.calls += 1
                    acc.off_thread_s += clock() - started
            saved = cell[0]
            cell[0] = 0.0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = clock()
                spent = ended - started
                stack.pop()
                key = run_key(args, result) if run_key is not None else None
                if key is not None:
                    run = self._run_id(key)
                elif parent >= 0 and spans[parent] is not None:
                    run = spans[parent][4]
                else:
                    run = self._last_run
                spans[index] = (name, started, ended, parent, run)
                acc.calls += 1
                acc.enters += 1
                acc.total += spent
                acc.self_s += spent - cell[0]
                cell[0] = saved + spent + outer
                if observe is not None:
                    observe(args, result)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # --------------------------------------------------------------- patching
    def _patch_attr(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` (looked up raw, so descriptors survive)."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def _patch_function(self, function: Any, make: Callable[[Any], Any]) -> None:
        """Rebind every module global that is ``function``.

        ``from .runner import prepare_consensus`` gives the importing module
        its own binding, so patching the defining module alone would miss
        callers; this walks the loaded ``repro`` modules -- and ``bench``'s
        own, whose workloads call the same entry points -- instead.
        """
        replacement = make(function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "bench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, function))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the public entry points of every layer (see the README table)."""
        import repro.cli  # noqa: F401 - loads every module a binding may live in
        import repro.obs.merge  # noqa: F401
        from repro.adversary.adaptive import AdaptiveAdversary
        from repro.adversary.scenario import Adversary
        from repro.core import pattern
        from repro.core.properties import verify_run
        from repro.harness import coordinator, distributed
        from repro.harness.aggregate import RunAggregate, SummaryReducer
        from repro.harness.parallel import run_many
        from repro.harness.runner import PreparedRun, prepare_consensus
        from repro.network.delays import DelayModel
        from repro.network.transport import Network
        from repro.sharedmem.consensus_object import ConsensusObject
        from repro.sim import multikernel
        from repro.sim.kernel import SimulationKernel

        if self._patches:
            raise RuntimeError("tracer is already installed")

        def own_kernel(args: tuple, result: Any) -> Any:
            return args[0]

        # sim
        self._patch_attr(
            SimulationKernel, "run", lambda fn: self._span("sim.run", fn, own_kernel)
        )
        self._patch_attr(
            SimulationKernel, "run_batch", lambda fn: self._span("sim.run_batch", fn, own_kernel)
        )
        self._patch_attr(
            multikernel.CooperativeScheduler, "run", lambda fn: self._span("sim.coop", fn)
        )
        self._patch_function(
            multikernel.run_cooperative, lambda fn: self._span("sim.coop", fn)
        )

        # network
        self._patch_attr(Network, "transmit", lambda fn: self._hot("network.transmit", fn))

        def saw_refill(args: tuple, result: Any) -> None:
            if result is not None:
                self.count("network.delay_draws", len(result))

        for model in _with_subclasses(DelayModel):
            if "sample_batch" in vars(model):
                self._patch_attr(
                    model,
                    "sample_batch",
                    lambda fn: self._hot("network.refill", fn, observe=saw_refill, guard=True),
                )

        # core
        def saw_scan(args: tuple, result: Any) -> None:
            self.count("core.scan_msgs_visited", len(args[0]))
            if result is not None and (
                result.kind == "decide" or args[1].topology.is_majority(len(result.heard))
            ):
                self.count("core.scan_hits")

        self._patch_function(
            pattern.scan_mailbox, lambda fn: self._hot("core.scan", fn, observe=saw_scan)
        )

        # sharedmem
        for cons in _with_subclasses(ConsensusObject):
            if "propose" in vars(cons) and cons is not ConsensusObject:
                self._patch_attr(
                    cons, "propose", lambda fn: self._stepped("sharedmem.propose", fn)
                )

        # adversary
        for engine in (Adversary, AdaptiveAdversary):
            for attr in ("deliveries", "defer"):
                if attr in vars(engine):
                    self._patch_attr(
                        engine,
                        attr,
                        lambda fn, attr=attr: self._hot(f"adversary.{attr}", fn, guard=True),
                    )

        # runner
        self._patch_function(
            prepare_consensus,
            lambda fn: self._span(
                "runner.prepare", fn, lambda args, result: getattr(result, "kernel", None)
            ),
        )
        self._patch_attr(
            PreparedRun,
            "finalize",
            lambda fn: self._span("runner.finalize", fn, lambda args, result: args[0].kernel),
        )
        self._patch_function(verify_run, lambda fn: self._span("runner.verify", fn))

        # aggregate
        def saw_summary(args: tuple, result: Any) -> None:
            if result is not None and len(self._summary_sizes) < _SUMMARY_SAMPLE:
                self._summary_sizes.append(len(pickle.dumps(result)))

        self._patch_attr(
            SummaryReducer,
            "__call__",
            lambda fn: self._span("aggregate.reduce", fn, observe=saw_summary),
        )
        self._patch_attr(
            RunAggregate, "from_summaries", lambda fn: self._span("aggregate.fold", fn)
        )

        # parallel
        self._patch_function(run_many, lambda fn: self._span("parallel.run_many", fn))

        # coordinator
        def saw_claim(args: tuple, result: Any) -> None:
            if result is not None:
                self.count("coordinator.claim_wins")

        for claim in (coordinator.try_claim, coordinator.try_steal):
            self._patch_function(
                claim, lambda fn: self._span("coordinator.claim", fn, observe=saw_claim)
            )
        self._patch_function(
            coordinator.renew_lease, lambda fn: self._span("coordinator.renew", fn)
        )
        self._patch_attr(
            coordinator.WorkStealingScheduler,
            "complete",
            lambda fn: self._span("coordinator.complete", fn),
        )
        self._patch_function(
            coordinator.execute_point, lambda fn: self._span("coordinator.execute_point", fn)
        )
        self._patch_function(
            coordinator.run_work_stealing,
            lambda fn: self._span("coordinator.run_work_stealing", fn),
        )

        # distributed
        self._patch_function(
            coordinator.merge_stolen, lambda fn: self._span("distributed.merge", fn)
        )
        self._patch_function(
            distributed.fold_point, lambda fn: self._span("distributed.fold_point", fn)
        )
        self._patch_function(
            distributed._load_checkpoint,
            lambda fn: self._span("distributed.checkpoint_load", fn),
        )
        self._patch_attr(
            distributed.SweepPlan,
            "fingerprint",
            lambda fn: self._span("distributed.fingerprint", fn),
        )

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        """Whether any wrapper is currently in place."""
        return bool(self._patches)

    # ---------------------------------------------------------------- results
    def dump(self, path: Path) -> None:
        """Write the collected spans as JSONL (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, run = span
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )

    def _inclusive(self, name: str) -> float:
        """Seconds inside ``name`` on any thread, wrapper cost taken out."""
        acc = self.accs.get(name)
        if acc is None:
            return 0.0
        return max(0.0, acc.total - acc.enters * self.inner_s) + acc.off_thread_s

    def _self(self, name: str) -> float:
        """Seconds in ``name`` but in none of its wrapped callees."""
        acc = self.accs.get(name)
        return max(0.0, acc.self_s - acc.enters * self.inner_s) if acc else 0.0

    def self_times(self) -> Dict[str, float]:
        """Self seconds on the measuring thread, summed per layer."""
        layers: Dict[str, float] = {}
        for name in self.accs:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self._self(name)
        return layers

    def layer_metrics(
        self, totals: Dict[str, int], extra: Dict[str, float], wall_s: float
    ) -> Dict[str, float]:
        """Every per-layer metric of ``BENCHMARK.json`` for one traced repeat.

        ``totals`` are the run statistics summed over the repeat (from
        ``RunMetrics``/``TrafficStats``, not from wrappers); ``extra`` are
        layer metrics the workload measured itself (subprocess walls, the
        incremental-merge drain); ``wall_s`` is the traced wall clock.
        """
        total = self._inclusive
        self_s = self._self

        def calls(name: str) -> int:
            acc = self.accs.get(name)
            return acc.calls if acc else 0

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        counters = self.counters
        events = totals.get("events_processed", 0)
        sim_self = self_s("sim.run") + self_s("sim.run_batch")
        scans = calls("core.scan")
        draws = counters.get("network.delay_draws", 0.0)
        claims = calls("coordinator.claim")
        attributed = sum(self._self(name) for name in self.accs)
        wrapper_s = sum(
            acc.enters * (acc.outer_each + self.inner_s) for acc in self.accs.values()
        )
        metrics = {
            "sim.run_s": total("sim.run_batch"),
            "sim.self_s": sim_self,
            "sim.events": events,
            "sim.self_us_per_event": ratio(sim_self * 1e6, events),
            "sim.run_batch_calls": calls("sim.run_batch"),
            "sim.coop_host_s": self_s("sim.coop"),
            "network.transmit_calls": calls("network.transmit"),
            "network.transmit_s": total("network.transmit"),
            "network.refill_calls": calls("network.refill"),
            "network.refill_s": total("network.refill"),
            "network.delay_draws": draws,
            "network.draw_use_ratio": ratio(totals.get("messages_sent", 0), draws),
            "network.messages_sent": totals.get("messages_sent", 0),
            "network.bytes_sent": totals.get("bytes_sent", 0),
            "core.scan_calls": scans,
            "core.scan_s": total("core.scan"),
            "core.scan_msgs_visited": counters.get("core.scan_msgs_visited", 0.0),
            "core.scan_visited_per_call": ratio(
                counters.get("core.scan_msgs_visited", 0.0), scans
            ),
            "core.scan_hit_ratio": ratio(counters.get("core.scan_hits", 0.0), scans),
            "core.rounds_total": totals.get("rounds_max", 0),
            "sharedmem.propose_calls": calls("sharedmem.propose"),
            "sharedmem.propose_s": total("sharedmem.propose"),
            "sharedmem.ops": totals.get("sm_ops", 0),
            "sharedmem.objects_created": totals.get("consensus_objects_created", 0),
            "adversary.deliveries_calls": calls("adversary.deliveries"),
            "adversary.deliveries_s": total("adversary.deliveries"),
            "adversary.defer_calls": calls("adversary.defer"),
            "adversary.defer_s": total("adversary.defer"),
            "adversary.faults_injected": totals.get("faults_injected", 0),
            "runner.runs": calls("runner.prepare"),
            "runner.prepare_s": total("runner.prepare"),
            "runner.finalize_s": total("runner.finalize"),
            "runner.verify_s": total("runner.verify"),
            "aggregate.reduce_s": total("aggregate.reduce"),
            "aggregate.fold_s": total("aggregate.fold"),
            "aggregate.summary_bytes": ratio(
                sum(self._summary_sizes), len(self._summary_sizes)
            ),
            "parallel.run_many_calls": calls("parallel.run_many"),
            "parallel.run_many_self_s": self_s("parallel.run_many"),
            "coordinator.claim_calls": claims,
            "coordinator.claim_s": total("coordinator.claim"),
            "coordinator.claim_win_ratio": ratio(
                counters.get("coordinator.claim_wins", 0.0), claims
            ),
            "coordinator.renew_calls": calls("coordinator.renew"),
            "coordinator.renew_s": total("coordinator.renew"),
            "coordinator.complete_s": total("coordinator.complete"),
            "coordinator.checkpoint_bytes": 0.0,
            "coordinator.overhead_s": max(
                0.0,
                total("coordinator.run_work_stealing") - total("coordinator.execute_point"),
            ),
            "distributed.fingerprint_s": total("distributed.fingerprint"),
            "distributed.merge_s": total("distributed.merge"),
            "distributed.fold_point_s": total("distributed.fold_point"),
            "distributed.checkpoint_load_s": total("distributed.checkpoint_load"),
            "obs.incremental_drain_s": 0.0,
            "cli.import_s": 0.0,
            "cli.worker_cmd_s": 0.0,
            "cli.merge_cmd_s": 0.0,
            "trace.wrapper_s": wrapper_s,
            "trace.unattributed_s": max(0.0, wall_s - attributed - wrapper_s),
        }
        metrics.update(extra)
        return metrics


def _with_subclasses(base: type) -> List[type]:
    """``base`` and every loaded subclass of it, each once."""
    found = [base]
    for cls in found:
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
    return found
