"""Execution-trace recording.

Traces are optional (they cost memory in long sweeps) and are mainly used
for debugging algorithms and for the example scripts, which print excerpts
so that a reader can follow a consensus execution step by step.

Entries are structured (:class:`~repro.sim.events.TraceEntry`): each one
carries the virtual time, a per-trace sequence number, a ``kind``, the
originating process id, a human-readable ``detail`` string, and -- for
entries whose detail used to be the only record of machine-relevant fields
-- a JSON-serializable ``data`` mapping.  :meth:`Trace.to_jsonl` serializes
a whole trace as JSON Lines, one entry per line with stable keys, so a
run's execution can be dumped to disk, diffed against another run's, and
post-processed with any JSONL tooling; the ``trace_sink`` option of
:class:`~repro.sim.kernel.SimulationKernel` dumps automatically when a run
ends.  Recording stays strictly opt-in: a disabled trace records nothing,
and the kernel's hot loop hoists the enabled flag so the dormant cost is
one branch per traced site (bench-gated in ``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .events import TraceEntry


class Trace:
    """A bounded, append-only record of simulation activity."""

    def __init__(self, enabled: bool = False, max_entries: int = 100_000) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self.entries: List[TraceEntry] = []
        self._sequence = 0
        self.dropped = 0

    def record(
        self,
        time: float,
        kind: str,
        pid: Optional[int],
        detail: str,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append an entry if tracing is enabled and the bound is not hit.

        ``data`` carries the entry's machine-readable fields (the send's
        destination, a span marker's round number...); it must hold
        JSON-serializable scalars only, so the trace always dumps cleanly.
        """
        if not self.enabled:
            return
        self._sequence += 1
        if len(self.entries) >= self.max_entries:
            self.dropped += 1
            return
        self.entries.append(
            TraceEntry(
                time=time, sequence=self._sequence, kind=kind, pid=pid, detail=detail, data=data
            )
        )

    def annotate(self, pid: Optional[int], message: str, time: float = 0.0) -> None:
        """Record a free-form annotation originating from algorithm code.

        ``time`` should be the current virtual time; algorithm code goes
        through :meth:`~repro.sim.context.ProcessContext.log`, which threads
        ``kernel.now`` here so annotations land at the simulation time they
        were made (they used to carry a ``-1.0`` sentinel).
        """
        self.record(time=time, kind="note", pid=pid, detail=message)

    def for_process(self, pid: int) -> List[TraceEntry]:
        """All entries attributed to process ``pid``."""
        return [entry for entry in self.entries if entry.pid == pid]

    def of_kind(self, kind: str) -> List[TraceEntry]:
        """All entries of a given kind (``step``, ``send``, ``deliver``...)."""
        return [entry for entry in self.entries if entry.kind == kind]

    def format(self, entries: Optional[Iterable[TraceEntry]] = None) -> str:
        """Render entries as aligned text lines."""
        chosen = self.entries if entries is None else list(entries)
        return "\n".join(entry.format() for entry in chosen)

    # -------------------------------------------------------- serialization
    def to_jsonl(self, entries: Optional[Iterable[TraceEntry]] = None) -> str:
        """Serialize entries as JSON Lines (one compact object per line).

        Keys per line follow :meth:`~repro.sim.events.TraceEntry.to_json`
        and are emitted in that fixed order, so two dumps of equivalent
        executions diff line by line.  The terminating newline is included
        whenever at least one entry is rendered.
        """
        chosen = self.entries if entries is None else entries
        lines = [
            json.dumps(entry.to_json(), separators=(",", ":"), sort_keys=False)
            for entry in chosen
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the whole trace to ``path`` as JSONL (atomically) and return it.

        A final ``meta`` line records the entry count and how many entries
        the bound dropped, so a consumer can tell a complete dump from a
        truncated recording.
        """
        target = Path(path)
        payload = self.to_jsonl() + json.dumps(
            {"meta": {"entries": len(self.entries), "dropped": self.dropped}},
            separators=(",", ":"),
        ) + "\n"
        # Imported at call time: importing the simulator must not load the sweep layer.
        from ..harness.distributed import _atomic_write_bytes

        _atomic_write_bytes(target, payload.encode("utf-8"))
        return target

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "on" if self.enabled else "off"
        return f"Trace({status}, entries={len(self.entries)}, dropped={self.dropped})"
