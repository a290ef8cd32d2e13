"""A structured, byte-stable JSONL event log.

Rare-but-significant happenings -- reorgs, partitions, heals, crashes,
recoveries, resyncs -- are appended as one dict per line.  Serialization
mirrors :func:`repro.system.artifacts.save_json`'s canonical-JSON
discipline: keys sorted, compact separators, trailing newline, so two runs
emitting equal events produce byte-identical logs (the CI obs smoke step
uploads the file as an artifact on failure and diffs must stay clean).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.utils.clock import SimulatedClock


#: Events an :class:`ObsEventLog` keeps before it drops (and counts) the rest.
MAX_EVENTS = 100_000


class ObsEventLog:
    """Bounded in-memory event buffer with deterministic JSONL export."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock
        self.dropped = 0
        self._events: List[Dict[str, Any]] = []

    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Append one event stamped with a sequence number and sim time."""
        if len(self._events) >= MAX_EVENTS:
            self.dropped += 1
            return None
        event: Dict[str, Any] = {
            "kind": kind,
            "seq": len(self._events),
            "sim_time": round(self.clock.now, 6) if self.clock is not None else 0.0,
        }
        event.update(fields)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Events in emission order, optionally filtered by ``kind``."""
        selected = [e for e in self._events if kind is None or e["kind"] == kind]
        if limit is not None:
            selected = selected[-int(limit):]
        return [dict(e) for e in selected]

    def counts_by_kind(self) -> Dict[str, int]:
        """Deterministic ``{kind: count}`` summary."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def to_jsonl(self) -> str:
        """The whole log as canonical JSONL (sorted keys, one event per line)."""
        lines = [
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in self._events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: Union[str, Path]) -> Path:
        """Write the JSONL log to ``path`` (parents created)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_jsonl())
        return target
