"""Lightweight tracing of simulation rounds.

Tracing is optional (off by default) because large simulations execute
millions of node-rounds; when enabled it records, per round, who
transmitted and which receptions/collisions occurred, which the tests use
to check the collision semantics and which examples use for narration.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Optional


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """A single traced occurrence within a round.

    Attributes
    ----------
    round_number:
        The round in which the event happened.
    kind:
        One of ``"transmit"``, ``"receive"``, ``"collision"`` or
        ``"silence"``.
    node:
        The node the event concerns (the transmitter or the listener).
    detail:
        The transmitted/received message for transmit/receive events,
        otherwise ``None``.
    """

    round_number: int
    kind: str
    node: Any
    detail: Any = None


class EventLog:
    """An append-only log of :class:`TraceEvent` records.

    The log can be bounded: once ``max_events`` is reached, further events
    are counted but not stored, so that tracing can stay enabled on long
    runs without exhausting memory.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self._events: list[TraceEvent] = []
        self._dropped = 0
        self._max_events = max_events

    def record(self, event: TraceEvent) -> None:
        """Append ``event`` (or count it as dropped if the log is full)."""
        if self._max_events is not None and len(self._events) >= self._max_events:
            self._dropped += 1
            return
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def dropped(self) -> int:
        """Number of events that were not stored because the log was full."""
        return self._dropped

    def count(self, kind: str) -> int:
        """Return the number of stored events of the given kind."""
        return sum(1 for event in self._events if event.kind == kind)
