"""The tracer: sim-time-stamped spans, counters, and instants.

Each record is one flat 7-tuple, with times in simulated seconds
(exporters convert units)::

    (ph, node, cat, name, t, dur_or_value, args)

* complete span — ``("X", node, cat, name, t, dur, args)``
* instant       — ``("i", node, cat, name, t, None, args)``
* counter       — ``("C", node, cat, name, t, value, None)``

``args`` is a dict or ``None``.  Tuples pickle small and compare by
value, so a tracer carried across a process pool or through a snapshot
comes back equal; :func:`repro.obs.export.trace_to_jsonl` is the one
place that renders a record as a keyed dict.

``begin``/``end`` are stack-matched per ``(node, cat, name)`` — a DES
protocol opens a span in one event handler and closes it in another, so
there is no call-stack to lean on — and emit one complete span on
``end``.  Nested spans (same key or different) work the way Chrome's
``B``/``E`` pairs do: innermost ``end`` matches the most recent
``begin``.

Readers go through the records: :mod:`repro.obs.attribution` is the
one module that folds the spans into tables.

Zero-cost-when-untraced contract
--------------------------------
Producers — the simulator, network, nodes and strategies — hold ``None``
when untraced: the attribute defaults to ``None`` and emission sits
behind one identity check.  Nothing in the stack allocates, formats, or
looks anything up on behalf of an untraced run.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Tracer", "TRACK_ORDER"]

#: Category -> Chrome thread-id track assignment (stable display order).
TRACK_ORDER = ("cpu", "task", "phase", "net", "mwa", "sim", "fault", "snapshot")


class Tracer:
    """Collects trace records; attach via :meth:`Machine.attach_tracer`."""

    def __init__(self, max_records: Optional[int] = None) -> None:
        #: record tuples (see the module docstring), in emission order
        self.records: list[tuple] = []
        #: open begin() stacks: (node, cat, name) -> [(start, args), ...]
        self._open: dict[tuple[int, str, str], list] = {}
        #: optional backstop against runaway traces; None = unbounded
        self.max_records = max_records
        #: records discarded after hitting ``max_records``
        self.dropped = 0

    @classmethod
    def from_records(cls, records, dropped: int = 0) -> "Tracer":
        """Rehydrate a tracer from record tuples (e.g. the
        ``metrics.extra["trace_records"]`` a runner request carried back
        across a process pool) so the exporters and reports apply."""
        tr = cls()
        tr.records = list(records)
        tr.dropped = dropped
        return tr

    # ------------------------------------------------------------------
    # emission API
    # ------------------------------------------------------------------
    def complete(
        self,
        node: int,
        cat: str,
        name: str,
        start: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """Emit a finished span (start and duration already known)."""
        if self.max_records is None or len(self.records) < self.max_records:
            self.records.append(("X", node, cat, name, start, dur, args))
        else:
            self.dropped += 1

    def begin(
        self,
        node: int,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Open a span; close it later with a matching :meth:`end`."""
        self._open.setdefault((node, cat, name), []).append((t, args))

    def end(
        self,
        node: int,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Close the most recent matching :meth:`begin` and emit the span.

        An unmatched ``end`` is ignored: protocol code may observe a
        terminal message (e.g. ``done``) for a phase it never entered.
        """
        stack = self._open.get((node, cat, name))
        if not stack:
            return
        start, begin_args = stack.pop()
        if not stack:
            del self._open[(node, cat, name)]
        merged = begin_args
        if args:
            merged = {**(begin_args or {}), **args}
        self.complete(node, cat, name, start, t - start, merged)

    def instant(
        self,
        node: int,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Emit a zero-duration marker."""
        if self.max_records is None or len(self.records) < self.max_records:
            self.records.append(("i", node, cat, name, t, None, args))
        else:
            self.dropped += 1

    def counter(self, node: int, cat: str, name: str, t: float, value: float) -> None:
        """Emit one sample of a time series."""
        if self.max_records is None or len(self.records) < self.max_records:
            self.records.append(("C", node, cat, name, t, value, None))
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    # consumption API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def open_spans(self) -> int:
        """Number of begun-but-not-ended spans (should be 0 after a run)."""
        return sum(len(s) for s in self._open.values())
