"""GEM threads: named chains of enabled events (Section 8.3).

"A thread is an identifier associated with a chain of enabled events of
a particular specified form.  Each thread may be thought of as defining
a sequential process."  The paper introduces threads to label all events
that occur on behalf of one transaction (one Readers/Writers request,
say), so restrictions can talk about *that* request's StartRead as
opposed to anybody else's.

A :class:`ThreadType` is written in the paper's path-expression-like
notation: alternative paths, each a ``::``-separated sequence of stages,
each stage naming an event class at an element (with ``*`` wildcards for
indexed elements such as ``db.data[*]``).  For the Readers/Writers
transaction thread::

    pi_rw = ThreadType("pi_RW", [
        Path.parse("u.Read :: db.control.ReqRead :: db.control.StartRead"
                   " :: db.data[*].Getval :: db.control.EndRead :: u.FinishRead"),
        Path.parse("u.Write :: db.control.ReqWrite :: db.control.StartWrite"
                   " :: db.data[*].Assign :: db.control.EndWrite :: u.FinishWrite"),
    ])

:meth:`ThreadType.label` applies the paper's two rules to a computation:

1. a fresh thread identifier is created for every event matching the
   first stage of some path;
2. the identifier is passed along enable edges, "as long as events
   enable one another in the order prescribed", until the path's last
   stage (or the chain stops matching).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .computation import Computation
from .errors import SpecificationError
from .event import Event
from .ids import EventId, ThreadId, ThreadTypeName


def _element_pattern_regex(pattern: str) -> "re.Pattern[str]":
    """Compile an element pattern: ``*`` matches within one name segment.

    Unlike fnmatch, ``[`` and ``]`` are literal -- GEM element names use
    them for indexing (``data[3]``), so ``db.data[*]`` must match
    ``db.data[3]``.
    """
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(r"[^.]*")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z")


@dataclass(frozen=True)
class ClassPattern:
    """Matches events by element pattern and event class.

    ``element_pattern`` supports ``*`` wildcards within a name segment,
    so ``db.data[*]`` matches ``db.data[3]`` (brackets are literal).
    """

    element_pattern: str
    event_class: str

    def matches(self, event: Event) -> bool:
        if event.event_class != self.event_class:
            return False
        if "*" not in self.element_pattern:
            return event.element == self.element_pattern
        return _element_pattern_regex(self.element_pattern).match(
            event.element) is not None

    @staticmethod
    def parse(text: str) -> "ClassPattern":
        element, sep, cls = text.strip().rpartition(".")
        if not sep or not element or not cls:
            raise SpecificationError(
                f"cannot parse thread stage {text!r}; expected 'element.Class'"
            )
        return ClassPattern(element, cls)

    def __str__(self) -> str:
        return f"{self.element_pattern}.{self.event_class}"


@dataclass(frozen=True)
class Path:
    """One alternative of a thread type: an ordered tuple of stages."""

    stages: Tuple[ClassPattern, ...]

    def __post_init__(self) -> None:
        if len(self.stages) < 1:
            raise SpecificationError("a thread path needs at least one stage")

    @staticmethod
    def parse(text: str) -> "Path":
        """Parse ``a.B :: c.D :: e.F`` notation."""
        parts = [p for p in text.split("::")]
        return Path(tuple(ClassPattern.parse(p) for p in parts))

    def __str__(self) -> str:
        return " :: ".join(str(s) for s in self.stages)


class ThreadType:
    """A named thread type: a set of alternative paths."""

    def __init__(self, name: ThreadTypeName, paths: Sequence[Path]):
        if not paths:
            raise SpecificationError(f"thread type {name!r} needs at least one path")
        self.name = name
        self.paths = tuple(paths)

    def __repr__(self) -> str:
        alts = " | ".join(f"({p})" for p in self.paths)
        return f"ThreadType {self.name} = {alts}"

    def label(self, computation: Computation, start_serial: int = 1) -> Computation:
        """Return a copy of ``computation`` with this type's thread labels added.

        Serial numbers are assigned in the temporal-topological order of
        the initiating (first-stage) events, so runs are deterministic.
        Existing thread labels (of this or other types) are preserved.
        """
        labels: Dict[EventId, Set[ThreadId]] = {}
        serial = start_serial
        events = computation.events

        for i in computation.temporal_relation.topological_indices():
            ev = events[i]
            matching_paths = [p for p in self.paths if p.stages[0].matches(ev)]
            if not matching_paths:
                continue
            tid = ThreadId(self.name, serial)
            serial += 1
            self._propagate(computation, ev, matching_paths, tid, labels)

        frozen = {eid: frozenset(tids) for eid, tids in labels.items()}
        return computation.relabel_threads(frozen)

    def _propagate(
        self,
        computation: Computation,
        start: Event,
        paths: Sequence[Path],
        tid: ThreadId,
        labels: Dict[EventId, Set[ThreadId]],
    ) -> None:
        """Pass ``tid`` along enable chains matching any of ``paths``."""
        labels.setdefault(start.eid, set()).add(tid)
        # frontier: (event, path, stage-index just matched)
        frontier: List[Tuple[Event, Path, int]] = [(start, p, 0) for p in paths]
        while frontier:
            ev, path, k = frontier.pop()
            if k + 1 >= len(path.stages):
                continue
            next_stage = path.stages[k + 1]
            for nxt in computation.enables_of(ev.eid):
                if next_stage.matches(nxt):
                    already = tid in labels.get(nxt.eid, set())
                    labels.setdefault(nxt.eid, set()).add(tid)
                    if not already:
                        frontier.append((nxt, path, k + 1))

    def instances(self, computation: Computation) -> Tuple[ThreadId, ...]:
        """Thread ids of this type appearing in ``computation`` (sorted)."""
        return tuple(
            t for t in computation.thread_ids() if t.thread_type == self.name
        )


def label_all(
    computation: Computation, thread_types: Iterable[ThreadType]
) -> Computation:
    """Apply several thread types' labelling in sequence."""
    out = computation
    for tt in thread_types:
        out = tt.label(out)
    return out
