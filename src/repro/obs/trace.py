"""Span-based tracing with versioned JSONL export.

A *span* is a named, timed region of work with two kinds of payload:

* ``attrs`` -- **structural** attributes: what the span *is* (the
  restriction name, the shard prefix, the case being verified).  Two
  traces of the same workload must agree on names, attrs, and tree
  shape regardless of ``--jobs``, wall time, or cache temperature; the
  test suite compares :func:`structure_dump` output byte-for-byte.
* ``meta`` -- non-structural annotations: timings, worker identity,
  whether a result came from cache.  Useful for profiling, explicitly
  excluded from structure comparison.

The default tracer is :data:`NULL_TRACER`, a no-op whose ``span`` hands
back one shared reusable context manager -- tracing disabled costs a
truthiness check and a method call, no allocation.  Every wiring point
in the stack takes ``tracer=None`` and substitutes the null tracer, so
the instrumented code path is identical either way.

Worker transport: each fork-pool worker records into its own
:class:`Tracer` and ships :meth:`Tracer.to_records` (plain dicts) back
with its ``TaskResult``; the parent re-attaches them under its own tree
with :meth:`Tracer.graft`, in shard order, which keeps the merged trace
deterministic.  Times are ``perf_counter`` values -- CLOCK_MONOTONIC on
Linux, shared across forked children, so worker timestamps are directly
comparable to the parent's -- and are normalised to the trace origin
only at :func:`write_trace` time.

File format (JSONL, schema version :data:`TRACE_SCHEMA_VERSION`): the
first line is a ``{"type": "meta"}`` record carrying the schema
version; the rest are ``span`` (pre-order, parent before child),
``metric`` (see :mod:`repro.obs.metrics`) and ``explanation`` (see
:mod:`repro.obs.explain`) records.  :func:`validate_record` rejects
anything else -- the schema is versioned precisely so that readers can
refuse traces they do not understand instead of misreading them.
"""

from __future__ import annotations

import json
import time
from typing import (Any, Dict, IO, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..core.errors import VerificationError

#: Bump when the record shapes below change incompatibly.
TRACE_SCHEMA_VERSION = 1

_RECORD_TYPES = ("meta", "span", "metric", "explanation")


class TraceSchemaError(VerificationError):
    """A trace record does not conform to the schema."""


class Span:
    """One timed, named tree node.  See module docstring for the
    attrs/meta split."""

    __slots__ = ("name", "attrs", "meta", "children", "t_start", "t_end")

    def __init__(self, name: str,
                 attrs: Optional[Mapping[str, Any]] = None,
                 meta: Optional[Mapping[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.children: List[Span] = []
        self.t_start: float = 0.0
        self.t_end: float = 0.0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def structure(self) -> Tuple:
        """The jobs-invariant shape: (name, sorted attrs, children)."""
        return (self.name,
                tuple(sorted((k, str(v)) for k, v in self.attrs.items())),
                tuple(c.structure() for c in self.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, attrs={self.attrs}, "
                f"children={len(self.children)})")


class _NullSpanContext:
    """Reusable no-op context manager; also swallows attr writes."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None

    def set_meta(self, **meta: Any) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """The zero-overhead default: records nothing, allocates nothing."""

    enabled = False

    def span(self, name: str,
             attrs: Optional[Mapping[str, Any]] = None,
             meta: Optional[Mapping[str, Any]] = None) -> _NullSpanContext:
        return _NULL_SPAN

    def graft(self, records: Iterable[Mapping[str, Any]],
              parent: Optional[Any] = None) -> None:
        return None

    def to_records(self) -> List[Dict[str, Any]]:
        return []

    def add_explanation(self, record: Mapping[str, Any]) -> None:
        return None


#: Shared no-op instance; ``tracer or NULL_TRACER`` is the idiom.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager for one live span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> "_SpanContext":
        self._tracer._push(self.span)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer._pop(self.span)
        return None

    def set(self, **attrs: Any) -> None:
        self.span.attrs.update(attrs)

    def set_meta(self, **meta: Any) -> None:
        self.span.meta.update(meta)


class Tracer:
    """Records a forest of nested spans (usually a single root)."""

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: failure explanations collected along the way (see
        #: :mod:`repro.obs.explain`); written after metrics by write_trace
        self.explanations: List[Dict[str, Any]] = []

    def add_explanation(self, record: Mapping[str, Any]) -> None:
        self.explanations.append(dict(record))

    def explain(self, restriction: Any, found: Any) -> None:
        """Add the explanation of a failing descent
        (:func:`repro.core.witness.descend`) of ``restriction``."""
        from .explain import ExplanationTrace  # lazy: explain imports core

        self.add_explanation(
            ExplanationTrace.of(restriction, found).to_record())

    def span(self, name: str,
             attrs: Optional[Mapping[str, Any]] = None,
             meta: Optional[Mapping[str, Any]] = None) -> _SpanContext:
        """Context manager opening a child of the current span."""
        return _SpanContext(self, Span(name, attrs, meta))

    def _push(self, span: Span) -> None:
        span.t_start = time.perf_counter()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.t_end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- worker transport --------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        """Spans as pre-order dicts with synthetic ids (picklable)."""
        out: List[Dict[str, Any]] = []
        counter = [0]

        def emit(span: Span, parent: Optional[int]) -> None:
            sid = counter[0]
            counter[0] += 1
            out.append({"type": "span", "sid": sid, "parent": parent,
                        "name": span.name, "attrs": dict(span.attrs),
                        "meta": dict(span.meta),
                        "t_start": span.t_start, "t_end": span.t_end})
            for child in span.children:
                emit(child, sid)

        for root in self.roots:
            emit(root, None)
        return out

    def graft(self, records: Iterable[Mapping[str, Any]],
              parent: Optional[Union[Span, _SpanContext]] = None) -> None:
        """Re-attach serialised spans (from :meth:`to_records`) under
        ``parent`` (default: the current span).  Order is preserved, so
        grafting worker segments in shard order keeps the merged tree
        deterministic."""
        if isinstance(parent, _SpanContext):
            parent = parent.span
        if parent is None:
            parent = self.current
        by_sid: Dict[int, Span] = {}
        for rec in records:
            if rec.get("type") != "span":
                continue
            span = Span(rec["name"], rec.get("attrs"), rec.get("meta"))
            span.t_start = float(rec.get("t_start", 0.0))
            span.t_end = float(rec.get("t_end", 0.0))
            by_sid[int(rec["sid"])] = span
            parent_sid = rec.get("parent")
            if parent_sid is not None and int(parent_sid) in by_sid:
                by_sid[int(parent_sid)].children.append(span)
            elif parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)


# -- structure comparison ----------------------------------------------------


def structure_dump(spans: Sequence[Span]) -> str:
    """Canonical JSON of the span forest's structure (no timings, no
    meta); byte-equal across ``--jobs`` for a deterministic workload."""
    return json.dumps([s.structure() for s in spans],
                      sort_keys=True, separators=(",", ":"))


# -- JSONL export / import ---------------------------------------------------


def validate_record(rec: Mapping[str, Any]) -> None:
    """Raise :class:`TraceSchemaError` unless ``rec`` is schema-valid."""
    if not isinstance(rec, Mapping):
        raise TraceSchemaError(f"record is not an object: {rec!r}")
    rtype = rec.get("type")
    if rtype not in _RECORD_TYPES:
        raise TraceSchemaError(f"unknown record type {rtype!r}")
    if rtype == "meta":
        if rec.get("schema") != TRACE_SCHEMA_VERSION:
            raise TraceSchemaError(
                f"unsupported schema version {rec.get('schema')!r} "
                f"(reader supports {TRACE_SCHEMA_VERSION})")
    elif rtype == "span":
        for field in ("sid", "name", "attrs", "meta", "t_start", "t_end"):
            if field not in rec:
                raise TraceSchemaError(f"span record missing {field!r}")
        if "parent" not in rec:
            raise TraceSchemaError("span record missing 'parent'")
        if not isinstance(rec["name"], str):
            raise TraceSchemaError("span name must be a string")
        if not isinstance(rec["attrs"], Mapping) \
                or not isinstance(rec["meta"], Mapping):
            raise TraceSchemaError("span attrs/meta must be objects")
    elif rtype == "metric":
        kind = rec.get("kind")
        if kind in ("counter", "gauge"):
            required: Tuple[str, ...] = ("name", "labels", "value")
        elif kind == "histogram":
            required = ("name", "labels", "count", "sum", "min", "max")
        else:
            raise TraceSchemaError(f"unknown metric kind {kind!r}")
        for field in required:
            if field not in rec:
                raise TraceSchemaError(f"metric record missing {field!r}")
    elif rtype == "explanation":
        for field in ("restriction", "text", "steps"):
            if field not in rec:
                raise TraceSchemaError(
                    f"explanation record missing {field!r}")


def meta_record() -> Dict[str, Any]:
    """The schema-v1 meta header every trace stream starts with."""
    return {"type": "meta", "schema": TRACE_SCHEMA_VERSION, "tool": "repro",
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def trace_records(
    tracer: Tracer,
    metrics: Optional[Any] = None,
    explanations: Sequence[Mapping[str, Any]] = (),
) -> List[Dict[str, Any]]:
    """The full schema-v1 record list for one trace, meta header first.

    Span times are normalised so the earliest root starts at 0.0 --
    absolute ``perf_counter`` values are meaningless across reboots,
    deltas are what profiling needs.  :func:`write_trace` dumps exactly
    this list; the serve daemon streams it over HTTP instead.
    """
    spans = tracer.to_records()
    t0 = min((r["t_start"] for r in spans), default=0.0)
    records: List[Dict[str, Any]] = [meta_record()]
    for rec in spans:
        rec = dict(rec)
        rec["t_start"] = round(rec["t_start"] - t0, 9)
        rec["t_end"] = round(rec["t_end"] - t0, 9)
        records.append(rec)
    if metrics is not None:
        records.extend(metrics.records())
    if not explanations:
        explanations = getattr(tracer, "explanations", ())
    records.extend(dict(e) for e in explanations)
    return records


def write_trace(
    path_or_file: Union[str, IO[str]],
    tracer: Tracer,
    metrics: Optional[Any] = None,
    explanations: Sequence[Mapping[str, Any]] = (),
) -> int:
    """Write a schema-versioned JSONL trace; returns the record count."""
    records = trace_records(tracer, metrics, explanations)

    def dump(fh: IO[str]) -> None:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            dump(fh)
    else:
        dump(path_or_file)
    return len(records)


class TraceData:
    """A parsed trace: span forest + raw metric/explanation records.

    ``error`` is only populated by tolerant reads
    (``read_trace(..., strict=False)``): a structured description of
    the first malformed line, after which reading stopped -- the rest
    of the object is the valid prefix.  Strict reads either raise or
    leave it ``None``.
    """

    def __init__(self) -> None:
        self.meta: Dict[str, Any] = {}
        self.spans: List[Span] = []
        self.metric_records: List[Dict[str, Any]] = []
        self.explanations: List[Dict[str, Any]] = []
        self.error: Optional[str] = None
        #: records successfully parsed (the valid-prefix length)
        self.records_read: int = 0

    @property
    def truncated(self) -> bool:
        """True when a tolerant read stopped at a malformed line."""
        return self.error is not None


def read_trace(path_or_file: Union[str, IO[str]],
               strict: bool = True) -> TraceData:
    """Parse and validate a JSONL trace written by :func:`write_trace`.

    Every line is validated; the span tree is rebuilt from sid/parent
    links.  ``strict=True`` (the default) raises
    :class:`TraceSchemaError` on any malformed line -- a
    half-understood trace is worse than none when the question is
    whether a writer is schema-correct.

    ``strict=False`` is for streams a daemon may have died mid-write
    on: the first malformed line *after a valid meta header* stops
    reading and is reported on ``TraceData.error``, and the valid
    prefix is returned intact.  A stream whose header itself is missing
    or malformed still raises -- there is no prefix worth salvaging,
    and the writer-side contract (header first, before any payload
    record) makes a bad header corruption of a different kind.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = path_or_file.readlines()

    data = TraceData()
    by_sid: Dict[int, Span] = {}

    def bad(message: str) -> TraceData:
        if not data.meta or strict:
            raise TraceSchemaError(message)
        data.error = message
        return data

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return bad(f"line {lineno}: invalid JSON: {exc}")
        try:
            validate_record(rec)
        except TraceSchemaError as exc:
            return bad(f"line {lineno}: {exc}")
        if lineno == 1 and rec["type"] != "meta":
            return bad("first record must be the meta header")
        if rec["type"] == "meta":
            data.meta = dict(rec)
        elif rec["type"] == "span":
            span = Span(rec["name"], rec["attrs"], rec["meta"])
            span.t_start = float(rec["t_start"])
            span.t_end = float(rec["t_end"])
            parent = rec["parent"]
            if parent is None:
                data.spans.append(span)
            elif int(parent) in by_sid:
                by_sid[int(parent)].children.append(span)
            else:
                return bad(
                    f"line {lineno}: span {rec['sid']} references unknown "
                    f"parent {parent}")
            by_sid[int(rec["sid"])] = span
        elif rec["type"] == "metric":
            data.metric_records.append(rec)
        else:
            data.explanations.append(rec)
        data.records_read += 1
    if not data.meta:
        raise TraceSchemaError("trace has no meta header")
    return data


def iter_spans(spans: Sequence[Span]) -> Iterable[Span]:
    """Pre-order walk over a span forest."""
    stack = list(reversed(spans))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))
