"""Request/response shapes for the serve API.

The wire format is deliberately thin: a *job spec* is the JSON mirror
of the ``repro verify`` flag set (case + mutant + jobs + por + dfa
+ history_cap + bounds), or an ``inline`` fuzz-program payload for
workloads that are not in the catalog.  Parsing is strict -- unknown
keys and out-of-domain values are :class:`ProtocolError`\\ s, not
silent defaults -- because a daemon that guesses what a client meant
produces reports nobody asked for.

Everything here is pure data transformation (no I/O, no asyncio), so
the same validation runs in the daemon, the client (pre-flight), and
the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.checker import DEFAULT_HISTORY_CAP
from ..engine import CaseRef
from ..sim.scheduler import DEFAULT_MAX_RUNS, DEFAULT_MAX_STEPS


class ProtocolError(ValueError):
    """A malformed or out-of-domain API request."""


#: Keys accepted in a job-spec JSON object.
_SPEC_KEYS = frozenset({
    "case", "mutant", "inline", "jobs", "por", "dfa", "history_cap",
    "max_steps", "max_runs",
})


@dataclass(frozen=True)
class JobSpec:
    """One validated verification request.

    Mirrors the ``repro verify`` CLI surface: ``por=False`` is
    ``--no-por``, ``dfa=False`` is ``--no-dfa`` (no exploration-time
    automaton monitor), ``jobs`` caps the worker fan-out *for this job*
    (the resident pool is shared, so this bounds shard parallelism, not
    processes).  Checks always take the checker's ``auto`` route
    chain, so there is no key selecting a checking route.  ``inline``
    carries a fuzz-program payload
    ``{"procs": [...], "deps": [[...], ...], "bug": str|null}`` for
    catalog-free verification.
    """

    case: Optional[str] = None
    mutant: bool = False
    inline: Optional[Tuple] = None
    jobs: int = 1
    por: bool = True
    dfa: bool = True
    history_cap: int = DEFAULT_HISTORY_CAP
    max_steps: int = DEFAULT_MAX_STEPS
    max_runs: int = DEFAULT_MAX_RUNS

    def case_ref(self) -> CaseRef:
        """The resident-pool rebuild recipe for this spec.

        ``trace=True`` unconditionally: the daemon traces every job so
        the events endpoint can stream it, and a single trace setting
        means one hot worker state per workload instead of two.
        """
        return CaseRef(
            case=self.case, mutant=self.mutant, inline=self.inline,
            max_steps=self.max_steps, max_runs=self.max_runs,
            history_cap=self.history_cap, por=self.por, dfa=self.dfa,
            trace=True,
        )

    def describe(self) -> str:
        """Short human label for logs and job listings."""
        name = self.case if self.case else "inline"
        flags = []
        if self.mutant:
            flags.append("mutant")
        if not self.por:
            flags.append("no-por")
        if not self.dfa:
            flags.append("no-dfa")
        if self.jobs != 1:
            flags.append(f"jobs={self.jobs}")
        return name + (f" [{','.join(flags)}]" if flags else "")

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "mutant": self.mutant, "jobs": self.jobs, "por": self.por,
            "dfa": self.dfa,
        }
        if self.case is not None:
            out["case"] = self.case
        if self.inline is not None:
            procs, deps, bug = self.inline
            out["inline"] = {"procs": list(procs),
                             "deps": [list(d) for d in deps], "bug": bug}
        if self.history_cap != DEFAULT_HISTORY_CAP:
            out["history_cap"] = self.history_cap
        if self.max_steps != DEFAULT_MAX_STEPS:
            out["max_steps"] = self.max_steps
        if self.max_runs != DEFAULT_MAX_RUNS:
            out["max_runs"] = self.max_runs
        return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _parse_inline(obj: Any) -> Tuple:
    """Validate an inline fuzz-program payload into CaseRef primitives."""
    _require(isinstance(obj, Mapping), "'inline' must be an object")
    extra = set(obj) - {"procs", "deps", "bug"}
    _require(not extra, f"unknown inline key(s): {sorted(extra)}")
    procs = obj.get("procs")
    _require(isinstance(procs, list) and procs
             and all(isinstance(p, int) and p > 0 for p in procs),
             "'inline.procs' must be a non-empty list of positive ints")
    deps = obj.get("deps", [])
    _require(isinstance(deps, list), "'inline.deps' must be a list")
    for d in deps:
        _require(isinstance(d, list) and len(d) == 4
                 and all(isinstance(x, int) for x in d),
                 "'inline.deps' entries must be 4-int lists")
    bug = obj.get("bug")
    _require(bug is None or isinstance(bug, str),
             "'inline.bug' must be a string or null")
    return (tuple(procs), tuple(tuple(d) for d in deps), bug)


def parse_job_spec(payload: Any,
                   known_cases: Optional[Mapping[str, Any]] = None,
                   ) -> JobSpec:
    """Validate one job-spec JSON object into a :class:`JobSpec`.

    ``known_cases`` (the catalog mapping) makes unknown case names a
    parse-time error rather than a worker-side one.
    """
    _require(isinstance(payload, Mapping), "job spec must be a JSON object")
    extra = set(payload) - _SPEC_KEYS
    _require(not extra, f"unknown job key(s): {sorted(extra)}")

    case = payload.get("case")
    inline = payload.get("inline")
    _require((case is None) != (inline is None),
             "exactly one of 'case' or 'inline' is required")
    if case is not None:
        _require(isinstance(case, str), "'case' must be a string")
        if known_cases is not None:
            _require(case in known_cases,
                     f"unknown case {case!r}; GET /cases lists them")

    def _bool(key: str, default: bool) -> bool:
        value = payload.get(key, default)
        _require(isinstance(value, bool), f"'{key}' must be a boolean")
        return value

    def _int(key: str, default: int, minimum: int) -> int:
        value = payload.get(key, default)
        _require(isinstance(value, int) and not isinstance(value, bool)
                 and value >= minimum,
                 f"'{key}' must be an integer >= {minimum}")
        return value

    return JobSpec(
        case=case,
        mutant=_bool("mutant", False),
        inline=_parse_inline(inline) if inline is not None else None,
        jobs=_int("jobs", 1, 1),
        por=_bool("por", True),
        dfa=_bool("dfa", True),
        history_cap=_int("history_cap", DEFAULT_HISTORY_CAP, 1),
        max_steps=_int("max_steps", DEFAULT_MAX_STEPS, 1),
        max_runs=_int("max_runs", DEFAULT_MAX_RUNS, 1),
    )


def parse_submission(payload: Any,
                     known_cases: Optional[Mapping[str, Any]] = None,
                     limit: int = 256) -> List[JobSpec]:
    """A ``POST /jobs`` body: one spec object, or a list of them."""
    if isinstance(payload, list):
        _require(bool(payload), "job list must not be empty")
        _require(len(payload) <= limit,
                 f"job list exceeds the batch limit of {limit}")
        return [parse_job_spec(p, known_cases) for p in payload]
    return [parse_job_spec(payload, known_cases)]


def signature_json(signature: Tuple) -> List[Any]:
    """A report signature as canonical JSON (tuples become lists).

    Byte-identity comparisons between daemon and one-shot CLI runs are
    made over exactly this rendering -- JSON has one encoding for it,
    while Python tuples vs. lists would make equal content look
    different.
    """
    return json.loads(json.dumps(signature))


def catalog_entries() -> List[Dict[str, Any]]:
    """The ``GET /cases`` body; shared with ``repro list --json``."""
    from ..cli import case_catalog

    return [
        {"name": entry.name, "language": entry.language,
         "mutant": entry.has_mutant}
        for entry in case_catalog().values()
    ]
