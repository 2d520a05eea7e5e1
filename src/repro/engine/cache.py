"""Persistent verification-result cache.

Re-verifying an unchanged program against unchanged restrictions should
be incremental: exploration still enumerates the runs (cheap, and the
run/deadlock/truncation census must stay honest), but no restriction is
re-checked for a computation whose verdict is already known.

Keying
------
An entry is keyed by the pair

    (computation stable fingerprint, specification key)

where the *specification key* digests every declarative input that a
verdict depends on: the problem specification's restrictions (name +
formula text), elements and groups, the correspondence rules, the
program specification (if any) and an overridden history cap.  The
checking route never participates: the engine always checks through
the ``auto`` route chain, whose verdicts are byte-identical to every
single-route reference mode, and the exploration monitor
(``--dfa``/``--no-dfa``) only skips checks, so entries are shared
across those settings by design.  Each
specification key gets its own JSON file in the cache directory, so
unrelated workloads never collide and invalidation is per-workload.

Invalidation
------------
Versioned: every file records :data:`CACHE_FORMAT_VERSION` and its own
specification key; a mismatch on either (format change, or a hash
collision in the filename) discards the file wholesale.  Changing any
restriction formula or correspondence rule changes the specification
key and therefore simply misses the old file.

Honesty caveat: callables embedded in specifications (correspondence
``where``/``params`` functions, ``PyPred`` leaves) contribute only
their *names* to the key -- Python closures have no stable content
digest.  Changing such a function's behaviour without renaming it
requires clearing the cache (or bumping the version); docs/ENGINE.md
states this contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from ..core.errors import VerificationError
from ..core.specification import Specification
from ..obs.metrics import MetricsRegistry
from ..verify.correspondence import Correspondence

#: Bump to invalidate every existing cache file (semantic change in
#: what an outcome record means or how keys are derived).
#: v2: outcomes carry slice provenance counters.
#: v3: keys drop the temporal mode (the engine has one checking route);
#: outcomes have since dropped the provenance counters (v3 files that
#: carry them still load).
CACHE_FORMAT_VERSION = 3


@dataclass(frozen=True)
class CheckOutcome:
    """The cached verdict for one distinct computation.

    Pure function of (computation, specifications): which problem
    restrictions failed, whether the projection was legal, and whether
    the raw computation satisfied the program specification.  Run-level
    facts (deadlock, truncation) are properties of the *run*, not the
    computation, and are deliberately not cached.  Which route decided
    each restriction is counted by the run that computed the outcome
    (``checker.*`` in :class:`repro.engine.EngineStats`) and is not
    cached either: files that carry the retired ``slice_hits`` /
    ``slice_fb`` / ``dfa_hits`` / ``dfa_inert`` keys still load, with
    those keys ignored.
    """

    failed_restrictions: Tuple[str, ...] = ()
    legality_ok: bool = True
    program_spec_ok: bool = True

    def to_json(self) -> dict:
        return {
            "failed": list(self.failed_restrictions),
            "legal": self.legality_ok,
            "prog_ok": self.program_spec_ok,
        }

    @staticmethod
    def from_json(data: dict) -> "CheckOutcome":
        return CheckOutcome(
            failed_restrictions=tuple(data["failed"]),
            legality_ok=bool(data["legal"]),
            program_spec_ok=bool(data["prog_ok"]),
        )


def _spec_parts(spec: Specification) -> list:
    parts = [f"spec:{spec.name}"]
    parts.extend(sorted(f"element:{name}" for name in spec.element_names()))
    parts.extend(sorted(
        f"group:{g.name}:{','.join(sorted(map(str, g.members)))}"
        for g in spec.groups
    ))
    parts.extend(sorted(
        f"restriction:{r.name}={r.formula.describe()}"
        for r in spec.all_restrictions()
    ))
    parts.extend(sorted(f"thread:{t.name}" for t in spec.thread_types))
    return parts


def _target_name(target) -> str:
    if callable(target):
        return f"<fn:{getattr(target, '__name__', 'anon')}>"
    return str(target)


def spec_cache_key(
    problem_spec: Specification,
    correspondence: Correspondence,
    program_spec: Optional[Specification] = None,
    history_cap: Optional[int] = None,
) -> str:
    """Digest of every declarative input a cached verdict depends on.

    ``history_cap`` participates only when explicitly overridden: a
    tighter cap can turn a computable verdict into a cap error, so
    capped and uncapped workloads must not share entries.
    """
    parts = [f"format:{CACHE_FORMAT_VERSION}"]
    if history_cap is not None:
        parts.append(f"history_cap:{history_cap}")
    parts.extend(_spec_parts(problem_spec))
    for rule in correspondence.rules:
        parts.append(
            "rule:" + ":".join([
                rule.name, rule.element, rule.event_class,
                _target_name(rule.target_element), rule.target_class,
                _target_name(rule.where) if rule.where else "-",
                _target_name(rule.params) if rule.params else "-",
            ])
        )
    parts.append(
        "process_of:" + (_target_name(correspondence.process_of)
                         if correspondence.process_of else "-"))
    parts.append(
        "edge_filter:" + (_target_name(correspondence.edge_filter)
                          if correspondence.edge_filter else "-"))
    if program_spec is None:
        parts.append("program-spec:none")
    else:
        parts.append("program-")
        parts.extend(_spec_parts(program_spec))
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:32]


@contextmanager
def _file_lock(path: Path, timeout: float = 5.0,
               poll: float = 0.01) -> Iterator[None]:
    """Cooperative cross-process lock (O_CREAT|O_EXCL lock file).

    A lock still held at ``timeout`` is presumed abandoned (a daemon
    killed mid-save) and stolen -- losing a save is worse than the
    benign double-write the steal risks, since outcomes are pure
    functions and merge-on-save makes writes commutative anyway.
    """
    lock_path = str(path)
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if time.monotonic() >= deadline:
                try:
                    os.unlink(lock_path)
                except OSError:
                    pass
                deadline = time.monotonic() + timeout
            time.sleep(poll)
    try:
        yield
    finally:
        os.close(fd)
        try:
            os.unlink(lock_path)
        except OSError:
            pass


class ResultCache:
    """On-disk outcome store for one specification key.

    Loads eagerly (one small JSON file; a corrupt or truncated file is
    warned about and treated as empty -- a daemon killed mid-write must
    not refuse to restart), accumulates fresh outcomes in memory, and
    persists atomically (temp file + ``os.replace``) on :meth:`save`.
    Saving first re-reads the file under a lock and folds in entries
    another process wrote since our load, so concurrent verifications
    sharing a cache directory lose nothing.
    """

    def __init__(self, directory: "str | os.PathLike", key: str) -> None:
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise VerificationError(
                f"cache path {self.directory} exists and is not a directory")
        self.key = key
        self.path = self.directory / f"gem-cache-{key}.json"
        self._outcomes: Dict[str, CheckOutcome] = {}
        self._dirty = False
        self._load()

    def _read_disk(self, warn: bool = False) -> Dict[str, CheckOutcome]:
        """Parse the on-disk file; empty dict when missing/stale/corrupt."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as exc:
            if warn:
                warnings.warn(
                    f"result cache {self.path} is corrupt or truncated "
                    f"({exc!r}); starting empty", RuntimeWarning,
                    stacklevel=3)
            return {}
        if (data.get("version") != CACHE_FORMAT_VERSION
                or data.get("key") != self.key):
            return {}  # versioned invalidation: stale format or foreign key
        try:
            return {
                fp: CheckOutcome.from_json(rec)
                for fp, rec in data.get("outcomes", {}).items()
            }
        except (KeyError, TypeError) as exc:
            if warn:
                warnings.warn(
                    f"result cache {self.path} has malformed entries "
                    f"({exc!r}); starting empty", RuntimeWarning,
                    stacklevel=3)
            return {}

    def _load(self) -> None:
        self._outcomes = self._read_disk(warn=True)

    def get(self, fingerprint: str) -> Optional[CheckOutcome]:
        return self._outcomes.get(fingerprint)

    def put(self, fingerprint: str, outcome: CheckOutcome) -> None:
        if self._outcomes.get(fingerprint) == outcome:
            return
        self._outcomes[fingerprint] = outcome
        self._dirty = True

    def update(self, fresh: Dict[str, CheckOutcome]) -> None:
        for fp, outcome in fresh.items():
            self.put(fp, outcome)

    def snapshot(self) -> Dict[str, CheckOutcome]:
        """Read-only copy for handing to worker processes."""
        return dict(self._outcomes)

    def save(self) -> None:
        """Atomically persist (no-op when nothing changed).

        Write-to-temp + ``os.replace`` under a lock file, after folding
        in whatever another process saved since our load: concurrent
        ``update()``/``save()`` against one directory lose no entries.
        """
        if not self._dirty:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with _file_lock(self.path.with_name(self.path.name + ".lock")):
            on_disk = self._read_disk()
            for fp, outcome in on_disk.items():
                self._outcomes.setdefault(fp, outcome)
            payload = {
                "version": CACHE_FORMAT_VERSION,
                "key": self.key,
                "outcomes": {
                    fp: out.to_json()
                    for fp, out in sorted(self._outcomes.items())
                },
            }
            fd, tmp = tempfile.mkstemp(
                prefix=self.path.name + ".", dir=str(self.directory))
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, separators=(",", ":"))
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._dirty = False

    def __len__(self) -> int:
        return len(self._outcomes)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._outcomes


def _entry_bytes(fingerprint: str, outcome: CheckOutcome) -> int:
    """Rough in-memory footprint of one LRU entry (accounting unit)."""
    return (64 + len(fingerprint)
            + sum(len(name) + 8 for name in outcome.failed_restrictions))


class SharedCacheView:
    """One specification key's window onto a :class:`SharedResultCache`.

    Duck-compatible with the slice of :class:`ResultCache` the engine
    uses (``snapshot``/``update``/``save``/``get``/``put``), so
    :class:`repro.engine.Engine` can be pointed at the daemon's shared
    store instead of opening a private per-directory cache.
    """

    def __init__(self, shared: "SharedResultCache", key: str) -> None:
        self._shared = shared
        self.key = key

    def snapshot(self) -> Dict[str, CheckOutcome]:
        return self._shared.snapshot(self.key)

    def get(self, fingerprint: str) -> Optional[CheckOutcome]:
        return self._shared.get(self.key, fingerprint)

    def put(self, fingerprint: str, outcome: CheckOutcome) -> None:
        self._shared.update(self.key, {fingerprint: outcome})

    def update(self, fresh: Dict[str, CheckOutcome]) -> None:
        self._shared.update(self.key, fresh)

    def save(self) -> None:
        self._shared.save(self.key)


class SharedResultCache:
    """Cross-request outcome store for the resident daemon.

    One process-wide LRU over ``(specification key, computation
    fingerprint)`` entries with a **byte budget**: repeated submissions
    of overlapping workloads -- any case, any client -- are answered
    from here without re-checking, while an adversarial stream of
    distinct workloads can only ever pin ``max_bytes`` of memory
    (least-recently-touched entries are evicted first, whole-entry at a
    time).  Thread-safe: daemon executor threads share one instance.

    With a ``directory`` the store is also persistent: each key's
    entries load from / save to the same ``gem-cache-<key>.json`` files
    the one-shot ``--cache`` path uses (merge-on-save, so daemon and
    CLI can share a directory), making a daemon restart warm.

    Occupancy gauges (``cache.entries``/``cache.bytes``) and the
    ``cache.evictions`` counter land in ``metrics``; the daemon folds
    per-job hit/miss counts in alongside (see
    :mod:`repro.serve.daemon`).
    """

    def __init__(self, max_bytes: int = 32 << 20,
                 directory: "str | os.PathLike | None" = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.max_bytes = int(max_bytes)
        self.directory = directory
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lru: "OrderedDict[Tuple[str, str], CheckOutcome]" = OrderedDict()
        self._bytes = 0
        self._loaded_keys: set = set()
        self._disk: Dict[str, ResultCache] = {}
        self._lock = threading.Lock()

    # -- internals (call with the lock held) -------------------------------

    def _disk_cache(self, key: str) -> Optional[ResultCache]:
        if self.directory is None:
            return None
        cache = self._disk.get(key)
        if cache is None:
            cache = self._disk[key] = ResultCache(self.directory, key)
        return cache

    def _ensure_loaded(self, key: str) -> None:
        if key in self._loaded_keys:
            return
        self._loaded_keys.add(key)
        disk = self._disk_cache(key)
        if disk is not None:
            self._insert(key, disk.snapshot())

    def _insert(self, key: str, entries: Dict[str, CheckOutcome]) -> None:
        for fp, outcome in entries.items():
            k = (key, fp)
            if k in self._lru:
                self._lru.move_to_end(k)
                continue
            self._lru[k] = outcome
            self._bytes += _entry_bytes(fp, outcome)
        self._evict()
        self.metrics.set("cache.entries", len(self._lru))
        self.metrics.set("cache.bytes", self._bytes)

    def _evict(self) -> None:
        while self._bytes > self.max_bytes and self._lru:
            (key, fp), outcome = self._lru.popitem(last=False)
            self._bytes -= _entry_bytes(fp, outcome)
            self.metrics.inc("cache.evictions")

    # -- public surface ----------------------------------------------------

    def view(self, key: str) -> SharedCacheView:
        """The engine-facing adapter for one specification key."""
        return SharedCacheView(self, key)

    def snapshot(self, key: str) -> Dict[str, CheckOutcome]:
        """All entries for ``key`` (touches them in the LRU)."""
        with self._lock:
            self._ensure_loaded(key)
            out: Dict[str, CheckOutcome] = {}
            for (k, fp), outcome in list(self._lru.items()):
                if k == key:
                    out[fp] = outcome
                    self._lru.move_to_end((k, fp))
            return out

    def get(self, key: str, fingerprint: str) -> Optional[CheckOutcome]:
        with self._lock:
            self._ensure_loaded(key)
            k = (key, fingerprint)
            outcome = self._lru.get(k)
            if outcome is not None:
                self._lru.move_to_end(k)
            return outcome

    def update(self, key: str, fresh: Dict[str, CheckOutcome]) -> None:
        if not fresh:
            return
        with self._lock:
            self._ensure_loaded(key)
            self._insert(key, fresh)
            disk = self._disk_cache(key)
            if disk is not None:
                disk.update(fresh)

    def save(self, key: Optional[str] = None) -> None:
        """Persist one key's (or every key's) disk cache, if any."""
        with self._lock:
            caches = ([self._disk[key]] if key is not None
                      and key in self._disk else
                      list(self._disk.values()) if key is None else [])
            for cache in caches:
                cache.save()

    @property
    def entries(self) -> int:
        with self._lock:
            return len(self._lru)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes
