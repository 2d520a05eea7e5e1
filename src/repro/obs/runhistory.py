"""Persistent run history: one row per completed verification.

The serve daemon (and ``repro verify --history``) records every
finished job here -- what ran (case + flag set), what came out (ok,
mode, report-signature digest), how long it took, and the full engine
stats/metrics snapshot -- so ``repro history`` can answer the
operational questions counters alone cannot: *is this workload getting
slower*, *did the POR prune ratio collapse after that change*, *what
did run 412 actually report*.

Storage is stdlib :mod:`sqlite3` in WAL mode (concurrent daemon
executor threads write rows while the CLI reads), with the schema
version pinned in ``PRAGMA user_version``: an unknown version is a
:class:`HistorySchemaError`, never a silent misread.  Connections are
opened per operation -- history writes happen once per job, so
connection reuse would buy nothing and thread-affinity bugs cost real
debugging time.

Regression detection is deliberately simple and explainable: the
baseline for a ``(case, flags)`` series is the **median of the last
N** finished runs before the latest one, and the latest run regresses
when its wall time exceeds ``tolerance x`` that baseline, or its POR
prune ratio falls below ``baseline / tolerance``.  Medians over a
small window resist the one-off noise spike that means and single-run
baselines amplify; the tolerance is multiplicative so the same gate
works for millisecond and minute workloads.  ``repro history
regressions`` exits non-zero when anything regresses, so CI can
consume it directly.

Nothing in this module feeds back into verification: a history row is
written *after* a report is complete, and report signatures are
asserted byte-identical with history on and off.
"""

from __future__ import annotations

import json
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import VerificationError

#: Bump on any incompatible change to the table shapes below.
HISTORY_SCHEMA_VERSION = 1

#: The default database file (shared by serve and the CLI).
DEFAULT_HISTORY_DB = "repro_history.sqlite"

#: Runs the regression baseline is the median of.
DEFAULT_BASELINE_RUNS = 5

#: Latest-over-baseline wall-time ratio that flags a regression.
DEFAULT_TOLERANCE = 1.5


class HistorySchemaError(VerificationError):
    """The database's schema version is not one this reader supports."""


def parse_tolerance(text: str) -> float:
    """``"1.5"`` or ``"10x"`` -> the multiplicative tolerance."""
    cleaned = str(text).strip().lower().rstrip("x")
    try:
        value = float(cleaned)
    except ValueError:
        raise VerificationError(
            f"bad tolerance {text!r}; want a ratio like 1.5 or 10x"
        ) from None
    if value < 1.0:
        raise VerificationError(
            f"tolerance {text!r} is below 1.0; a ratio of 1.0 means "
            "'any slowdown regresses'")
    return value


def flags_key(flags: Mapping[str, Any]) -> str:
    """Canonical JSON of a flag mapping -- the series key component."""
    return json.dumps(dict(flags), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunRow:
    """One recorded verification, as read back from the store."""

    id: int
    ts: float
    source: str
    case: str
    flags: Dict[str, Any]
    ok: bool
    mode: str
    signature: str
    wall_s: float
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def series(self) -> Tuple[str, str]:
        """(case, canonical flags) -- what baselines group by."""
        return (self.case, flags_key(self.flags))

    @property
    def prune_ratio(self) -> Optional[float]:
        """POR pruned branches over (pruned + runs); None when POR saw
        no branch points (nothing to regress)."""
        pruned = self.stats.get("por_pruned")
        runs = self.stats.get("runs")
        if not pruned or not runs:
            return None
        return pruned / (pruned + runs)


@dataclass(frozen=True)
class Regression:
    """One flagged series: what moved, by how much, against what."""

    case: str
    flags: Dict[str, Any]
    kind: str  # "wall_s" | "prune_ratio"
    latest: float
    baseline: float
    ratio: float
    run_id: int
    window: int

    def describe(self) -> str:
        flag_text = flags_key(self.flags)
        if self.kind == "wall_s":
            return (f"{self.case} {flag_text}: run #{self.run_id} took "
                    f"{self.latest:.4f}s, {self.ratio:.2f}x the median "
                    f"{self.baseline:.4f}s of the last {self.window} run(s)")
        return (f"{self.case} {flag_text}: run #{self.run_id} prune ratio "
                f"{self.latest:.3f} fell to {self.ratio:.2f}x the median "
                f"{self.baseline:.3f} of the last {self.window} run(s)")


_CREATE = """
CREATE TABLE IF NOT EXISTS runs (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    ts        REAL NOT NULL,
    source    TEXT NOT NULL,
    case_name TEXT NOT NULL,
    flags     TEXT NOT NULL,
    ok        INTEGER NOT NULL,
    mode      TEXT NOT NULL,
    signature TEXT NOT NULL,
    wall_s    REAL NOT NULL,
    stats     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_series ON runs (case_name, flags, id);
"""


class RunHistory:
    """The store: record, list, and analyse verification runs."""

    def __init__(self, path: str) -> None:
        self.path = path
        with self._connect() as conn:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                conn.executescript(_CREATE)
                conn.execute(
                    f"PRAGMA user_version = {HISTORY_SCHEMA_VERSION}")
            elif version != HISTORY_SCHEMA_VERSION:
                raise HistorySchemaError(
                    f"history db {path!r} has schema v{version}; this "
                    f"reader supports v{HISTORY_SCHEMA_VERSION}")

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        return conn

    # -- writing -----------------------------------------------------------

    def record(self, *, source: str, case: str, flags: Mapping[str, Any],
               ok: bool, mode: str, signature: Any, wall_s: float,
               stats: Optional[Mapping[str, Any]] = None,
               ts: Optional[float] = None) -> int:
        """Insert one completed run; returns its row id.

        ``signature`` may be the canonical-JSON signature list (stored
        verbatim) or any JSON-serialisable rendering of it; ``stats``
        is the engine's counter snapshot (runs, distinct computations,
        dedupe/cache hits, por/slice counters ...), stored as JSON.
        """
        with self._connect() as conn:
            cursor = conn.execute(
                "INSERT INTO runs (ts, source, case_name, flags, ok, mode,"
                " signature, wall_s, stats) VALUES (?,?,?,?,?,?,?,?,?)",
                (time.time() if ts is None else float(ts), source, case,
                 flags_key(flags), 1 if ok else 0, mode,
                 json.dumps(signature, sort_keys=True), float(wall_s),
                 json.dumps(dict(stats or {}), sort_keys=True)))
            return int(cursor.lastrowid)

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _row(raw: Tuple) -> RunRow:
        return RunRow(id=int(raw[0]), ts=float(raw[1]), source=raw[2],
                      case=raw[3], flags=json.loads(raw[4]),
                      ok=bool(raw[5]), mode=raw[6], signature=raw[7],
                      wall_s=float(raw[8]), stats=json.loads(raw[9]))

    def runs(self, case: Optional[str] = None,
             limit: int = 50) -> List[RunRow]:
        """Latest runs first, optionally filtered to one case."""
        query = ("SELECT id, ts, source, case_name, flags, ok, mode,"
                 " signature, wall_s, stats FROM runs")
        params: Tuple = ()
        if case is not None:
            query += " WHERE case_name = ?"
            params = (case,)
        query += " ORDER BY id DESC LIMIT ?"
        with self._connect() as conn:
            rows = conn.execute(query, params + (int(limit),)).fetchall()
        return [self._row(r) for r in rows]

    def run(self, run_id: int) -> Optional[RunRow]:
        with self._connect() as conn:
            raw = conn.execute(
                "SELECT id, ts, source, case_name, flags, ok, mode,"
                " signature, wall_s, stats FROM runs WHERE id = ?",
                (int(run_id),)).fetchone()
        return self._row(raw) if raw is not None else None

    def series(self, case: Optional[str] = None,
               ) -> Dict[Tuple[str, str], List[RunRow]]:
        """Every (case, flags) series, rows oldest-first within each."""
        out: Dict[Tuple[str, str], List[RunRow]] = {}
        for row in reversed(self.runs(case=case, limit=1_000_000)):
            out.setdefault(row.series, []).append(row)
        return out

    def __len__(self) -> int:
        with self._connect() as conn:
            return int(conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0])

    # -- analysis ----------------------------------------------------------

    def trends(self, case: Optional[str] = None,
               window: int = DEFAULT_BASELINE_RUNS,
               ) -> List[Dict[str, Any]]:
        """Per-series timing summary: latest vs median of the last N."""
        out: List[Dict[str, Any]] = []
        for (case_name, flags), rows in sorted(self.series(case).items()):
            walls = [r.wall_s for r in rows]
            recent = walls[-window:]
            out.append({
                "case": case_name,
                "flags": json.loads(flags),
                "runs": len(rows),
                "latest_s": walls[-1],
                "median_s": statistics.median(recent),
                "min_s": min(walls),
                "max_s": max(walls),
                "last_id": rows[-1].id,
            })
        return out

    def regressions(self, case: Optional[str] = None,
                    baseline_runs: int = DEFAULT_BASELINE_RUNS,
                    tolerance: float = DEFAULT_TOLERANCE,
                    ) -> List[Regression]:
        """Latest run of each series vs its median-of-last-N baseline.

        A series with no prior runs has no baseline and cannot regress;
        a latest run that *failed* is not timed against the baseline
        (its wall time measures the failure, not the workload).
        """
        found: List[Regression] = []
        for (case_name, flags), rows in sorted(self.series(case).items()):
            if len(rows) < 2:
                continue
            latest, prior = rows[-1], rows[:-1][-baseline_runs:]
            if not latest.ok and latest.mode == "failed":
                continue
            flag_map = json.loads(flags)
            base_wall = statistics.median([r.wall_s for r in prior])
            if base_wall > 0 and latest.wall_s > tolerance * base_wall:
                found.append(Regression(
                    case=case_name, flags=flag_map, kind="wall_s",
                    latest=latest.wall_s, baseline=base_wall,
                    ratio=latest.wall_s / base_wall, run_id=latest.id,
                    window=len(prior)))
            prior_ratios = [r.prune_ratio for r in prior
                            if r.prune_ratio is not None]
            latest_ratio = latest.prune_ratio
            if prior_ratios and latest_ratio is not None:
                base_ratio = statistics.median(prior_ratios)
                if base_ratio > 0 and latest_ratio < base_ratio / tolerance:
                    found.append(Regression(
                        case=case_name, flags=flag_map, kind="prune_ratio",
                        latest=latest_ratio, baseline=base_ratio,
                        ratio=latest_ratio / base_ratio, run_id=latest.id,
                        window=len(prior)))
        return found


# -- engine/report plumbing --------------------------------------------------


def stats_snapshot(stats: Any) -> Dict[str, Any]:
    """The history row's stats payload from an :class:`EngineStats`
    (:meth:`~repro.engine.EngineStats.snapshot`; empty without one)."""
    return {} if stats is None else stats.snapshot()


def record_report(history: "RunHistory", *, source: str, case: str,
                  flags: Mapping[str, Any], report: Any,
                  wall_s: float) -> int:
    """Record a finished :class:`VerificationReport` (CLI-side helper)."""
    signature = json.loads(json.dumps(report.signature()))
    return history.record(
        source=source, case=case, flags=flags, ok=report.ok,
        mode=(report.engine_stats.mode
              if report.engine_stats is not None else "?"),
        signature=signature, wall_s=wall_s,
        stats=stats_snapshot(report.engine_stats))


# -- rendering (the ``repro history`` subcommands) ---------------------------


def render_list(rows: Iterable[RunRow]) -> str:
    lines = [f"{'id':>5}  {'when':19}  {'source':6}  {'ok':2}  "
             f"{'mode':10}  {'wall':>9}  case [flags]"]
    for row in rows:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(row.ts))
        ok = "ok" if row.ok else "NO"
        lines.append(
            f"{row.id:>5}  {when:19}  {row.source:6}  {ok:2}  "
            f"{row.mode:10}  {row.wall_s:8.3f}s  {row.case} "
            f"{flags_key(row.flags)}")
    if len(lines) == 1:
        lines.append("(no runs recorded)")
    return "\n".join(lines)


def render_show(row: RunRow) -> str:
    payload = {
        "id": row.id, "ts": row.ts, "source": row.source, "case": row.case,
        "flags": row.flags, "ok": row.ok, "mode": row.mode,
        "wall_s": row.wall_s, "signature": json.loads(row.signature),
        "stats": row.stats,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_trends(trends: Iterable[Mapping[str, Any]]) -> str:
    lines = [f"{'runs':>5}  {'latest':>9}  {'median':>9}  {'min':>9}  "
             f"{'max':>9}  case [flags]"]
    for t in trends:
        lines.append(
            f"{t['runs']:>5}  {t['latest_s']:8.3f}s  {t['median_s']:8.3f}s  "
            f"{t['min_s']:8.3f}s  {t['max_s']:8.3f}s  {t['case']} "
            f"{flags_key(t['flags'])}")
    if len(lines) == 1:
        lines.append("(no runs recorded)")
    return "\n".join(lines)
