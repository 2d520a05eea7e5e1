"""``repro.serve`` -- verification as a service.

A long-lived daemon wrapping the :mod:`repro.engine` stack behind a
small JSON-over-HTTP API (stdlib ``asyncio`` only -- no web framework),
so repeat verifications pay neither interpreter startup nor
specification-plan compilation nor re-checking of already-judged
computations:

* **resident worker pool** -- the daemon forks its
  :class:`repro.engine.WorkerPool` once at startup; workers rebuild
  each workload from a picklable :class:`repro.engine.CaseRef` on
  first use and keep the built state (restriction ``SpecPlan``\\ s,
  per-process dedupe memos) hot across requests;
* **shared result cache** -- one
  :class:`repro.engine.SharedResultCache` (LRU byte budget, hit/miss
  metrics) spans all requests, keyed by ``(spec key, computation
  fingerprint)``, so a warm resubmission replays verdicts instead of
  recomputing them;
* **streamed observability** -- every job is traced; ``GET
  /jobs/<id>/events`` streams the run as the existing schema-v1 JSONL
  span/metric records, so ``repro profile`` consumes a job stream
  exactly like a ``--trace`` file.

Modules: :mod:`.protocol` (request/response shapes and validation),
:mod:`.queue` (job lifecycle and cancellation), :mod:`.daemon` (the
service and the asyncio HTTP server), :mod:`.client` (blocking
``http.client`` consumer used by ``repro submit`` and the tests).

The daemon's catalog *is* the CLI catalog
(:func:`repro.cli.case_catalog`), and reports are produced by the same
engine code path as ``repro verify`` -- report signatures are
byte-identical between the two for every case and every ``--jobs``
setting (asserted in ``tests/test_serve.py`` and the serve step of
CI's smoke job).

API summary (all request/response bodies JSON)::

    GET  /cases            catalog: name, language, mutant availability
    POST /jobs             submit one spec or a list of specs
    GET  /jobs             light listing of every accepted job
    GET  /jobs/<id>        status; report signature+summary when done
    GET  /jobs/<id>/events schema-v1 JSONL stream (live, then full)
    POST /jobs/<id>/cancel best-effort cancellation
    GET  /stats            pool, queue, and cache metrics
    GET  /metrics          Prometheus text exposition (not JSON)
    GET  /healthz          liveness (200 whenever the loop is up)
    GET  /readyz           readiness (503 until the pool is primed)
"""

from .client import ServeClient
from .daemon import VerificationService, run_daemon, serve_forever
from .protocol import (
    JobSpec,
    ProtocolError,
    catalog_entries,
    parse_job_spec,
    signature_json,
)
from .queue import Job, JobQueue, JobState

__all__ = [
    "ServeClient",
    "VerificationService", "run_daemon", "serve_forever",
    "JobSpec", "ProtocolError", "parse_job_spec", "signature_json",
    "catalog_entries",
    "Job", "JobQueue", "JobState",
]
