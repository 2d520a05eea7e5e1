"""The serve daemon: a resident verification service behind HTTP.

Two halves, deliberately decoupled:

* :class:`VerificationService` owns the long-lived engine machinery --
  the resident :class:`repro.engine.WorkerPool` (forked once, before
  any workload exists), the cross-request
  :class:`repro.engine.SharedResultCache`, a parent-side memo of built
  case objects, and a bounded executor that runs jobs.  It knows
  nothing about HTTP; tests drive it directly.
* :class:`ServeServer` is a hand-rolled ``asyncio`` HTTP/1.1 front end
  (stdlib only -- the whole repo's no-new-dependencies rule applies to
  the daemon too).  It parses just enough HTTP to route the endpoints
  and streams job events as close-delimited JSONL.

Telemetry rides on the same split: the service owns a cumulative
:class:`repro.obs.MetricsRegistry` (every finished job's engine
metrics fold in, counters accumulating and gauges taking the latest
value) plus a :class:`repro.obs.TelemetryHub` whose background sampler
refreshes the *live* gauges -- queue depth, jobs in flight, worker
utilisation, cache size, uptime -- so ``GET /metrics`` only renders a
registry snapshot (Prometheus text format) and never walks the pool
on the scrape path.  ``GET /healthz`` answers whenever the loop is up
(liveness); ``GET /readyz`` answers 200 only once the resident pool
is primed and the service is not shutting down.  When constructed
with a ``history_db`` path, the service also records one
:class:`repro.obs.RunHistory` row per completed job (including
failures), which ``repro history`` analyses offline.

Every job runs through :class:`repro.engine.Engine` with the *same*
configuration surface as ``repro verify``; the only differences are
where tasks execute (the resident pool) and where verdict outcomes
persist (the shared cache), neither of which can change a report --
that is the engine's determinism guarantee, and the serve test suite
asserts the resulting byte-identity per case and jobs setting.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import GemError, VerificationError
from ..engine import (
    Engine,
    EngineConfig,
    JobCancelled,
    SharedResultCache,
    WorkerPool,
)
from ..obs import (
    MetricsRegistry,
    RunHistory,
    TelemetryHub,
    Tracer,
    meta_record,
    render_prometheus,
    stats_snapshot,
    trace_records,
)
from .protocol import (
    JobSpec,
    ProtocolError,
    catalog_entries,
    parse_submission,
    signature_json,
)
from .queue import Job, JobQueue, JobState

#: How often the events endpoint re-checks a running job's buffer.
EVENT_POLL_SECONDS = 0.02


class VerificationService:
    """Resident engine state plus a job executor; the daemon's core."""

    def __init__(
        self,
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        cache_bytes: int = 32 << 20,
        job_workers: int = 2,
        history_db: Optional[str] = None,
        telemetry_interval: float = 0.5,
    ) -> None:
        self.metrics = MetricsRegistry()
        #: serialises registry mutation (job merges, sampler, service
        #: counters) against exposition renders
        self._metrics_lock = threading.RLock()
        self.shared_cache = SharedResultCache(
            max_bytes=cache_bytes, directory=cache_dir, metrics=self.metrics)
        # fork NOW, while the process is small and holds no workload:
        # resident workers rebuild state from CaseRefs, never inherit it
        self.pool = WorkerPool(jobs, resident=True)
        self.queue = JobQueue()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, job_workers),
            thread_name_prefix="serve-job")
        # parent-side build memo: the engine needs live objects for
        # sharding/merging even though workers rebuild their own
        self._objects: Dict[str, Tuple] = {}
        self._objects_lock = threading.Lock()
        self.job_workers = max(1, job_workers)
        self._closed = False
        self.history = RunHistory(history_db) if history_db else None
        self._started_at = time.monotonic()
        self.hub = TelemetryHub(self.metrics, self._sample,
                                interval=telemetry_interval).start()

    # -- telemetry ----------------------------------------------------------

    def _inc(self, name: str, value: float = 1.0) -> None:
        with self._metrics_lock:
            self.metrics.inc(name, value)

    def _sample(self, registry: MetricsRegistry) -> None:
        """The hub's sampler: refresh every live-state gauge."""
        counts = self.queue.counts()
        with self._metrics_lock:
            registry.set("serve.queue.depth", counts["queued"])
            registry.set("serve.jobs.inflight", counts["running"])
            registry.set("serve.worker.utilisation",
                         counts["running"] / self.job_workers)
            registry.set("serve.workers", self.pool.workers)
            registry.set("serve.job_workers", self.job_workers)
            registry.set("serve.uptime.seconds",
                         time.monotonic() - self._started_at)
            registry.set("serve.cache.entries", self.shared_cache.entries)
            registry.set("serve.cache.bytes", self.shared_cache.bytes_used)

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text format)."""
        with self._metrics_lock:
            return render_prometheus(self.metrics)

    @property
    def ready(self) -> bool:
        """Pool primed (the hub has sampled it) and not shutting down."""
        return not self._closed and self.hub.samples > 0

    def _record_history(self, job: Job, *, ok: bool, mode: str,
                        signature: Any, wall_s: float,
                        stats: Dict[str, Any]) -> None:
        """One history row per completed job; never fails the job."""
        if self.history is None:
            return
        spec = job.spec
        try:
            self.history.record(
                source="serve",
                case=spec.case if spec.case else "inline",
                flags={"jobs": spec.jobs, "por": spec.por, "dfa": spec.dfa,
                       "mutant": spec.mutant},
                ok=ok, mode=mode, signature=signature, wall_s=wall_s,
                stats=stats)
        except Exception as exc:  # noqa: BLE001 - history is best-effort
            warnings.warn(f"run-history write failed: {exc!r}",
                          RuntimeWarning, stacklevel=2)

    # -- workload construction ---------------------------------------------

    def _objects_for(self, spec: JobSpec) -> Tuple:
        """(program, problem_spec, correspondence, program_spec), memoised.

        Keyed by the CaseRef state key, so the parent compiles each
        workload's specification plans once -- warm resubmissions skip
        straight to exploration.
        """
        ref = spec.case_ref()
        key = ref.state_key()
        with self._objects_lock:
            objs = self._objects.get(key)
            if objs is None:
                objs = ref.build_objects()
                self._objects[key] = objs
            return objs

    # -- job execution ------------------------------------------------------

    def submit(self, specs: List[JobSpec]) -> List[Job]:
        if self._closed:
            raise VerificationError("service is shutting down")
        jobs = [self.queue.create(spec) for spec in specs]
        for job in jobs:
            self._inc("serve.jobs.submitted")
            self._executor.submit(self._run_job, job)
        return jobs

    def _run_job(self, job: Job) -> None:
        if not job.start_running():
            # cancelled while queued; JobQueue.cancel already flipped it
            self._inc("serve.jobs.cancelled")
            return
        job.append_records([meta_record()])
        spec = job.spec
        tracer = Tracer()

        def progress(event: str, payload: Dict[str, Any]) -> None:
            # live progress as schema-valid metric records: a consumer
            # tailing /events sees counters it can already parse
            job.append_records([{
                "type": "metric", "kind": "counter",
                "name": "serve.progress",
                "labels": {"event": event,
                           **{k: str(v) for k, v in payload.items()}},
                "value": 1.0,
            }])

        config = EngineConfig(
            jobs=spec.jobs,
            por=spec.por,
            dfa=spec.dfa,
            history_cap=spec.history_cap,
            max_steps=spec.max_steps,
            max_runs=spec.max_runs,
            tracer=tracer,
            progress=progress,
            pool=self.pool,
            case_ref=spec.case_ref(),
            shared_cache=self.shared_cache,
            cancel=job.cancel_event.is_set,
        )
        try:
            program, pspec, corr, prspec = self._objects_for(spec)
            engine = Engine(config)
            report = engine.verify(program, pspec, corr, program_spec=prspec)
        except JobCancelled:
            self._inc("serve.jobs.cancelled")
            job.transition(JobState.CANCELLED)
            return
        except GemError as exc:
            self._inc("serve.jobs.failed")
            self._record_history(job, ok=False, mode="failed",
                                 signature=[], wall_s=job.wall_s or 0.0,
                                 stats={})
            job.transition(JobState.FAILED, error=str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - a job must not kill the daemon
            self._inc("serve.jobs.failed")
            self._record_history(job, ok=False, mode="failed",
                                 signature=[], wall_s=job.wall_s or 0.0,
                                 stats={})
            job.transition(JobState.FAILED,
                           error=f"{type(exc).__name__}: {exc}")
            return

        stats = engine.last_stats
        assert stats is not None
        # the full schema-v1 trace, minus its meta header (the stream
        # already opened with one): spans then metrics then explanations
        job.append_records(trace_records(tracer, stats.metrics)[1:])
        self._inc("serve.jobs.done")
        self._inc("serve.cache.hits", stats.cache_hits)
        self._inc("serve.cache.misses", stats.checks_performed)
        # fold the job's engine metrics into the cumulative service
        # registry: counters accumulate across jobs, gauges (the
        # engine.* stats view) take the latest job's value
        with self._metrics_lock:
            self.metrics.merge_records(stats.metrics.records())
        wall_s = job.wall_s or 0.0
        signature = signature_json(report.signature())
        snapshot = stats_snapshot(stats)
        self._record_history(job, ok=report.ok, mode=stats.mode,
                             signature=signature, wall_s=wall_s,
                             stats=snapshot)
        job.transition(JobState.DONE, result={
            "ok": report.ok,
            "signature": signature,
            "summary": report.summary(),
            "wall_s": wall_s,
            "stats": snapshot,
        })

    # -- introspection ------------------------------------------------------

    def stats_json(self) -> Dict[str, Any]:
        m = self.metrics
        return {
            "pool": {"jobs": self.pool.jobs, "workers": self.pool.workers,
                     "resident": self.pool.resident},
            "jobs": self.queue.counts(),
            "cache": {
                "entries": self.shared_cache.entries,
                "bytes": self.shared_cache.bytes_used,
                "evictions": m.get("cache.evictions"),
                "hits": m.get("serve.cache.hits"),
                "misses": m.get("serve.cache.misses"),
            },
        }

    def close(self) -> None:
        self._closed = True
        self.hub.stop()
        self._executor.shutdown(wait=True)
        self.pool.close()
        self.shared_cache.save()


# -- HTTP front end ---------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                409: "Conflict", 500: "Internal Server Error",
                503: "Service Unavailable"}

_MAX_BODY = 4 << 20


async def _read_request(reader: asyncio.StreamReader,
                        ) -> Tuple[str, str, bytes]:
    """(method, path, body) of one HTTP/1.1 request; minimal by design."""
    line = await reader.readline()
    if not line:
        raise ConnectionResetError
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise _HttpError(400, "bad content-length") from None
    if length > _MAX_BODY:
        raise _HttpError(400, f"body exceeds {_MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target.split("?", 1)[0], body


def _json_bytes(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _response(status: int, payload: Any) -> bytes:
    body = _json_bytes(payload)
    head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


#: The content type Prometheus scrapers expect from /metrics.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _text_response(status: int, text: str,
                   content_type: str = _METRICS_CONTENT_TYPE) -> bytes:
    body = text.encode("utf-8")
    head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


class ServeServer:
    """Routes the serve endpoints onto a :class:`VerificationService`."""

    def __init__(self, service: VerificationService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await _read_request(reader)
                await self._route(method, path, body, writer)
            except _HttpError as exc:
                writer.write(_response(exc.status, {"error": exc.message}))
            except (ConnectionResetError, asyncio.IncompleteReadError):
                pass
            except Exception as exc:  # noqa: BLE001 - keep the daemon up
                writer.write(_response(500, {
                    "error": f"{type(exc).__name__}: {exc}"}))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if path == "/cases" and method == "GET":
            writer.write(_response(200, {"cases": catalog_entries()}))
            return
        if path == "/stats" and method == "GET":
            writer.write(_response(200, self.service.stats_json()))
            return
        if path == "/metrics" and method == "GET":
            writer.write(_text_response(200, self.service.metrics_text()))
            return
        if path == "/healthz" and method == "GET":
            # liveness: the loop answered, nothing else is claimed
            writer.write(_response(200, {"ok": True}))
            return
        if path == "/readyz" and method == "GET":
            ready = self.service.ready
            writer.write(_response(200 if ready else 503,
                                   {"ready": ready}))
            return
        if path == "/jobs" and method == "GET":
            writer.write(_response(
                200, {"jobs": self.service.queue.listing()}))
            return
        if path == "/jobs" and method == "POST":
            await self._submit(body, writer)
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.service.queue.get(parts[1])
            if job is None:
                raise _HttpError(404, f"unknown job {parts[1]!r}")
            if len(parts) == 2 and method == "GET":
                writer.write(_response(200, job.snapshot()))
                return
            if parts[2:] == ["events"] and method == "GET":
                await self._stream_events(job, writer)
                return
            if parts[2:] == ["cancel"] and method == "POST":
                accepted = self.service.queue.cancel(parts[1])
                if accepted is False:
                    raise _HttpError(409, f"job {parts[1]} already finished")
                writer.write(_response(202, {"id": job.id,
                                             "cancelling": True}))
                return
        raise _HttpError(404 if method == "GET" else 405,
                         f"no route for {method} {path}")

    async def _submit(self, body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        from ..cli import case_catalog

        try:
            specs = parse_submission(payload, case_catalog())
        except ProtocolError as exc:
            raise _HttpError(400, str(exc)) from None
        loop = asyncio.get_running_loop()
        # submit() forks nothing but does take locks; keep the loop free
        jobs = await loop.run_in_executor(
            None, self.service.submit, specs)
        listing = [{"id": j.id, "label": j.spec.describe()} for j in jobs]
        if isinstance(payload, list):
            writer.write(_response(202, {"jobs": listing}))
        else:
            writer.write(_response(202, {**listing[0], "jobs": listing}))

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter) -> None:
        """Close-delimited JSONL: live records now, the rest as they come.

        The buffer's first record is the schema meta header, written by
        the job thread before anything else, so a stream picked up at
        any point from index 0 is a valid trace prefix; ``repro
        profile`` reads a completed stream exactly like a ``--trace``
        file.
        """
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/jsonl\r\n"
                     b"Connection: close\r\n\r\n")
        cursor = 0
        while True:
            batch = job.records_from(cursor)
            if batch:
                cursor += len(batch)
                writer.write(b"".join(_json_bytes(rec) for rec in batch))
                await writer.drain()
                continue
            # records are appended strictly before the terminal state is
            # set, so observing `finished` with an empty tail is final
            if job.finished and not job.records_from(cursor):
                return
            await asyncio.sleep(EVENT_POLL_SECONDS)


# -- entry points ------------------------------------------------------------


class ServerHandle:
    """A daemon running on a background thread (tests, bench, smoke)."""

    def __init__(self, server: ServeServer, service: VerificationService,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.service = service
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        async def _shutdown() -> None:
            await self.server.stop()

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self.service.close()


def start_in_thread(service: Optional[VerificationService] = None,
                    host: str = "127.0.0.1", port: int = 0,
                    **service_kwargs: Any) -> ServerHandle:
    """Start a daemon on a fresh event loop in a background thread."""
    service = service or VerificationService(**service_kwargs)
    server = ServeServer(service, host, port)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()
        # drain cancelled tasks so the loop closes cleanly
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    thread = threading.Thread(target=run, name="serve-daemon", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("serve daemon failed to start within 30s")
    return ServerHandle(server, service, loop, thread)


async def serve_forever(host: str, port: int,
                        service: VerificationService) -> None:
    """Run the daemon until cancelled (the ``repro serve`` command)."""
    server = ServeServer(service, host, port)
    await server.start()
    print(f"repro serve: listening on http://{host}:{server.port} "
          f"({service.pool.workers} worker(s), "
          f"{service.job_workers} concurrent job(s))",
          flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def run_daemon(host: str = "127.0.0.1", port: int = 8642,
               jobs: int = 2, cache_dir: Optional[str] = None,
               cache_bytes: int = 32 << 20, job_workers: int = 2,
               history_db: Optional[str] = None) -> int:
    """Blocking entry point behind ``repro serve``."""
    service = VerificationService(jobs=jobs, cache_dir=cache_dir,
                                  cache_bytes=cache_bytes,
                                  job_workers=job_workers,
                                  history_db=history_db)
    try:
        asyncio.run(serve_forever(host, port, service))
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    finally:
        service.close()
    return 0
