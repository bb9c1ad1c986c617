"""``repro serve``: the verification-as-a-service daemon.

A :class:`JobService` owns the job table; a :class:`JobServer` wraps it in
a stdlib :class:`~http.server.ThreadingHTTPServer` speaking the typed API
of :mod:`repro.jobs.messages` over ``POST /rpc`` (one JSON message per
request, typed reply or :class:`~repro.jobs.messages.ErrorReply` in-band;
the HTTP status is 200 for every well-formed exchange).

Execution model
---------------
Jobs run in *forked worker processes* (one per job, bounded by the pool
width from :func:`repro.utils.parallel.default_worker_count`), not in
threads: a job that dies -- OOM killer, SIGKILL, a native crash -- takes
down only its worker, the daemon observes the exit code and reports the
job ``failed`` with the originating spec named, and the digest-keyed
:class:`~repro.experiments.store.RunStore` stays consistent because every
store publish is already atomic.  Workers hand their outcome back through
an atomically-written file under ``<run_dir>/service/outcomes/``; a
missing outcome *is* the crash signal.

Single-flight dedupe
--------------------
A job's identity is its resolved-config digest (:func:`repro.jobs.runner.job_key`).
At submit time, under one lock:

* digest already *executing* -> the new submission enters state
  ``attached`` to that primary and resolves with its result;
* digest already *in the store* -> state ``cached``, result served
  immediately, nothing executes;
* otherwise the submission is the new primary (``queued`` -> ``running``),
  and its cacheable outcome is recorded under the digest.

So any (controller, budgets) query is verified once and served
from cache forever, no matter how many clients race to ask.

Matrix jobs executed here emit telemetry into the shared run directory
under a per-job source (``events/job-<id>.jsonl``), so ``repro runs
watch --run-dir <dir>`` follows daemon work exactly like CLI runs.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.jobs import runner
from repro.jobs.messages import (
    TERMINAL_STATES,
    ApiMessage,
    CancelJob,
    ErrorReply,
    JobEvents,
    JobEventsReply,
    JobList,
    JobReply,
    JobStatus,
    JobView,
    ListJobs,
    ServerStatus,
    ServerStatusReply,
    Shutdown,
    ShutdownReply,
    SubmitJob,
    UnknownMessage,
    parse_api_message,
    parse_job_spec,
)
from repro.utils.messages import MessageValidationError
from repro.utils.parallel import default_worker_count

__all__ = [
    "ServiceError",
    "JobService",
    "JobServer",
    "SERVICE_DIRNAME",
    "DISCOVERY_FILENAME",
    "service_dir",
    "discovery_path",
    "read_discovery",
]

#: Daemon scratch space inside the run directory.
SERVICE_DIRNAME = "service"
#: The discovery file ``repro submit --run-dir`` resolves the endpoint from.
DISCOVERY_FILENAME = "server.json"


def service_dir(run_dir: Union[str, Path]) -> Path:
    return Path(run_dir) / SERVICE_DIRNAME


def discovery_path(run_dir: Union[str, Path]) -> Path:
    return service_dir(run_dir) / DISCOVERY_FILENAME


def read_discovery(run_dir: Union[str, Path]) -> Dict:
    """The daemon endpoint recorded under ``run_dir`` (raises ``OSError``/``ValueError``)."""

    with discovery_path(run_dir).open() as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "host" not in payload or "port" not in payload:
        raise ValueError(f"malformed discovery file {discovery_path(run_dir)}")
    return payload


def _write_json_atomic(path: Path, payload: Dict) -> None:
    """Publish ``payload`` at ``path`` with no torn-read window."""

    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(path.name + ".tmp")
    with staging.open("w") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(staging, path)


class ServiceError(RuntimeError):
    """A request the service refuses; carried to clients as :class:`ErrorReply`."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _describe_spec(payload: Dict) -> str:
    """One-line spec identity for failure messages (sorted keys: stable)."""

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _service_worker(spec_payload: Dict, run_dir: str, job_id: str, force: bool) -> None:
    """Worker-process body: execute one job, publish the outcome file.

    Runs in a forked child.  ``runner.execute_job`` is looked up through
    the module at call time, so state inherited from the parent (including
    test monkeypatches) applies.  A crash that skips the outcome write is
    detected by the parent through the exit status.
    """

    import sys

    from repro.experiments import RunStore

    outcome_file = service_dir(run_dir) / "outcomes" / f"{job_id}.json"
    outcome: Dict = {"job_id": job_id}
    try:
        spec = parse_job_spec(spec_payload)
        store = RunStore(run_dir)
        payload, cacheable = runner.execute_job(
            spec,
            store=store,
            run_dir=None,
            force=force,
            telemetry_source=f"job-{job_id}",
        )
        if cacheable:
            key = runner.job_key(store, spec)
            if force or not store.contains(key):
                store.save(key, payload)
        outcome.update(status="ok", result=payload)
    except BaseException as error:  # noqa: BLE001 - the outcome file is the report
        outcome.update(status="error", error=f"{type(error).__name__}: {error}")
    _write_json_atomic(outcome_file, outcome)
    sys.exit(0 if outcome["status"] == "ok" else 1)


@dataclass
class _Job:
    """Mutable daemon-side job record (views are frozen snapshots)."""

    job_id: str
    kind: str
    digest: str
    spec_payload: Dict
    force: bool = False
    state: str = "queued"
    submitted_unix: float = 0.0
    started_unix: float = 0.0
    finished_unix: float = 0.0
    error: str = ""
    attached_to: str = ""
    result: Optional[Dict] = None
    process: Optional[object] = None
    followers: List["_Job"] = field(default_factory=list)

    def view(self) -> JobView:
        return JobView(
            job_id=self.job_id,
            kind=self.kind,
            digest=self.digest,
            state=self.state,
            submitted_unix=self.submitted_unix,
            started_unix=self.started_unix,
            finished_unix=self.finished_unix,
            error=self.error,
            attached_to=self.attached_to,
            spec=dict(self.spec_payload),
        )


class JobService:
    """The daemon's engine: job table, worker pool, single-flight dedupe.

    Thread-safe; the HTTP layer calls it from handler threads.  ``clock``
    is injectable for deterministic tests.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        workers: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        import multiprocessing
        import time

        from repro.experiments import RunStore

        self.run_dir = Path(run_dir)
        self.store = RunStore(self.run_dir)
        self.workers = workers if workers else default_worker_count()
        self._clock = clock if clock is not None else time.time
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}
        self._order: List[str] = []
        self._queue: Deque[_Job] = deque()
        self._running: Dict[str, _Job] = {}
        self._active_by_digest: Dict[str, str] = {}
        self._counter = 0
        self._closing = False
        self.started_unix = self._clock()

    # -- submission ---------------------------------------------------------

    def submit(self, spec_payload: Dict, force: bool = False) -> Tuple[JobView, Optional[Dict]]:
        """Register one submission; returns ``(view, result-if-cached)``.

        The whole decision -- parse, resolve, digest, dedupe -- happens
        under the service lock, so two racing identical submissions cannot
        both become primaries.
        """

        try:
            spec = parse_job_spec(spec_payload)
        except MessageValidationError as error:
            raise ServiceError("bad-spec", str(error))
        with self._lock:
            if self._closing:
                raise ServiceError("shutting-down", "daemon is shutting down")
            try:
                key = runner.job_key(self.store, spec)
            except runner.JobSpecError as error:
                raise ServiceError("bad-spec", str(error))
            digest = key.digest
            record = self._new_job_locked(spec.TYPE, digest, dict(spec_payload), force)
            if not force:
                primary_id = self._active_by_digest.get(digest)
                if primary_id is not None:
                    primary = self._jobs[primary_id]
                    record.state = "attached"
                    record.attached_to = primary_id
                    primary.followers.append(record)
                    return record.view(), None
                if self.store.contains(key):
                    record.state = "cached"
                    record.finished_unix = self._clock()
                    record.result = self.store.load_result(key)
                    return record.view(), record.result
            record.state = "queued"
            self._active_by_digest[digest] = record.job_id
            self._queue.append(record)
            self._dispatch_locked()
            return record.view(), None

    def _new_job_locked(self, kind: str, digest: str, spec_payload: Dict, force: bool) -> _Job:
        self._counter += 1
        job_id = f"j{self._counter}-{digest[:8]}"
        record = _Job(
            job_id=job_id,
            kind=kind,
            digest=digest,
            spec_payload=spec_payload,
            force=force,
            submitted_unix=self._clock(),
        )
        self._jobs[job_id] = record
        self._order.append(job_id)
        return record

    # -- execution ----------------------------------------------------------

    def _dispatch_locked(self) -> None:
        while self._queue and len(self._running) < self.workers and not self._closing:
            record = self._queue.popleft()
            if record.state != "queued":  # cancelled while waiting
                continue
            self._start_locked(record)

    def _start_locked(self, record: _Job) -> None:
        record.state = "running"
        record.started_unix = self._clock()
        process = self._context.Process(
            target=_service_worker,
            args=(record.spec_payload, str(self.run_dir), record.job_id, record.force),
        )
        process.start()
        record.process = process
        self._running[record.job_id] = record
        threading.Thread(target=self._monitor, args=(record,), daemon=True).start()

    def _monitor(self, record: _Job) -> None:
        record.process.join()
        outcome = self._read_outcome(record.job_id)
        with self._lock:
            if record.state == "running":
                if outcome is not None and outcome.get("status") == "ok":
                    record.state = "done"
                    record.result = outcome.get("result")
                elif outcome is not None:
                    record.state = "failed"
                    record.error = (
                        f"{outcome.get('error', 'job failed')} "
                        f"[spec {_describe_spec(record.spec_payload)}]"
                    )
                else:
                    code = record.process.exitcode
                    record.state = "failed"
                    record.error = (
                        f"worker pid {record.process.pid} died without reporting "
                        f"(exit {code}) running {record.kind} job "
                        f"[spec {_describe_spec(record.spec_payload)}]"
                    )
                record.finished_unix = self._clock()
            self._resolve_followers_locked(record)
            self._running.pop(record.job_id, None)
            if self._active_by_digest.get(record.digest) == record.job_id:
                del self._active_by_digest[record.digest]
            self._dispatch_locked()

    def _read_outcome(self, job_id: str) -> Optional[Dict]:
        path = service_dir(self.run_dir) / "outcomes" / f"{job_id}.json"
        try:
            with path.open() as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def _resolve_followers_locked(self, record: _Job) -> None:
        """Attached submissions adopt their primary's terminal outcome."""

        now = self._clock()
        for follower in record.followers:
            if follower.state != "attached":
                continue
            follower.state = record.state if record.state in TERMINAL_STATES else "failed"
            follower.result = record.result
            if record.state == "cancelled":
                follower.error = f"primary job {record.job_id} was cancelled"
            elif record.error:
                follower.error = f"primary job {record.job_id} failed: {record.error}"
            follower.finished_unix = now
        record.followers = []

    # -- queries ------------------------------------------------------------

    def _get_locked(self, job_id: str) -> _Job:
        record = self._jobs.get(job_id)
        if record is None:
            raise ServiceError("unknown-job", f"unknown job id {job_id!r}")
        return record

    def status(self, job_id: str) -> Tuple[JobView, Optional[Dict]]:
        with self._lock:
            record = self._get_locked(job_id)
            result = record.result if record.state in ("done", "cached") else None
            return record.view(), result

    def list_jobs(self, state: Optional[str] = None) -> List[JobView]:
        with self._lock:
            views = [self._jobs[job_id].view() for job_id in self._order]
        if state is not None:
            views = [view for view in views if view.state == state]
        return views

    def cancel(self, job_id: str) -> JobView:
        with self._lock:
            record = self._get_locked(job_id)
            if record.state in TERMINAL_STATES:
                raise ServiceError(
                    "conflict", f"job {job_id} already finished ({record.state})"
                )
            now = self._clock()
            if record.state == "attached":
                primary = self._jobs.get(record.attached_to)
                if primary is not None and record in primary.followers:
                    primary.followers.remove(record)
                record.state = "cancelled"
                record.finished_unix = now
            elif record.state == "queued":
                record.state = "cancelled"
                record.finished_unix = now
                self._resolve_followers_locked(record)
                if self._active_by_digest.get(record.digest) == record.job_id:
                    del self._active_by_digest[record.digest]
                self._dispatch_locked()
            else:  # running: the monitor thread finishes the bookkeeping
                record.state = "cancelled"
                record.error = "cancelled while running"
                record.finished_unix = now
                record.process.terminate()
            return record.view()

    def events(self, job_id: str, cursor: Dict) -> JobEventsReply:
        """Complete event-log lines for the job since ``cursor``.

        The cursor is a byte offset into the job's (or, for attached
        submissions, its primary's) event file; torn trailing lines stay
        unread until the writer completes them, like
        :class:`repro.telemetry.reader.EventTailer`.
        """

        from repro.telemetry.emitter import events_dir

        with self._lock:
            record = self._get_locked(job_id)
            source_id = record.attached_to or record.job_id
            done = record.state in TERMINAL_STATES
        offset = cursor.get("offset", 0)
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            offset = 0
        path = events_dir(self.run_dir) / f"job-{source_id}.jsonl"
        lines: Tuple[str, ...] = ()
        if path.is_file():
            with path.open("rb") as handle:
                handle.seek(offset)
                data = handle.read()
            complete = data[: data.rfind(b"\n") + 1] if b"\n" in data else b""
            if complete:
                lines = tuple(complete.decode("utf-8", "replace").splitlines())
                offset += len(complete)
        return JobEventsReply(job_id=job_id, lines=lines, cursor={"offset": offset}, done=done)

    def server_status(self) -> ServerStatusReply:
        with self._lock:
            counts: Dict[str, int] = {}
            for job_id in self._order:
                state = self._jobs[job_id].state
                counts[state] = counts.get(state, 0) + 1
        return ServerStatusReply(
            pid=os.getpid(),
            run_dir=str(self.run_dir),
            workers=self.workers,
            started_unix=self.started_unix,
            jobs=counts,
        )

    # -- shutdown -----------------------------------------------------------

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop accepting work, cancel the queue, terminate running workers."""

        with self._lock:
            self._closing = True
            now = self._clock()
            while self._queue:
                record = self._queue.popleft()
                if record.state == "queued":
                    record.state = "cancelled"
                    record.error = "daemon shut down before the job started"
                    record.finished_unix = now
                    self._resolve_followers_locked(record)
                    if self._active_by_digest.get(record.digest) == record.job_id:
                        del self._active_by_digest[record.digest]
            running = list(self._running.values())
            for record in running:
                if record.state == "running":
                    record.state = "cancelled"
                    record.error = "daemon shut down while the job was running"
                    record.finished_unix = now
                    record.process.terminate()
        for record in running:
            record.process.join(timeout=join_timeout)


class _RpcHandler(BaseHTTPRequestHandler):
    """One ``POST /rpc`` endpoint; every reply is a typed message."""

    server_version = "repro-serve/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Quiet by default; the daemon narrates through its own channel."""

    def _send(self, message: ApiMessage, status: int = 200) -> None:
        body = message.to_line().encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._send(ErrorReply(error=f"no such endpoint {self.path!r}", code="bad-request"), 404)

    def do_POST(self):  # noqa: N802 - stdlib naming
        if self.path != "/rpc":
            self._send(ErrorReply(error=f"no such endpoint {self.path!r}", code="bad-request"), 404)
            return
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        reply, stop_after = self.server.owner.dispatch(body)
        self._send(reply)
        if stop_after:
            # Shut down from a helper thread: shutdown() blocks until the
            # serve loop notices, and this handler thread must first finish
            # flushing the reply.
            threading.Thread(target=self.server.owner.shutdown, daemon=True).start()


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Back-reference to the owning :class:`JobServer` (set at construction).
    owner: "JobServer"

    def handle_error(self, request, client_address):
        """A client that vanished mid-request is routine, not a crash."""


class JobServer:
    """The HTTP face of a :class:`JobService`.

    Binds immediately (``port=0`` picks a free port; a taken port raises
    ``OSError`` before any state is touched), then serves on
    :meth:`serve_forever` or, for tests, a background :meth:`start`.
    While serving, the endpoint is discoverable through
    ``<run_dir>/service/server.json``.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.service = JobService(run_dir, workers=workers, clock=clock)
        self._http = _HttpServer((host, port), _RpcHandler)
        self._http.owner = self
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._http.server_address[:2]
        return host, port

    # -- request routing ----------------------------------------------------

    def dispatch(self, body: bytes) -> Tuple[ApiMessage, bool]:
        """One request body -> ``(typed reply, stop-serving-after-reply)``."""

        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return ErrorReply(error="request body is not valid JSON", code="bad-request"), False
        if not isinstance(payload, dict):
            return ErrorReply(error="request body must be a JSON object", code="bad-request"), False
        try:
            message = parse_api_message(payload)
        except MessageValidationError as error:
            return ErrorReply(error=str(error), code="bad-request"), False
        try:
            return self._route(message)
        except ServiceError as error:
            return ErrorReply(error=error.message, code=error.code), False
        except Exception as error:  # noqa: BLE001 - daemon must keep serving
            return ErrorReply(error=f"{type(error).__name__}: {error}", code="internal"), False

    def _route(self, message: ApiMessage) -> Tuple[ApiMessage, bool]:
        service = self.service
        if isinstance(message, UnknownMessage):
            return (
                ErrorReply(
                    error=f"unknown message type {message.type_name!r}", code="bad-request"
                ),
                False,
            )
        if isinstance(message, SubmitJob):
            view, result = service.submit(message.spec, force=message.force)
            return JobReply(job=view.to_json(), result=result or {}), False
        if isinstance(message, JobStatus):
            view, result = service.status(message.job_id)
            return JobReply(job=view.to_json(), result=result or {}), False
        if isinstance(message, CancelJob):
            view = service.cancel(message.job_id)
            return JobReply(job=view.to_json()), False
        if isinstance(message, ListJobs):
            views = service.list_jobs(state=message.state)
            return JobList(jobs=tuple(view.to_json() for view in views)), False
        if isinstance(message, JobEvents):
            return service.events(message.job_id, message.cursor), False
        if isinstance(message, ServerStatus):
            return service.server_status(), False
        if isinstance(message, Shutdown):
            return ShutdownReply(stopping=True), True
        return (
            ErrorReply(
                error=f"{message.TYPE!r} is a reply, not a request", code="bad-request"
            ),
            False,
        )

    # -- lifecycle ----------------------------------------------------------

    def _write_discovery(self) -> None:
        host, port = self.address
        _write_json_atomic(
            discovery_path(self.service.run_dir),
            {"host": host, "port": port, "pid": os.getpid(), "started_unix": self.service.started_unix},
        )

    def _remove_discovery(self) -> None:
        try:
            discovery_path(self.service.run_dir).unlink()
        except OSError:
            pass

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or a Shutdown message) stops the loop."""

        self._write_discovery()
        try:
            self._http.serve_forever(poll_interval=0.1)
        finally:
            self._remove_discovery()
            self.service.close()
            self._http.server_close()

    def start(self) -> "JobServer":
        """Serve on a background thread (tests and embedders); returns self."""

        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._http.shutdown()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
