"""Minimal asyncio HTTP/1.1 frontend for the analysis service.

Stdlib-only by design (the ROADMAP forbids new runtime deps): requests are
parsed directly off asyncio streams, one task per connection, with
keep-alive so load-generating clients can reuse connections.  The API:

========  ==================  ====================================================
method    path                body / behaviour
========  ==================  ====================================================
POST      ``/analyze``        ``{"source": ..., "language"?, "name"?, "policy"?,
                              "max_subgraph_size"?, "allow_pinning"?,
                              "priority"?, "wait"?, "trace"?}``
POST      ``/kernel``         ``{"name": ..., "priority"?, "wait"?, "trace"?}``
POST      ``/batch``          ``{"kernels": [...], "priority"?, "wait"?}``
POST      ``/tightness``      ``{"kernels"?, "s_values"?, "params"?, "jobs"?,
                              "chunk_size"?, "priority"?, "wait"?, "trace"?}``
                              -- schedule-replay tightness audit (default: full
                              corpus; ``jobs`` parallelizes the kernels,
                              ``chunk_size`` bounds replay memory)
POST      ``/bounds``         ``{"name": ..., "s_values"?, "params"?,
                              "engines"?, "priority"?, "wait"?, "trace"?}``
                              -- run every concrete-CDAG bound engine on one
                              kernel and certify the max; coalesced by CDAG
                              signature
GET       ``/jobs/<id>``      poll one job record
GET       ``/metrics``        queue depth, coalesce rate, stage timings, cache;
                              ``?format=prometheus`` for text exposition
GET       ``/healthz``        liveness + version
========  ==================  ====================================================

``"trace": true`` runs the job under a span tracer and embeds the stitched
span tree in the result payload (``result["trace"]``).

``"deadline_seconds": N`` (any POST submission) attaches an absolute
deadline to the job: the dispatcher drops it unstarted if it expires in the
queue, and the worker cancels cooperatively at the next stage boundary.  A
job that dies to its deadline answers HTTP 504 (when waited on) with the
job record; the record's ``error_kind`` is ``"deadline"``.

``wait`` defaults to true on ``/analyze``/``/kernel``/``/bounds`` (the
response carries the finished job record, result included) and false on
``/batch``/``/tightness`` (the response carries queued job records to poll);
``"timeout": N`` caps a wait at ``N`` seconds.  ``wait``, ``trace`` and
``allow_pinning`` must be JSON booleans and ``timeout`` a number: ``"false"``
is a 400, not a truth value.  Analysis failures surface as
HTTP 422 with the job record; malformed requests as 400; unknown kernels or
job ids as 404.  503 responses (draining / not accepting work) carry a
``Retry-After`` header so well-behaved clients back off instead of spinning.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading

from repro.service.core import AnalysisService, ServiceConfig, ServiceUnavailable
from repro.service.jobs import DEFAULT_PRIORITY, FAILED
from repro.util.errors import SoapError

MAX_BODY_BYTES = 8 * 1024 * 1024
#: server-side ceiling on how long a ``wait`` request may block
MAX_WAIT_SECONDS = 600.0
#: advisory back-off sent with every 503 (drain completes or capacity
#: frees on this order; clients honour it, see ServiceClient)
RETRY_AFTER_SECONDS = 1


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ServiceServer:
    """HTTP frontend bound to one :class:`AnalysisService`."""

    def __init__(
        self,
        service: AnalysisService,
        *,
        host: str = "127.0.0.1",
        port: int = 8731,
    ):
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = await self._dispatch(method, path, body)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except _HttpError as err:
            # protocol-level reject (bad request line, oversized body): the
            # client still deserves a JSON error, then the connection closes
            try:
                await self._write_response(
                    writer, err.status, {"error": err.message}, False
                )
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # daemon shutdown while the connection idled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line:
            return None
        try:
            method, path, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            raise _HttpError(400, "bad Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(self, writer, status, payload, keep_alive) -> None:
        if isinstance(payload, str):
            # pre-rendered text body (Prometheus exposition format)
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, indent=1).encode("utf-8")
            content_type = "application/json"
        reason = {200: "OK", 202: "Accepted"}.get(status, "Error")
        retry = (
            f"Retry-After: {RETRY_AFTER_SECONDS}\r\n" if status == 503 else ""
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes):
        bare, _, query = path.partition("?")
        # normalize per-job paths so the endpoint counter stays bounded
        label = "/jobs/<id>" if bare.startswith("/jobs/") else bare
        self.service.metrics.observe_request(f"{method} {label}")
        try:
            if method == "GET" and bare == "/healthz":
                payload = self.service.healthz()
                # a draining daemon is alive but must fail load-balancer
                # health checks so the deploy takes it out of rotation
                return (503 if payload["status"] == "draining" else 200), payload
            if method == "GET" and bare == "/metrics":
                if _query_params(query).get("format") == "prometheus":
                    return 200, self.service.metrics.prometheus()
                return 200, self.service.metrics_snapshot()
            if method == "GET" and bare.startswith("/jobs/"):
                return self._job_record(bare[len("/jobs/"):])
            if method == "POST" and bare == "/analyze":
                return await self._post_analyze(_json_body(body))
            if method == "POST" and bare == "/kernel":
                return await self._post_kernel(_json_body(body))
            if method == "POST" and bare == "/batch":
                return await self._post_batch(_json_body(body))
            if method == "POST" and bare == "/tightness":
                return await self._post_tightness(_json_body(body))
            if method == "POST" and bare == "/bounds":
                return await self._post_bounds(_json_body(body))
            return 404, {"error": f"no route for {method} {path}"}
        except _HttpError as err:
            return err.status, {"error": err.message}
        except ServiceUnavailable as err:
            return 503, {"error": str(err)}
        except KeyError as err:
            return 404, {"error": str(err).strip("'\"")}
        except (SoapError, ValueError, SyntaxError) as err:
            return 400, {"error": str(err) or type(err).__name__}
        except asyncio.TimeoutError:
            return 504, {"error": "timed out waiting for job completion"}

    def _job_record(self, job_id: str):
        job = self.service.get_job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.record()

    async def _post_kernel(self, body: dict):
        name = _required(body, "name")
        wait = _waiting(body, default=True)
        job = self.service.submit_kernel(
            name,
            priority=body.get("priority", DEFAULT_PRIORITY),
            trace=_flag(body, "trace", False),
            deadline_seconds=_deadline_seconds(body),
        )
        return await self._respond(job, wait)

    async def _post_analyze(self, body: dict):
        source = _required(body, "source")
        wait = _waiting(body, default=True)
        job = await self.service.submit_source(
            source,
            name=body.get("name", "program"),
            language=body.get("language", "python"),
            policy=body.get("policy", "sum"),
            max_subgraph_size=body.get("max_subgraph_size"),
            allow_pinning=body.get("allow_pinning", False),
            priority=body.get("priority", DEFAULT_PRIORITY),
            trace=_flag(body, "trace", False),
            deadline_seconds=_deadline_seconds(body),
        )
        return await self._respond(job, wait)

    async def _post_batch(self, body: dict):
        kernels = _required(body, "kernels")
        if not isinstance(kernels, list) or not kernels:
            raise _HttpError(400, "'kernels' must be a non-empty list")
        wait = _waiting(body, default=False)
        jobs = self.service.submit_batch(
            [str(name) for name in kernels],
            priority=body.get("priority", "low"),
        )
        if wait is not None:
            await asyncio.gather(*(self.service.wait(job, timeout=wait) for job in jobs))
            status = 422 if any(job.state == FAILED for job in jobs) else 200
            return status, {"jobs": [job.record() for job in jobs]}
        return 202, {"jobs": [job.record(include_result=False) for job in jobs]}

    async def _post_tightness(self, body: dict):
        kernels = body.get("kernels")
        if kernels is not None and (
            not isinstance(kernels, list)
            or not all(isinstance(k, str) for k in kernels)
        ):
            raise _HttpError(400, "'kernels' must be a list of kernel names")
        s_values = body.get("s_values")
        if s_values is not None and not isinstance(s_values, list):
            raise _HttpError(400, "'s_values' must be a list of integers")
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise _HttpError(400, "'params' must be an object of NAME: int")
        jobs = body.get("jobs", 1)
        # bool is an int subclass: "jobs": true must not mean jobs=1
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise _HttpError(400, "'jobs' must be a positive integer")
        chunk_size = body.get("chunk_size")
        if chunk_size is not None and (
            isinstance(chunk_size, bool)
            or not isinstance(chunk_size, int)
            or chunk_size < 1
        ):
            raise _HttpError(400, "'chunk_size' must be a positive integer")
        # An audit can run for minutes: poll ``/jobs/<id>`` unless the
        # caller explicitly asks to block.
        wait = _waiting(body, default=False)
        job = self.service.submit_tightness(
            kernels,
            s_values=s_values,
            params=params,
            priority=body.get("priority", "low"),
            jobs=jobs,
            chunk_size=chunk_size,
            trace=_flag(body, "trace", False),
            deadline_seconds=_deadline_seconds(body),
        )
        return await self._respond(job, wait)

    async def _post_bounds(self, body: dict):
        name = _required(body, "name")
        s_values = body.get("s_values")
        if s_values is not None and not isinstance(s_values, list):
            raise _HttpError(400, "'s_values' must be a list of integers")
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise _HttpError(400, "'params' must be an object of NAME: int")
        engines = body.get("engines")
        if engines is not None and (
            not isinstance(engines, list)
            or not all(isinstance(e, str) for e in engines)
        ):
            raise _HttpError(400, "'engines' must be a list of engine names")
        wait = _waiting(body, default=True)
        job = self.service.submit_bounds(
            str(name),
            s_values=s_values,
            params=params,
            engines=engines,
            priority=body.get("priority", DEFAULT_PRIORITY),
            trace=_flag(body, "trace", False),
            deadline_seconds=_deadline_seconds(body),
        )
        return await self._respond(job, wait)

    async def _respond(self, job, wait: float | None):
        """Answer with the finished job, or 202 at once when ``wait`` is None."""
        if wait is not None:
            await self.service.wait(job, timeout=wait)
            if job.finished_ok:
                return 200, job.record()
            # a job its own deadline killed is a gateway timeout, not a
            # semantically-invalid request
            return (504 if job.error_kind == "deadline" else 422), job.record()
        return 202, job.record(include_result=False)


def _query_params(query: str) -> dict[str, str]:
    """``a=b&c=d`` -> dict; bare keys map to ``""`` (no urldecoding needed)."""
    params: dict[str, str] = {}
    for part in query.split("&"):
        if part:
            name, _, value = part.partition("=")
            params[name] = value
    return params


def _json_body(body: bytes) -> dict:
    if not body:
        raise _HttpError(400, "request body required")
    try:
        payload = json.loads(body)
    except ValueError:
        raise _HttpError(400, "request body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return payload


def _required(body: dict, field: str):
    try:
        return body[field]
    except KeyError:
        raise _HttpError(400, f"missing required field {field!r}") from None


def _flag(body: dict, field: str, default: bool) -> bool:
    """A JSON boolean field: ``"false"`` or ``1`` is a 400, not a truth value."""
    value = body.get(field, default)
    if not isinstance(value, bool):
        raise _HttpError(400, f"{field!r} must be true or false")
    return value


def _waiting(body: dict, *, default: bool) -> float | None:
    """Seconds to block on the job (``"wait"``, ``"timeout"``), or None.

    Both fields are checked before a job exists, so a malformed one is a
    400 with nothing submitted.
    """
    wait = _flag(body, "wait", default)
    timeout = body.get("timeout", MAX_WAIT_SECONDS)
    # bool is an int subclass: "timeout": true must not mean one second
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise _HttpError(400, "'timeout' must be a number of seconds")
    return max(0.0, min(float(timeout), MAX_WAIT_SECONDS)) if wait else None


def _deadline_seconds(body: dict) -> float | None:
    raw = body.get("deadline_seconds")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
        raise _HttpError(400, "'deadline_seconds' must be a positive number")
    return float(raw)


# ---------------------------------------------------------------------------
# embedding helpers
# ---------------------------------------------------------------------------


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8731,
    config: ServiceConfig | None = None,
    ready: "threading.Event | None" = None,
    on_start=None,
) -> None:
    """Run the daemon until interrupted (the CLI ``serve`` verb).

    Deploy signals (when the loop runs on the main thread, i.e. the CLI
    path): **SIGTERM** drains -- submissions and health checks answer 503,
    accepted work completes -- then exits; **SIGHUP** drains, re-forks the
    worker fleet, and resumes serving (zero-downtime reload).
    """

    async def main() -> None:
        service = AnalysisService(config)
        await service.start()
        server = ServiceServer(service, host=host, port=port)
        await server.start()
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        # let embedders (ServiceThread) request a clean exit of this
        # coroutine instead of cancelling the loop's tasks from outside
        server.request_shutdown = stopping.set

        async def _terminate() -> None:
            await service.drain()
            stopping.set()

        def _on_sigterm() -> None:
            asyncio.ensure_future(_terminate())

        def _on_sighup() -> None:
            asyncio.ensure_future(service.reload())

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
            loop.add_signal_handler(signal.SIGHUP, _on_sighup)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main-thread loop (ServiceThread) or no signal support
        if on_start is not None:
            on_start(server)
        if ready is not None:
            ready.set()
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            pass
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await server.close()
            await service.stop()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


class ServiceThread:
    """In-process daemon for tests and the load harness.

    Runs the event loop in a daemon thread; ``port`` is known once the
    context manager enters (bind with ``port=0`` for an ephemeral port).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.config = config
        self.host = host
        self.port = port
        self.server: ServiceServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ServiceThread":
        def capture(server: ServiceServer) -> None:
            self.server = server
            self.port = server.port
            self._loop = asyncio.get_running_loop()

        self._thread = threading.Thread(
            target=run_server,
            kwargs={
                "host": self.host,
                "port": self.port,
                "config": self.config,
                "ready": self._ready,
                "on_start": capture,
            },
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("analysis service failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            graceful = False
            if self.server is not None:
                # shut the fleet down cleanly first: cancelling every task
                # outright could strand forked worker processes mid-recv
                try:
                    future = asyncio.run_coroutine_threadsafe(
                        self._graceful_stop(), self._loop
                    )
                    future.result(timeout=20)
                    graceful = True
                except BaseException:  # noqa: BLE001 - CancelledError included
                    pass
            if not graceful:
                try:
                    self._loop.call_soon_threadsafe(
                        lambda: [
                            task.cancel() for task in asyncio.all_tasks(self._loop)
                        ]
                    )
                except RuntimeError:
                    pass  # loop already closed after the graceful stop
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None

    async def _graceful_stop(self) -> None:
        # Fleet first, listener last: closing the listener completes
        # ``serve_forever`` and lets run_server's main() exit -- if that
        # happened while ``service.stop()`` was still joining workers,
        # asyncio.run's task cleanup would cancel us mid-stop.
        await self.server.service.stop()
        await self.server.close()
        # main() exits through its finally (both closes are idempotent) and
        # asyncio.run reaps whatever connection tasks remain
        shutdown = getattr(self.server, "request_shutdown", None)
        if shutdown is not None:
            shutdown()

    @property
    def service(self) -> AnalysisService | None:
        return self.server.service if self.server is not None else None

    def drain(self, timeout: float = 120.0) -> None:
        """Blocking drain from the test/controller thread."""
        asyncio.run_coroutine_threadsafe(
            self.server.service.drain(), self._loop
        ).result(timeout=timeout)

    def reload(self, timeout: float = 300.0) -> None:
        """Blocking drain + fleet re-fork from the test/controller thread."""
        asyncio.run_coroutine_threadsafe(
            self.server.service.reload(), self._loop
        ).result(timeout=timeout)

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
