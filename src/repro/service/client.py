"""Typed HTTP client for the analysis service.

Wraps the JSON API in plain Python calls returning :class:`JobRecord` /
:class:`ServiceHealth` values.  One client holds one keep-alive connection
(re-opened transparently if the daemon closes it), so it is cheap to issue
many sequential requests -- but it is **not** thread-safe: give each client
thread its own instance (the load harness does exactly that).

>>> client = ServiceClient(port=8731)
>>> record = client.kernel("gemm")          # blocks until analyzed
>>> record.result["ours"]
'2*sqrt(S)*(N/b_0)**3/S'
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field

DEFAULT_PORT = 8731
DEFAULT_TIMEOUT = 600.0
#: default retry count for idempotent requests (GETs and the coalescable
#: POST submissions -- a retried submission attaches to the in-flight job
#: or re-derives the same bit-identical payload, so retrying is safe)
DEFAULT_IDEMPOTENT_RETRIES = 2
#: ceiling on honouring a server-supplied ``Retry-After`` header
MAX_RETRY_AFTER_SECONDS = 5.0


class ServiceError(RuntimeError):
    """Raised when the daemon answers with an HTTP error status."""

    def __init__(self, status: int, payload: dict):
        message = payload.get("error") or f"HTTP {status}"
        super().__init__(message)
        self.status = status
        self.payload = payload


@dataclass(frozen=True)
class ServiceHealth:
    """``GET /healthz`` (a draining daemon answers 503 with this payload)."""

    status: str
    version: str
    uptime_seconds: float
    workers: int
    queue_depth: int
    coalescing: bool
    solver: str = "exact"
    solver_stats: dict = field(default_factory=dict)
    active_jobs: int = 0
    draining: bool = False
    warm: dict | None = None
    bounds: dict = field(default_factory=dict)
    store: dict = field(default_factory=dict)
    worker_processes: list = field(default_factory=list)
    degraded: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict) -> "ServiceHealth":
        return cls(
            status=payload["status"],
            version=payload["version"],
            uptime_seconds=payload["uptime_seconds"],
            workers=payload["workers"],
            queue_depth=payload["queue_depth"],
            coalescing=payload["coalescing"],
            solver=payload.get("solver", "exact"),
            solver_stats=payload.get("solver_stats", {}),
            active_jobs=payload.get("active_jobs", 0),
            draining=payload.get("draining", False),
            warm=payload.get("warm"),
            bounds=payload.get("bounds", {}),
            store=payload.get("store", {}),
            worker_processes=payload.get("worker_processes", []),
            degraded=payload.get("degraded", {}),
        )


@dataclass(frozen=True)
class JobRecord:
    """One job as reported by the daemon (submit responses, ``/jobs/<id>``)."""

    id: str
    kind: str
    state: str
    priority: str
    attached: int
    coalesced: bool
    request: dict
    result: dict | None = None
    error: str | None = None
    queue_seconds: float | None = None
    run_seconds: float | None = None
    total_seconds: float | None = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRecord":
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            state=payload["state"],
            priority=payload["priority"],
            attached=payload.get("attached", 1),
            coalesced=payload.get("coalesced", False),
            request=payload.get("request", {}),
            result=payload.get("result"),
            error=payload.get("error"),
            queue_seconds=payload.get("queue_seconds"),
            run_seconds=payload.get("run_seconds"),
            total_seconds=payload.get("total_seconds"),
            raw=payload,
        )

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    @property
    def ok(self) -> bool:
        return self.state == "done"


class ServiceClient:
    """Blocking JSON-over-HTTP client; one instance per thread.

    Retry policy is **idempotency-aware**: every request this client can
    issue is idempotent -- GETs trivially, the POST submissions because the
    daemon coalesces them by canonical request identity (a retried
    submission attaches to the in-flight job or re-derives the same
    bit-identical payload).  So by default (``retries=None``) connection
    failures and 503s retry up to :data:`DEFAULT_IDEMPOTENT_RETRIES` times;
    pass an explicit ``retries=N`` (0 disables) to override for every
    request.  503 backoff honours the daemon's ``Retry-After`` header
    (capped at :data:`MAX_RETRY_AFTER_SECONDS`), falling back to
    exponential ``backoff * 2**attempt`` sleeps.

    The retry budget is bounded by a deadline: ``retry_budget_seconds``
    caps the total time a single logical request may spend retrying, and a
    per-call ``deadline_seconds`` (which also ships to the daemon as the
    job deadline) tightens it further -- a client never keeps retrying a
    request whose job deadline has already passed.

    ``timeout`` bounds each request; ``connect_timeout`` (default:
    ``timeout``) bounds connection establishment separately.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        connect_timeout: float | None = None,
        retries: int | None = None,
        backoff: float = 0.25,
        retry_budget_seconds: float | None = None,
    ):
        if retries is not None and retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if retry_budget_seconds is not None and retry_budget_seconds <= 0:
            raise ValueError("retry_budget_seconds must be positive")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.retries = None if retries is None else int(retries)
        self.backoff = float(backoff)
        self.retry_budget_seconds = retry_budget_seconds
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def healthz(self) -> ServiceHealth:
        # a draining daemon answers 503 with a full health payload -- that
        # is a valid answer to "how are you", not a transport error
        return ServiceHealth.from_payload(
            self._request("GET", "/healthz", tolerate=(503,))
        )

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: raw text exposition."""
        return self._request("GET", "/metrics?format=prometheus", raw=True)

    def kernel(
        self,
        name: str,
        *,
        priority: str = "normal",
        wait: bool = True,
        timeout: float | None = None,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> JobRecord:
        body = {"name": name, "priority": priority, "wait": wait}
        if timeout is not None:
            body["timeout"] = timeout
        if trace:
            body["trace"] = True
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        return JobRecord.from_payload(
            self._request(
                "POST", "/kernel", body, budget_seconds=deadline_seconds
            )
        )

    def analyze(
        self,
        source: str,
        *,
        name: str = "program",
        language: str = "python",
        policy: str = "sum",
        max_subgraph_size: int | None = None,
        allow_pinning: bool = False,
        priority: str = "normal",
        wait: bool = True,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> JobRecord:
        body = {
            "source": source,
            "name": name,
            "language": language,
            "policy": policy,
            "allow_pinning": allow_pinning,
            "priority": priority,
            "wait": wait,
        }
        if max_subgraph_size is not None:
            body["max_subgraph_size"] = max_subgraph_size
        if trace:
            body["trace"] = True
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        return JobRecord.from_payload(
            self._request(
                "POST", "/analyze", body, budget_seconds=deadline_seconds
            )
        )

    def tightness(
        self,
        kernels: list[str] | None = None,
        *,
        s_values: list[int] | None = None,
        params: dict[str, int] | None = None,
        priority: str = "low",
        wait: bool = False,
        timeout: float | None = None,
        jobs: int = 1,
        chunk_size: int | None = None,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> JobRecord:
        """``POST /tightness``: queue (or block on) a tightness audit.

        ``jobs`` runs the daemon-side kernels (analysis and audit each) over
        a process pool capped at the CPU count; ``chunk_size`` bounds
        daemon-side replay memory.  The payload is identical whatever
        either value.  ``trace=True`` embeds the job's stitched span tree
        in the result.
        """
        body: dict = {"priority": priority, "wait": wait, "jobs": jobs}
        if chunk_size is not None:
            body["chunk_size"] = chunk_size
        if trace:
            body["trace"] = True
        if kernels is not None:
            body["kernels"] = kernels
        if s_values is not None:
            body["s_values"] = s_values
        if params is not None:
            body["params"] = params
        if timeout is not None:
            body["timeout"] = timeout
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        return JobRecord.from_payload(
            self._request(
                "POST", "/tightness", body, budget_seconds=deadline_seconds
            )
        )

    def bounds(
        self,
        name: str,
        *,
        s_values: list[int] | None = None,
        params: dict[str, int] | None = None,
        engines: list[str] | None = None,
        priority: str = "normal",
        wait: bool = True,
        timeout: float | None = None,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> JobRecord:
        """``POST /bounds``: every concrete-CDAG bound engine on one kernel.

        The result payload is the ``bounds`` report: per-engine values and
        the certified max at each swept ``S``.  ``engines`` restricts the
        evaluation to named engines (default: all registered).
        """
        body: dict = {"name": name, "priority": priority, "wait": wait}
        if s_values is not None:
            body["s_values"] = s_values
        if params is not None:
            body["params"] = params
        if engines is not None:
            body["engines"] = engines
        if timeout is not None:
            body["timeout"] = timeout
        if trace:
            body["trace"] = True
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        return JobRecord.from_payload(
            self._request(
                "POST", "/bounds", body, budget_seconds=deadline_seconds
            )
        )

    def batch(
        self, names: list[str], *, priority: str = "low", wait: bool = False
    ) -> list[JobRecord]:
        payload = self._request(
            "POST", "/batch", {"kernels": names, "priority": priority, "wait": wait}
        )
        return [JobRecord.from_payload(job) for job in payload["jobs"]]

    def job(self, job_id: str) -> JobRecord:
        return JobRecord.from_payload(self._request("GET", f"/jobs/{job_id}"))

    def wait_for(
        self, job_id: str, *, timeout: float = DEFAULT_TIMEOUT, poll: float = 0.05
    ) -> JobRecord:
        """Poll ``/jobs/<id>`` until the job finishes."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.done:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {record.state}")
            time.sleep(poll)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        raw: bool = False,
        tolerate: tuple[int, ...] = (),
        idempotent: bool = True,
        budget_seconds: float | None = None,
    ):
        encoded = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if encoded else {}
        retries = self._retries_for(idempotent)
        budget = (
            budget_seconds if budget_seconds is not None
            else self.retry_budget_seconds
        )
        give_up_at = None if budget is None else time.monotonic() + float(budget)
        attempt = 0
        while True:
            try:
                status, payload, response_headers = self._exchange(
                    method, path, encoded, headers, raw
                )
            except (http.client.HTTPException, ConnectionError, OSError):
                # daemon down or restarting mid-deploy
                if attempt >= retries or self._expired(give_up_at):
                    raise
                self._pause(self.backoff * (2 ** attempt), give_up_at)
                attempt += 1
                continue
            if status >= 400 and status not in tolerate:
                if (
                    status == 503
                    and attempt < retries
                    and not self._expired(give_up_at)
                ):
                    # draining/reloading daemon: back off as instructed
                    self._pause(
                        self._retry_after(response_headers, attempt), give_up_at
                    )
                    attempt += 1
                    continue
                # 422 job records still parse; surface them as exceptions
                raise ServiceError(
                    status,
                    payload if isinstance(payload, dict) else {"error": payload},
                )
            return payload

    def _retries_for(self, idempotent: bool) -> int:
        if self.retries is not None:
            return self.retries  # explicit override applies across the board
        return DEFAULT_IDEMPOTENT_RETRIES if idempotent else 0

    def _retry_after(self, response_headers: dict, attempt: int) -> float:
        """Server-instructed 503 back-off; exponential fallback."""
        raw = response_headers.get("retry-after")
        if raw is not None:
            try:
                seconds = float(raw)
            except ValueError:
                pass  # HTTP-date form: not worth parsing, use the fallback
            else:
                if seconds >= 0:
                    return min(seconds, MAX_RETRY_AFTER_SECONDS)
        return self.backoff * (2 ** attempt)

    @staticmethod
    def _expired(give_up_at: float | None) -> bool:
        return give_up_at is not None and time.monotonic() >= give_up_at

    @staticmethod
    def _pause(seconds: float, give_up_at: float | None) -> None:
        if give_up_at is not None:
            seconds = min(seconds, max(0.0, give_up_at - time.monotonic()))
        if seconds > 0:
            time.sleep(seconds)

    def _exchange(self, method, path, encoded, headers, raw):
        """One transport round-trip (plus one stale keep-alive reconnect)."""
        for attempt in (0, 1):
            reused = self._connection is not None
            try:
                connection = self._connect()
                connection.request(method, path, body=encoded, headers=headers)
                response = connection.getresponse()
                data = response.read()
            except (http.client.HTTPException, ConnectionError, OSError):
                # a *reused* keep-alive connection may have gone stale while
                # idle: reconnect once; fresh-connection failures are real
                self.close()
                if attempt or not reused:
                    raise
                continue
            payload = data.decode("utf-8") if raw else json.loads(data or b"{}")
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, payload, response_headers
        raise AssertionError("unreachable")

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.connect_timeout
            )
            connection.connect()
            if connection.sock is not None:
                # established: switch to the (usually longer) request timeout
                connection.sock.settimeout(self.timeout)
            self._connection = connection
        return self._connection
