"""Thin client SDK for the embedding service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over a persistent HTTP/1.1 connection
(stdlib ``http.client`` — keep-alive matters for the load-generator
benchmark, where a fresh TCP handshake per request would dominate).  One
client holds one connection, so share clients across requests but not
across threads; the load generator gives each worker thread its own.

Retries are the client's half of the service's recovery plane: transport
errors (dropped keep-alive, refused connection) and HTTP 503 shed
responses are retried under one capped-exponential-backoff policy
(:class:`~repro.utils.backoff.BackoffPolicy` — full jitter, honouring the
server's ``Retry-After`` when it is longer), and a small circuit breaker
(:class:`~repro.utils.backoff.CircuitBreaker`) stops hammering a down
service: after ``failure_threshold`` consecutive request failures the
breaker opens and calls fail fast with
:class:`~repro.utils.backoff.CircuitOpenError` until a reset timeout lets
one probe through.  Requests are safe to retry by construction — every op
is a pure computation.

>>> from repro.service import ServiceClient
>>> client = ServiceClient("http://127.0.0.1:8642")
>>> client.embed("torus:4,6", "mesh:2,2,2,3")["record"]["dilation"]
1
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from typing import Dict, Optional

from ..utils.backoff import BackoffPolicy, CircuitBreaker
from .server import DEFAULT_PORT

__all__ = ["DEFAULT_RETRY", "ServiceClient", "ServiceError"]

#: The client's default retry policy: three attempts, 50 ms → 800 ms
#: full-jitter backoff.  Status 503 and transport errors retry; anything
#: else surfaces immediately.
DEFAULT_RETRY = BackoffPolicy(
    max_attempts=3, base_delay=0.05, max_delay=0.8, factor=4.0, jitter=1.0
)


class ServiceError(RuntimeError):
    """A request the service refused or failed; carries the response payload."""

    def __init__(self, message: str, status: int = 0, payload: Optional[Dict] = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceClient:
    """A blocking JSON client bound to one service URL.

    ``retry`` (a :class:`~repro.utils.backoff.BackoffPolicy`) governs both
    transparent request retries and :meth:`wait_until_ready` pacing;
    ``breaker`` (a :class:`~repro.utils.backoff.CircuitBreaker`, or ``None``
    to disable) guards the request verbs — liveness probes bypass it, so a
    client can still :meth:`wait_until_ready` through an open circuit.
    """

    def __init__(
        self,
        url: str = f"http://127.0.0.1:{DEFAULT_PORT}",
        timeout: float = 60.0,
        retry: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// service URLs are supported, got {url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or DEFAULT_PORT
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retries = 0  # transparent retries performed (observability)
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request_once(
        self, method: str, path: str, payload: Optional[bytes]
    ) -> Dict:
        """One attempt on the persistent connection; raises on any failure."""
        if self._connection is None:
            # HTTPConnection.connect() sets TCP_NODELAY itself (Python 3.5+),
            # so the request's header and body writes never wait on an ACK.
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._connection.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = self._connection.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            # The connection is in an unknown state; never reuse it.
            self.close()
            raise
        try:
            document = json.loads(data)
        except ValueError as error:
            raise ServiceError(
                f"non-JSON response from {self.host}:{self.port}: {error}",
                status=response.status,
            ) from error
        if response.status >= 400 or not document.get("ok", False):
            retry_after = response.headers.get("Retry-After")
            if retry_after is not None:
                document = dict(document, retry_after=retry_after)
            raise ServiceError(
                document.get("error", f"HTTP {response.status}"),
                status=response.status,
                payload=document,
            )
        return document

    @staticmethod
    def _retryable(error: Exception) -> bool:
        if isinstance(error, ServiceError):
            return error.status == 503  # shed/draining: explicitly retry-later
        return isinstance(error, (http.client.HTTPException, OSError))

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        *,
        use_breaker: bool = True,
    ) -> Dict:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        breaker = self.breaker if use_breaker else None
        if breaker is not None:
            breaker.before_call()
        attempt = 0
        while True:
            try:
                document = self._request_once(method, path, payload)
            except Exception as error:  # noqa: BLE001 - classified below
                if attempt + 1 >= self.retry.max_attempts or not self._retryable(
                    error
                ):
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                delay = self.retry.delay(attempt)
                if isinstance(error, ServiceError):
                    hinted = error.payload.get("retry_after")
                    try:
                        delay = max(delay, float(hinted))
                    except (TypeError, ValueError):
                        pass
                time.sleep(delay)
                attempt += 1
                self.retries += 1
                continue
            if breaker is not None:
                breaker.record_success()
            return document

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def invoke(self, payload: Dict) -> Dict:
        """POST an explicit-``op`` request dict; returns the response document."""
        return self._request("POST", "/invoke", payload)

    def embed(self, guest: str, host: str, *, congestion: bool = False) -> Dict:
        """Embed-and-measure a pair; returns ``{"record": ..., "meta": ...}``."""
        return self._request(
            "POST", "/embed", {"guest": guest, "host": host, "congestion": congestion}
        )

    def simulate(
        self,
        guest: str,
        host: str,
        *,
        strategy: str = "paper",
        traffic: str = "neighbor-exchange",
    ) -> Dict:
        """Simulate one traffic phase; returns ``{"record": ..., "meta": ...}``."""
        return self._request(
            "POST",
            "/simulate",
            {"guest": guest, "host": host, "strategy": strategy, "traffic": traffic},
        )

    def stats(self) -> Dict:
        """The server's ``GET /stats`` counters."""
        return self._request("GET", "/stats")["stats"]

    def health(self) -> Dict:
        return self._request("GET", "/health", use_breaker=False)

    def wait_until_ready(self, timeout: float = 10.0) -> None:
        """Poll ``/health`` under backoff until the daemon answers.

        One overall ``timeout`` bounds the whole wait — probe time *and*
        sleeps — rather than resetting per attempt; probes are paced by the
        client's backoff policy (50 ms ramping up, not a fixed-interval
        busy poll), each probe's socket timeout is capped to the time
        remaining, and the last probe's error is re-raised on expiry.
        """
        deadline = time.monotonic() + timeout
        attempt = 0
        saved_timeout = self.timeout
        try:
            while True:
                remaining = deadline - time.monotonic()
                try:
                    # Cap the socket timeout so one hung probe cannot
                    # overshoot the overall deadline; probe with a single
                    # attempt (the loop, not _request, owns the retrying).
                    self.timeout = max(0.05, min(saved_timeout, remaining))
                    self.close()
                    self._request_once("GET", "/health", None)
                    return
                except (ServiceError, OSError, socket.timeout):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise
                    time.sleep(min(self.retry.delay(attempt), remaining))
                    attempt += 1
        finally:
            self.timeout = saved_timeout
            self.close()
