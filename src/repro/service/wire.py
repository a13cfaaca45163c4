"""ndjson over HTTP: the one wire stack of the campaign service and agents.

:class:`NdjsonServer` is a stdlib threaded HTTP server whose subclasses
answer each request in :meth:`~NdjsonServer.route` with a status and an
iterable of JSON objects; the handler writes one ndjson line per object
as it comes and then closes the connection.  Bodies are close-delimited
(HTTP/1.0), so an agent's long journal stream is just a long response.
:func:`request` is the client half: it yields the response lines as they
arrive, and :func:`retry` repeats a request through transport failures.  This module loads ``http.server``, ``http.client`` and ``ssl``;
only the lazily imported transport modules import it.
"""

from __future__ import annotations

import http.client
import http.server
import json
import random
import threading
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple, TypeVar
from urllib.parse import parse_qs, urlsplit

__all__ = ["NdjsonServer", "ServiceError", "TRANSPORT_ERRORS", "request", "retry"]

#: Seconds any socket read or write of a request may stall (the request
#: head and its body alike) before the server drops the connection.
IO_TIMEOUT = 10.0

#: Largest request body a server accepts.
MAX_BODY = 4 * 1024 * 1024

#: What a client sees when the connection, not the peer, failed.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

Answer = Optional[Tuple[int, Iterable[Dict[str, Any]]]]
T = TypeVar("T")


class ServiceError(RuntimeError):
    """The peer answered with an error status; carries its message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Handler(http.server.BaseHTTPRequestHandler):
    # StreamRequestHandler puts this timeout on the socket, so a client
    # that stalls anywhere in its request cannot hold a handler thread.
    timeout = IO_TIMEOUT

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._answer()
        except OSError:
            return  # timed out or went away; the connection just closes

    do_POST = do_DELETE = do_GET

    def _answer(self) -> None:
        parts = urlsplit(self.path)
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        length = self.headers.get("Content-Length", "0")
        if not length.isdigit() or int(length) > MAX_BODY:
            answer: Answer = 400, [{"error": f"bad Content-Length {length!r}"}]
        else:
            body = self.rfile.read(int(length))
            if len(body) < int(length):
                return
            path = parts.path.rstrip("/") or "/"
            answer = self.server.route(self.command, path, query, body)
        if answer is None:
            return
        status, objects = answer
        self.send_response(status)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for obj in objects:
            self.wfile.write(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


class NdjsonServer(http.server.ThreadingHTTPServer):
    """Threaded HTTP server answering every request through :meth:`route`.

    Binds on construction.  Serve in the foreground with
    ``serve_forever()``, or from a daemon thread with :meth:`start` and
    :meth:`stop`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    def route(self, method: str, path: str, query: Dict[str, str], body: bytes) -> Answer:
        """A status and the objects to answer with; ``None`` drops the
        connection unanswered."""
        raise NotImplementedError

    def start(self) -> Tuple[str, int]:
        """Serve from a daemon thread; returns the bound ``(host, port)``."""
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self._thread.start()
        host, port = self.server_address[:2]
        return str(host), int(port)

    def stop(self) -> None:
        if self._thread is not None:
            self.shutdown()
        self.server_close()


def request(
    host: str,
    port: int,
    method: str,
    target: str,
    payload: Optional[Mapping[str, Any]] = None,
    timeout: float = 30.0,
    connect_timeout: Optional[float] = None,
) -> Iterator[bytes]:
    """Send one JSON request; yield the response's ndjson lines as they arrive.

    ``connect_timeout`` (default ``timeout``) bounds connecting and
    sending, ``timeout`` every later read.  A non-200 answer raises
    :class:`ServiceError` with the body's error message; a transport
    failure raises one of :data:`TRANSPORT_ERRORS`.
    """
    connection = http.client.HTTPConnection(host, port, timeout=connect_timeout or timeout)
    try:
        body = None if payload is None else json.dumps(payload, separators=(",", ":")).encode("utf-8")
        connection.request(method, target, body=body, headers={"Content-Type": "application/json"})
        connection.sock.settimeout(timeout)
        response = connection.getresponse()
        if response.status != 200:
            raw = response.read().decode("utf-8", "replace")
            try:
                message = json.loads(raw.splitlines()[0])["error"]
            except (ValueError, IndexError, KeyError, TypeError):
                message = raw
            raise ServiceError(response.status, str(message))
        yield from response
    finally:
        connection.close()


def retry(attempt: Callable[[], T], attempts: int, sleep: Callable[[float], None], seed: int = 0) -> T:
    """Call ``attempt`` until it gets through a transport failure, at most
    ``attempts`` times, sleeping the supervisor's exponential backoff
    between calls; the last failure propagates."""
    from repro.service.supervisor import RetryPolicy

    policy = RetryPolicy(max_attempts=attempts, backoff_base=0.2, backoff_max=2.0)
    rng = random.Random(policy.seed + seed)
    for failed in range(1, attempts):
        try:
            return attempt()
        except TRANSPORT_ERRORS:
            sleep(policy.backoff(failed, rng))
    return attempt()
