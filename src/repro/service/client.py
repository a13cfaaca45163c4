"""Blocking ndjson-over-HTTP client for the campaign service.

Speaks through :func:`repro.service.wire.request`, the client half of
the one wire stack — the CLI verbs (``submit``, ``status``) and the CI
smoke test drive the service through this class; tests can also use it
against an in-process :class:`~repro.service.server.CampaignServer`.

Transient transport failures (a dropped connection, a restarting server)
are retried with the supervision layer's exponential backoff before they
surface, so a long ``wait`` loop survives a server blip.  Service-level
errors (:class:`ServiceError`, an HTTP status from a live server) are
never retried — the server answered; retrying would duplicate submits.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.service.wire import ServiceError, request, retry

__all__ = ["ServiceClient", "ServiceError"]


class ServiceClient:
    """One service endpoint; a fresh connection per request (the server
    closes connections after each response).

    ``retries`` bounds transport attempts per request (1 = the old
    fail-fast behaviour).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 30.0,
        retries: int = 3,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = max(1, int(retries))

    # ------------------------------------------------------------- transport
    def _request(self, method: str, target: str, payload: Optional[Mapping[str, Any]] = None) -> List[Dict[str, Any]]:
        return retry(lambda: self._attempt(method, target, payload), self.retries, time.sleep)

    def _attempt(self, method: str, target: str, payload: Optional[Mapping[str, Any]] = None) -> List[Dict[str, Any]]:
        lines = request(self.host, self.port, method, target, payload, timeout=self.timeout)
        return [json.loads(line) for line in lines]

    # ----------------------------------------------------------------- verbs
    def submit(
        self,
        sweep_data: Mapping[str, Any],
        options: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit a sweep spec; returns ``{"job", "digest", "total", "journal"}``."""
        request: Dict[str, Any] = {"sweep": dict(sweep_data)}
        if options:
            request["options"] = dict(options)
        return self._request("POST", "/submit", request)[0]

    def status(self, job: Optional[str] = None) -> List[Dict[str, Any]]:
        """Snapshots of all jobs, or of one job when ``job`` is given."""
        target = f"/status?job={job}" if job is not None else "/status"
        return self._request("GET", target)

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")[0]

    def hosts(self) -> List[Dict[str, Any]]:
        """Remote-dispatch host health rows (empty for local-only services)."""
        return self._request("GET", "/hosts")

    def cancel(self, job: str) -> Dict[str, Any]:
        """Cancel a queued or running job; returns its snapshot."""
        return self._request("DELETE", f"/job/{job}")[0]

    def wait(self, job: str, timeout: float = 120.0, poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its snapshot.

        Terminal states are ``done``, ``partial`` (quarantined runs — check
        the snapshot's ``quarantined`` count) and ``cancelled``.  Raises
        :class:`ServiceError` if the job failed, :class:`TimeoutError` if
        it does not finish in time.
        """
        deadline = time.time() + timeout
        while True:
            snapshot = self.status(job)[0]
            if snapshot["state"] in ("done", "partial", "cancelled"):
                return snapshot
            if snapshot["state"] == "failed":
                raise ServiceError(500, snapshot.get("error") or "job failed")
            if time.time() >= deadline:
                raise TimeoutError(f"job {job} still {snapshot['state']} after {timeout}s")
            time.sleep(poll)
