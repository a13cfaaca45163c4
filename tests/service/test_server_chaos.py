"""Service front end under faults: cancellation, partial jobs, dropped HTTP.

Same live-server harness as ``test_server.py`` (real threaded HTTP stack
on an ephemeral port, real HTTP clients), pointed at the failure paths: the
``DELETE /job/<id>`` route, supervised jobs that end ``partial`` with
quarantine counts and supervision events in their snapshots, and the
chaos harness's ``drop-http`` fault severing a connection mid-request.
"""

from __future__ import annotations

import http.client
import time

import pytest

from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.client import ServiceClient, ServiceError
from repro.service.faults import FaultPlan
from repro.service.server import CampaignServer, CampaignService

FIXED = {
    "packets_per_node": 2,
    "warmup": 0.2,
    "drain_time": 0.1,
    "management_period": 0.5,
}


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def make_sweep(seeds, delta=50.0):
    return Sweep(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [delta]},
        fixed=FIXED,
        seeds=list(seeds),
    )


def serve(tmp_path, backend_options=None, fault_plan=None):
    """Context-manager-free variant of test_server's fixture so each test
    can pick its own backend options and server fault plan."""
    service = CampaignService(
        str(tmp_path / "root"),
        backend_options=backend_options or {"throttle": 0.05},
    )
    server = CampaignServer(service, fault_plan=fault_plan)
    host, port = server.start()

    def shutdown():
        service.close()
        server.stop()

    return ServiceClient(host, port), service, shutdown


class TestCancellation:
    def test_cancel_running_job(self, tmp_path):
        client, _service, shutdown = serve(
            tmp_path, backend_options={"throttle": 0.3, "backoff_base": 0.0}
        )
        try:
            ack = client.submit(make_sweep(range(8)).to_dict())
            # Wait until it is actually running, then cancel over HTTP.
            deadline = 50
            while client.status(ack["job"])[0]["state"] == "queued" and deadline:
                deadline -= 1
                time.sleep(0.1)
            snapshot = client.cancel(ack["job"])
            assert snapshot["state"] in ("running", "cancelled", "done")
            final = client.wait(ack["job"], timeout=60)
            assert final["state"] in ("cancelled", "done")
        finally:
            shutdown()

    def test_cancelled_job_resumes_on_resubmit(self, tmp_path):
        client, _service, shutdown = serve(
            tmp_path, backend_options={"throttle": 0.3, "backoff_base": 0.0}
        )
        try:
            sweep = make_sweep(range(8))
            ack = client.submit(sweep.to_dict())
            while client.status(ack["job"])[0]["state"] == "queued":
                time.sleep(0.05)
            client.cancel(ack["job"])
            first = client.wait(ack["job"], timeout=60)
            # Resubmitting the same spec resumes its journal and finishes.
            ack2 = client.submit(sweep.to_dict(), options={"throttle": 0.0})
            final = client.wait(ack2["job"], timeout=120)
            assert final["state"] == "done"
            assert final["completed"] == sweep.size
            if first["state"] == "cancelled":
                assert first["completed"] < sweep.size
        finally:
            shutdown()

    def test_cancel_unknown_job_is_404(self, tmp_path):
        client, _service, shutdown = serve(tmp_path)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.cancel("job-99")
            assert excinfo.value.status == 404
        finally:
            shutdown()


class TestPartialJobs:
    def test_poisoned_job_ends_partial_with_quarantine_count(self, tmp_path):
        client, _service, shutdown = serve(
            tmp_path,
            backend_options={
                "backoff_base": 0.0,
                "max_attempts": 2,
                "faults": "poison@seed=1",
            },
        )
        try:
            ack = client.submit(make_sweep([0, 1, 2]).to_dict())
            snapshot = client.wait(ack["job"], timeout=120)
            assert snapshot["state"] == "partial"
            assert snapshot["quarantined"] == 1
            assert snapshot["completed"] == 2
            kinds = [event["kind"] for event in snapshot["events"]]
            assert "quarantine" in kinds
        finally:
            shutdown()


class TestDropHttp:
    def test_dropped_connection_surfaces_without_retry(self, tmp_path):
        plan = FaultPlan.from_spec("drop-http")
        client, _service, shutdown = serve(tmp_path, fault_plan=plan)
        fail_fast = ServiceClient(client.host, client.port, retries=1)
        try:
            # With retries disabled the dropped connection surfaces as a
            # transient network error (exactly once) …
            with pytest.raises((ServiceError, ConnectionError, OSError,
                                http.client.HTTPException)):
                fail_fast.health()
            # … and the very next request succeeds: clients see a clean
            # error, never a half-written response.
            assert fail_fast.health()["ok"] is True
        finally:
            shutdown()

    def test_default_client_retries_through_drop(self, tmp_path):
        plan = FaultPlan.from_spec("drop-http")
        client, _service, shutdown = serve(tmp_path, fault_plan=plan)
        try:
            # The default client's bounded retry absorbs the one dropped
            # connection — a wait/status poll loop survives a server blip.
            assert client.health()["ok"] is True
        finally:
            shutdown()
