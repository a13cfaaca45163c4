"""Campaign service front end: concurrent submissions, live stats, errors.

The server under test is the real asyncio stack on an ephemeral port; the
clients are real :class:`ServiceClient` instances over HTTP from the test
thread.  A throttled backend keeps tiny campaigns observably "mid-flight"
so the live-aggregate assertions are deterministic.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import TERMINAL_STATES, CampaignServer, CampaignService

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


@pytest.fixture
def live_server(tmp_path):
    """A running service + server on an ephemeral port; yields a client."""
    service = CampaignService(str(tmp_path / "root"), backend_options={"throttle": 0.05})
    server = CampaignServer(service)
    loop = asyncio.new_event_loop()
    host, port = loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(host, port), service
    finally:
        service.close()
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


class TestSubmission:
    def test_two_concurrent_submissions_both_complete(self, live_server):
        client, _service = live_server
        first = make_sweep([0, 1])
        second = make_sweep([10, 11], delta=100.0)
        # Both submitted before either finishes: the second is accepted
        # while the first is still queued/running.
        ack1 = client.submit(first.to_dict())
        ack2 = client.submit(second.to_dict())
        assert {ack1["job"], ack2["job"]} == {"job-1", "job-2"}
        assert ack1["digest"] != ack2["digest"]
        snap1 = client.wait(ack1["job"], timeout=120)
        snap2 = client.wait(ack2["job"], timeout=120)
        assert snap1["completed"] == snap1["total"] == first.size
        assert snap2["completed"] == snap2["total"] == second.size

    def test_live_stats_mid_campaign(self, live_server):
        """Status mid-flight shows partial progress and running aggregates."""
        client, _service = live_server
        sweep = make_sweep(range(4))
        ack = client.submit(sweep.to_dict())
        observed_partial = None
        for _ in range(600):
            snap = client.status(ack["job"])[0]
            if snap["state"] == "running" and 0 < snap["completed"] < snap["total"]:
                observed_partial = snap
                break
        assert observed_partial is not None, "never caught the campaign mid-flight"
        pdr = observed_partial["metrics"].get("pdr")
        assert pdr is not None
        assert 0 < pdr["n"] == observed_partial["completed"] < sweep.size
        client.wait(ack["job"], timeout=120)

    def test_final_stats_match_cold_run(self, live_server):
        client, _service = live_server
        sweep = make_sweep([0, 1, 2])
        snap = client.wait(client.submit(sweep.to_dict())["job"], timeout=120)
        with CampaignRunner() as runner:
            records = runner.run(sweep).records
        values = [record.metrics["pdr"] for record in records]
        expected_mean = sum(values) / len(values)
        assert snap["metrics"]["pdr"]["n"] == len(values)
        assert snap["metrics"]["pdr"]["mean"] == pytest.approx(expected_mean)

    def test_resubmit_same_spec_resumes_from_journal(self, live_server):
        """Digest-keyed journals: an identical spec is a resume, not a re-run."""
        client, _service = live_server
        sweep = make_sweep([0, 1])
        ack1 = client.submit(sweep.to_dict())
        client.wait(ack1["job"], timeout=120)
        ack2 = client.submit(sweep.to_dict())
        assert ack2["journal"] == ack1["journal"]
        snap = client.wait(ack2["job"], timeout=120)
        assert snap["resumed"] == sweep.size
        assert snap["completed"] == sweep.size
        # Backfilled aggregates cover the whole campaign, not just new runs.
        assert snap["metrics"]["pdr"]["n"] == sweep.size

    def test_resumed_job_never_finishes_with_empty_metrics(self, tmp_path, monkeypatch):
        """The terminal state is published only after the journal backfill.

        A slow backfill widens the window in which a poller could see a
        finished job whose aggregates are still empty.
        """
        backfill = CampaignService._backfill

        def slow_backfill(self, job):
            time.sleep(0.5)
            return backfill(self, job)

        monkeypatch.setattr(CampaignService, "_backfill", slow_backfill)
        service = CampaignService(str(tmp_path / "root"))
        try:
            sweep = make_sweep([0, 1])
            service.submit(sweep.to_dict())
            assert service.wait_idle(timeout=120)
            job_id = service.submit(sweep.to_dict())["job"]
            deadline = time.time() + 120
            while True:
                (snap,) = service.status(job_id)
                if snap["state"] in TERMINAL_STATES:
                    break
                assert time.time() < deadline, "resumed job did not finish"
                time.sleep(0.002)
            assert snap["resumed"] == sweep.size
            assert snap["metrics"], "finished job published with empty metrics"
            assert snap["metrics"]["pdr"]["n"] == sweep.size
        finally:
            service.close()


class TestErrors:
    def test_invalid_sweep_rejected_without_job(self, live_server):
        client, service = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"experiment": "not-a-thing"})
        assert excinfo.value.status == 400
        assert service.status() == []

    def test_invalid_backend_options_rejected(self, live_server):
        client, _service = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.submit(make_sweep([0]).to_dict(), options={"warp": 9})
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, live_server):
        client, _service = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, live_server):
        client, _service = live_server
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_failed_job_reports_error(self, live_server):
        """A campaign that blows up lands in 'failed' with a message, and the
        service keeps serving subsequent jobs."""
        import os

        from repro.service.manifest import sweep_digest

        client, service = live_server
        victim = make_sweep([5, 6])
        # Sabotage: pre-create the victim's journal path as a directory so
        # the journal cannot be opened or created.
        victim_path = os.path.join(
            service.root, f"{sweep_digest(victim)[:12]}.journal.jsonl"
        )
        os.makedirs(victim_path, exist_ok=True)
        ack = client.submit(victim.to_dict())
        with pytest.raises(ServiceError):
            client.wait(ack["job"], timeout=60)
        snap = client.status(ack["job"])[0]
        assert snap["state"] == "failed"
        assert snap["error"]
        # Job isolation: the dispatcher survives and runs the next campaign.
        ack2 = client.submit(make_sweep([0]).to_dict())
        assert client.wait(ack2["job"], timeout=120)["state"] == "done"


class TestHealth:
    def test_health_counts_jobs(self, live_server):
        client, _service = live_server
        assert client.health()["jobs"] == 0
        ack = client.submit(make_sweep([0]).to_dict())
        health = client.health()
        assert health["ok"] is True
        assert health["jobs"] == 1
        client.wait(ack["job"], timeout=120)
