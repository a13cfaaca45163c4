"""Campaign service front end: concurrent submissions, live stats, errors.

The server under test is the real threaded HTTP stack on an ephemeral
port; the clients are real :class:`ServiceClient` instances over HTTP
from the test thread.  A throttled backend keeps tiny campaigns
observably "mid-flight" so the live-aggregate assertions are
deterministic.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.frame import TableAggregator
from repro.campaign.runner import CampaignRunner, execute_scenario
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service import server as server_module
from repro.service.backends import DispatchBackend
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import CheckpointJournal
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
    host, port = server.start()
    try:
        yield ServiceClient(host, port), service
    finally:
        service.close()
        server.stop()


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
        # The final aggregates cover the whole campaign, not just new runs.
        assert snap["metrics"]["pdr"]["n"] == sweep.size

    def test_resumed_job_never_finishes_with_empty_metrics(self, tmp_path, monkeypatch):
        """The terminal state is published only after the journal replay.

        A slow read of the journaled prefix widens the window in which a
        poller could see a finished job whose aggregates are still empty.
        """
        iter_completed = CheckpointJournal.iter_completed

        def slow_iter_completed(self):
            time.sleep(0.5)
            yield from iter_completed(self)

        monkeypatch.setattr(CheckpointJournal, "iter_completed", slow_iter_completed)
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

    def test_final_stats_follow_expansion_order(self, tmp_path, monkeypatch):
        """A job's final aggregates do not depend on its completion order.

        ``StreamingStats`` depends on the order of its inputs, so the final
        table must be fed in expansion order even when the backend
        completes the runs last to first.
        """

        class ReversedBackend(DispatchBackend):
            name = "reversed"

            def run(self, sweep, indices, journal, on_record=None):
                scenarios = sweep.scenarios()
                for index in reversed(list(indices)):
                    record = execute_scenario(scenarios[index])
                    journal.append(index, record)
                    if on_record is not None:
                        on_record(index, record)

        monkeypatch.setattr(
            server_module, "make_supervised", lambda *args, **kwargs: ReversedBackend()
        )
        service = CampaignService(str(tmp_path / "root"))
        try:
            sweep = make_sweep(range(8))
            job_id = service.submit(sweep.to_dict())["job"]
            assert service.wait_idle(timeout=120)
            (snap,) = service.status(job_id)
        finally:
            service.close()
        assert snap["state"] == "done"
        table = TableAggregator(by=())
        with CheckpointJournal.open(snap["journal"]) as journal:
            for _index, record in journal.iter_completed():
                table.write(record)
        expected = {}
        for name in table.metric_names():
            stats = table.groups(name)[()]
            expected[name] = {key: stats[key] for key in ("n", "mean", "ci95")}
        assert snap["metrics"] == expected


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
