"""Kill-and-resume determinism: interrupted campaigns merge bit-identically.

The contract under test is the hard one from the service design: a
campaign that is interrupted at *any* cut point — including mid
seed-batch group and mid affinity-reorder window — and then resumed
(with any worker count, with or without seed batching, even a different
configuration than the first attempt) must produce a merged record set
bit-identical to an uninterrupted run.  Interruptions are injected by a
backend wrapper that raises after a chosen number of completions, which
leaves the journal in exactly the state a ``kill -9`` would (the CI smoke
test covers the literal-kill variant end to end).
"""

from __future__ import annotations

import random

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.backends import PoolBackend
from repro.service.checkpoint import run_checkpointed

#: Short hidden-node runs (cheap, exercises the affinity reorder window
#: because seeds × delta interleave in expansion order).
HIDDEN_FIXED = {
    "packets_per_node": 2,
    "warmup": 0.2,
    "drain_time": 0.1,
    "management_period": 0.5,
}

#: Short testbed-star runs (the seed-batchable experiment).
STAR_FIXED = {"packets_per_node": 2, "warmup": 0.5, "delta": 40.0, "max_duration": 4.0}


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def hidden_sweep():
    return Sweep(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [50.0, 100.0]},
        fixed=HIDDEN_FIXED,
        seeds=[0, 1, 2],
    )


def star_sweep():
    return Sweep(
        experiment="testbed-star",
        macs=["qma"],
        fixed=STAR_FIXED,
        seeds=list(range(6)),
    )


def reference_records(sweep):
    with CampaignRunner() as runner:
        return [record.to_dict() for record in runner.run(sweep).records]


class InterruptingBackend(PoolBackend):
    """Raises ``KeyboardInterrupt`` after ``cut`` records have completed.

    The journal append happens before the interrupt, exactly like a kill
    arriving between two appends: completed work is durable, in-flight
    work is lost.
    """

    def __init__(self, cut: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cut = int(cut)
        self._seen = 0

    def run(self, sweep, indices, journal, on_record=None):
        def counting(index, record):
            self._seen += 1
            if on_record is not None:
                on_record(index, record)
            if self._seen >= self.cut:
                raise KeyboardInterrupt

        super().run(sweep, indices, journal, on_record=counting)


def interrupt_then_resume(sweep, journal_path, cut, first_options, resume_options):
    """Run with an interrupt after ``cut`` records, resume, return records."""
    backend = InterruptingBackend(cut, **first_options)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(sweep, journal_path, backend=backend)
    finally:
        backend.close()
    resume_backend = PoolBackend(**resume_options)
    try:
        outcome = run_checkpointed(
            sweep, journal_path, backend=resume_backend, collect=True
        )
    finally:
        resume_backend.close()
    assert outcome.resumed == cut
    assert outcome.executed == sweep.size - cut
    return [record.to_dict() for record in outcome.records]


class TestResumeBitIdentical:
    def test_randomized_cut_points(self, tmp_path):
        """Interrupt at seeded-random cuts; resumed output == cold output."""
        sweep = hidden_sweep()
        expected = reference_records(sweep)
        rng = random.Random(0xC0FFEE)
        cuts = sorted(rng.sample(range(1, sweep.size), 3))
        for cut in cuts:
            merged = interrupt_then_resume(
                sweep, str(tmp_path / f"cut{cut}.jsonl"), cut, {}, {}
            )
            assert merged == expected, f"cut={cut} diverged"

    @pytest.mark.parametrize("resume_jobs", [1, 4])
    def test_resume_across_worker_counts(self, tmp_path, resume_jobs):
        """First attempt serial, resume with jobs=1 vs jobs=4: identical."""
        sweep = hidden_sweep()
        expected = reference_records(sweep)
        merged = interrupt_then_resume(
            sweep,
            str(tmp_path / "j.jsonl"),
            2,
            {},
            {"jobs": resume_jobs},
        )
        assert merged == expected

    @pytest.mark.parametrize("resume_batch", [1, 4])
    def test_cut_mid_seed_batch_group(self, tmp_path, resume_batch):
        """Interrupt inside a 4-seed lockstep batch; resume batched and not."""
        sweep = star_sweep()
        expected = reference_records(sweep)
        # batch_seeds=4 groups seeds [0..3] and [4..5]; cut=2 stops inside
        # the first lockstep group.
        merged = interrupt_then_resume(
            sweep,
            str(tmp_path / "j.jsonl"),
            2,
            {"batch_seeds": 4},
            {"batch_seeds": resume_batch},
        )
        assert merged == expected

    def test_cut_mid_reorder_window(self, tmp_path):
        """Interrupt while the affinity reorder buffer holds pending runs.

        With jobs=4 the runner dispatches in affinity order and re-emits in
        expansion order through the reorder buffer; cutting early leaves a
        journal whose completion set is *not* an expansion-order prefix.
        """
        sweep = hidden_sweep()
        expected = reference_records(sweep)
        merged = interrupt_then_resume(
            sweep,
            str(tmp_path / "j.jsonl"),
            2,
            {"jobs": 4},
            {"jobs": 4},
        )
        assert merged == expected

    def test_double_interrupt_then_resume(self, tmp_path):
        """Two crashes at different depths before the final resume."""
        sweep = hidden_sweep()
        expected = reference_records(sweep)
        path = str(tmp_path / "j.jsonl")
        for cut in (1, 2):
            backend = InterruptingBackend(cut)
            try:
                with pytest.raises(KeyboardInterrupt):
                    run_checkpointed(sweep, path, backend=backend)
            finally:
                backend.close()
        outcome = run_checkpointed(sweep, path, collect=True)
        assert outcome.resumed == 3  # 1 from the first crash + 2 from the second
        assert [record.to_dict() for record in outcome.records] == expected

    def test_torn_tail_then_resume(self, tmp_path):
        """A crash mid-append (torn final line) resumes to identical output."""
        sweep = hidden_sweep()
        expected = reference_records(sweep)
        path = str(tmp_path / "j.jsonl")
        backend = InterruptingBackend(3)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_checkpointed(sweep, path, backend=backend)
        finally:
            backend.close()
        with open(path, "ab") as handle:
            handle.write(b'{"index": 3, "digest": "abc", "record"')
        with pytest.warns(RuntimeWarning, match="truncated"):
            outcome = run_checkpointed(sweep, path, collect=True)
        assert outcome.resumed == 3
        assert [record.to_dict() for record in outcome.records] == expected


class TestCheckpointOutcome:
    def test_cold_run_counts(self, tmp_path):
        sweep = hidden_sweep()
        outcome = run_checkpointed(sweep, str(tmp_path / "j.jsonl"), collect=True)
        assert (outcome.resumed, outcome.executed) == (0, sweep.size)
        assert outcome.total == sweep.size
        assert len(outcome.records) == sweep.size

    def test_noop_resume_executes_nothing(self, tmp_path):
        sweep = hidden_sweep()
        path = str(tmp_path / "j.jsonl")
        run_checkpointed(sweep, path)
        outcome = run_checkpointed(sweep, path, collect=True)
        assert (outcome.resumed, outcome.executed) == (sweep.size, 0)
        assert [r.to_dict() for r in outcome.records] == reference_records(sweep)

    def test_records_not_kept_without_collect(self, tmp_path):
        sweep = hidden_sweep()
        outcome = run_checkpointed(sweep, str(tmp_path / "j.jsonl"))
        assert outcome.records is None

    def test_sinks_see_expansion_order(self, tmp_path):
        """Sinks receive the merged records in expansion order and get closed."""
        sweep = hidden_sweep()

        class Probe:
            def __init__(self):
                self.seeds = []
                self.closed = False

            def write(self, record):
                self.seeds.append((record.scenario.params["delta"], record.scenario.seed))

            def close(self):
                self.closed = True

        probe = Probe()
        run_checkpointed(sweep, str(tmp_path / "j.jsonl"), sinks=[probe])
        expected = [
            (scenario.params["delta"], scenario.seed) for scenario in sweep
        ]
        assert probe.seeds == expected
        assert probe.closed
