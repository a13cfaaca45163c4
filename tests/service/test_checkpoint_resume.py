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

import os
import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.campaign.records import RunRecord
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.backends import DispatchBackend, PoolBackend
from repro.service.checkpoint import run_checkpointed
from repro.service.journal import CheckpointJournal
from repro.service.manifest import record_digest

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


#: ``record_digest`` of every run of :func:`hidden_sweep` and
#: :func:`star_sweep`, keyed by ``(delta, seed)``: literal, so a change
#: that moves the recovered records and a cold run alike still fails.
PINNED = {
    (50.0, 0): "a2af1f141f450604",
    (50.0, 1): "6b5db2b6dbb2fab2",
    (50.0, 2): "5ce1c546633a8478",
    (100.0, 0): "a19c51629e16c85d",
    (100.0, 1): "7482f2326ec103a7",
    (100.0, 2): "7d204448922917e3",
    (40.0, 0): "1bd76a0ca9389ce4",
    (40.0, 1): "8cd2482e2a96616d",
    (40.0, 2): "14821b687e52f26a",
    (40.0, 3): "06d62db493d89fc5",
    (40.0, 4): "ac6ed38775794343",
    (40.0, 5): "791113a591cf5716",
}


def assert_pinned(sweep, records, message=""):
    """``records`` are the runs of ``sweep`` in expansion order, as pinned."""
    want = [PINNED[(scenario.params["delta"], scenario.seed)] for scenario in sweep]
    assert [record_digest(record) for record in records] == want, message


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
        """Interrupt at seeded-random cuts; resumed output == the pins."""
        sweep = hidden_sweep()
        rng = random.Random(0xC0FFEE)
        cuts = sorted(rng.sample(range(1, sweep.size), 3))
        for cut in cuts:
            merged = interrupt_then_resume(
                sweep, str(tmp_path / f"cut{cut}.jsonl"), cut, {}, {}
            )
            assert_pinned(sweep, merged, f"cut={cut} diverged")

    @pytest.mark.parametrize("resume_jobs", [1, 4])
    def test_resume_across_worker_counts(self, tmp_path, resume_jobs):
        """First attempt serial, resume with jobs=1 vs jobs=4: identical."""
        sweep = hidden_sweep()
        merged = interrupt_then_resume(
            sweep,
            str(tmp_path / "j.jsonl"),
            2,
            {},
            {"jobs": resume_jobs},
        )
        assert_pinned(sweep, merged)

    @pytest.mark.parametrize("resume_batch", [1, 4])
    def test_cut_mid_seed_batch_group(self, tmp_path, resume_batch):
        """Interrupt inside a 4-seed group; resume grouped and not."""
        sweep = star_sweep()
        # batch_seeds=4 groups seeds [0..3] and [4..5]; cut=2 stops inside
        # the first group.
        merged = interrupt_then_resume(
            sweep,
            str(tmp_path / "j.jsonl"),
            2,
            {"batch_seeds": 4},
            {"batch_seeds": resume_batch},
        )
        assert_pinned(sweep, merged)

    def test_cut_mid_reorder_window(self, tmp_path):
        """Interrupt while the affinity reorder buffer holds pending runs.

        With jobs=4 the runner dispatches in affinity order and re-emits in
        expansion order through the reorder buffer; cutting early leaves a
        journal whose completion set is *not* an expansion-order prefix.
        """
        sweep = hidden_sweep()
        merged = interrupt_then_resume(
            sweep,
            str(tmp_path / "j.jsonl"),
            2,
            {"jobs": 4},
            {"jobs": 4},
        )
        assert_pinned(sweep, merged)

    def test_double_interrupt_then_resume(self, tmp_path):
        """Two crashes at different depths before the final resume."""
        sweep = hidden_sweep()
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
        assert_pinned(sweep, [record.to_dict() for record in outcome.records])

    def test_torn_tail_then_resume(self, tmp_path):
        """A crash mid-append (torn final line) resumes to identical output."""
        sweep = hidden_sweep()
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
        assert_pinned(sweep, [record.to_dict() for record in outcome.records])


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
        assert_pinned(sweep, [r.to_dict() for r in outcome.records])

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


class OutOfOrderBackend(DispatchBackend):
    """Journals and reports the pending runs of ``order``, in that order.

    Records come from ``records`` (one dict per expansion index), as fresh
    objects, so a sink can tell a live record (``reported[index]``) from a
    replayed one by identity.  Runs outside ``order`` are left undone and
    listed as quarantined.  With ``threads > 1`` that many threads share
    the runs round-robin and call ``on_record`` concurrently.
    """

    name = "out-of-order"

    def __init__(self, records, order, quarantined, threads=1, seed=0):
        super().__init__()
        self.records = records
        self.order = order
        self.quarantined = list(quarantined)
        self.threads = threads
        self.seed = seed
        self.reported = {}

    def run(self, sweep, indices, journal, on_record=None):
        todo = [index for index in self.order if index in set(indices)]
        journal_lock = threading.Lock()
        start = threading.Barrier(self.threads, timeout=30)
        errors = []

        def report(lane):
            # A seeded pause between journaling and reporting staggers the
            # callbacks, so one thread can find another's record journaled
            # but not yet reported.
            pause = random.Random(self.seed * self.threads + lane)
            try:
                start.wait()
                for index in todo[lane::self.threads]:
                    record = RunRecord.from_dict(self.records[index])
                    with journal_lock:
                        journal.append(index, record)
                    self.reported[index] = record
                    time.sleep(pause.random() * 0.002)
                    on_record(index, record)
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)

        workers = [
            threading.Thread(target=report, args=(lane,))
            for lane in range(self.threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        if errors:
            raise errors[0]


@pytest.fixture(scope="module")
def hidden_records(tmp_path_factory):
    """The records of :func:`hidden_sweep` as dicts, in expansion order."""
    path = str(tmp_path_factory.mktemp("cold") / "j.jsonl")
    outcome = run_checkpointed(hidden_sweep(), path, collect=True)
    return [record.to_dict() for record in outcome.records]


class TestInOrderRelease:
    """Completions 2, 0, 3, 1; index 5 quarantined; index 4 (and in one case
    index 0) journaled before the call."""

    ORDER = (2, 0, 3, 1)

    def release(self, tmp_path, monkeypatch, records, before, threads, seed=0):
        sweep = hidden_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep)
        for index in before:
            journal.append(index, RunRecord.from_dict(records[index]))
        journal.close()
        replays = Counter()
        replay = CheckpointJournal.replay

        def spy(journal, index):
            replays[index] += 1
            return replay(journal, index)

        monkeypatch.setattr(CheckpointJournal, "replay", spy)
        backend = OutOfOrderBackend(records, self.ORDER, [5], threads=threads, seed=seed)
        seen = []

        class Sink:
            def write(self, record):
                time.sleep(0.0005)  # widens the window for a racing callback
                seen.append(record)

        outcome = run_checkpointed(sweep, path, backend=backend, sinks=[Sink()])
        assert (outcome.status, outcome.quarantined) == ("partial", [5])
        want = [PINNED[(scenario.params["delta"], scenario.seed)] for scenario in sweep]
        assert [record_digest(record.to_dict()) for record in seen] == want[:5]
        live = {
            index
            for index, record in enumerate(seen)
            if record is backend.reported.get(index)
        }
        for index in range(5):
            assert replays[index] == (0 if index in live else 1), (index, live)
        assert set(replays) <= set(range(5))
        return live, replays

    @pytest.mark.parametrize(
        "before, live", [((4,), {0, 1}), ((0, 4), {1})], ids=["tail", "prefix"]
    )
    def test_sinks_see_expansion_order_and_replays_only_what_waited(
        self, tmp_path, monkeypatch, hidden_records, before, live
    ):
        got_live, replays = self.release(
            tmp_path, monkeypatch, hidden_records, before, threads=1
        )
        assert got_live == live
        assert sorted(replays) == sorted(set(range(5)) - live)

    def test_concurrent_callbacks(self, tmp_path, monkeypatch, hidden_records):
        """More reporting threads than cores, switching as often as possible."""
        threads = max(len(self.ORDER), (os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(20):
                workdir = tmp_path / str(attempt)
                workdir.mkdir()
                live, _replays = self.release(
                    workdir, monkeypatch, hidden_records, (4,), threads, seed=attempt
                )
                assert 4 not in live
                monkeypatch.undo()
        finally:
            sys.setswitchinterval(interval)
