"""Checkpoint journal: crash-safe append, torn-tail tolerance, replay.

A crash mid-append (simulated at *every* byte offset of the final record
line) never corrupts the journal: the torn tail is discarded on open and
exactly that run becomes pending again.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.campaign.records import RunRecord
from repro.campaign.spec import Scenario, Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.checkpoint import run_checkpointed
from repro.service.journal import (
    CheckpointJournal,
    JournalError,
    SweepMismatchError,
)
from repro.service.manifest import sweep_digest

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


def make_sweep(**overrides):
    spec = dict(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [50.0, 100.0]},
        fixed=FIXED,
        seeds=[0, 1, 2],
    )
    spec.update(overrides)
    return Sweep(**spec)


def run_full(path):
    outcome = run_checkpointed(make_sweep(), str(path), collect=True)
    assert outcome.status == "complete"
    return [record.to_dict() for record in outcome.records]


def make_record(index: int) -> RunRecord:
    return RunRecord(
        scenario=Scenario(
            experiment="hidden-node",
            mac="unslotted-csma",
            seed=index,
            params={"delta": 50.0},
        ),
        metrics={"pdr": 0.5 + index / 100.0, "average_delay": 0.01 * index},
    )


class TestLifecycle:
    def test_create_then_open_roundtrip(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep, meta={"who": "test"})
        journal.append(0, make_record(0))
        journal.append(2, make_record(2))
        journal.close()

        reopened = CheckpointJournal.open(path, sweep=sweep)
        assert reopened.spec_digest == sweep_digest(sweep)
        assert reopened.total == sweep.size
        assert reopened.meta == {"who": "test"}
        assert reopened.completed_indices() == {0, 2}
        assert reopened.pending_indices() == [1, 3, 4, 5]
        assert 0 in reopened and 1 not in reopened
        assert len(reopened) == 2
        reopened.close()

    def test_header_sweep_reconstruction(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.create(path, sweep).close()
        reopened = CheckpointJournal.open(path)
        assert sweep_digest(reopened.sweep) == sweep_digest(sweep)
        assert reopened.sweep.size == sweep.size
        reopened.close()

    def test_open_or_create(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        first = CheckpointJournal.open_or_create(path, sweep)
        first.append(1, make_record(1))
        first.close()
        second = CheckpointJournal.open_or_create(path, sweep)
        assert second.completed_indices() == {1}
        second.close()

    def test_context_manager_closes(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.create(path, sweep) as journal:
            journal.append(0, make_record(0))
        assert CheckpointJournal.open(path).completed_indices() == {0}


class TestReplay:
    def test_replay_returns_identical_record(self, tmp_path):
        sweep = make_sweep()
        journal = CheckpointJournal.create(str(tmp_path / "j.jsonl"), sweep)
        record = make_record(3)
        journal.append(3, record)
        replayed = journal.replay(3)
        assert replayed.to_dict() == record.to_dict()
        journal.close()

    def test_replay_after_reopen(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep)
        for index in (5, 0, 3):  # out of expansion order, as shard merges do
            journal.append(index, make_record(index))
        journal.close()
        reopened = CheckpointJournal.open(path)
        assert [i for i, _ in reopened.iter_completed()] == [0, 3, 5]
        assert reopened.replay(5).scenario.seed == 5
        reopened.close()

    def test_replay_missing_index(self, tmp_path):
        journal = CheckpointJournal.create(str(tmp_path / "j.jsonl"), make_sweep())
        with pytest.raises(KeyError):
            journal.replay(1)
        journal.close()

    def test_replay_detects_tampering(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep)
        journal.append(0, make_record(0))
        journal.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        doctored = json.loads(lines[1])
        doctored["record"]["metrics"]["pdr"] = 0.99  # digest now stale
        with open(path, "wb") as handle:
            handle.write(lines[0])
            handle.write((json.dumps(doctored, sort_keys=True) + "\n").encode())
        reopened = CheckpointJournal.open(path)
        with pytest.raises(JournalError, match="digest mismatch"):
            reopened.replay(0)
        reopened.close()

    def test_append_out_of_range(self, tmp_path):
        journal = CheckpointJournal.create(str(tmp_path / "j.jsonl"), make_sweep())
        with pytest.raises(ValueError):
            journal.append(journal.total, make_record(0))
        journal.close()


class TestCrashTolerance:
    def test_torn_tail_discarded_with_warning(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep)
        journal.append(0, make_record(0))
        journal.append(1, make_record(1))
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"index": 2, "digest": "dead')  # crash mid-write
        with pytest.warns(RuntimeWarning, match="truncated"):
            reopened = CheckpointJournal.open(path, sweep=sweep)
        assert reopened.completed_indices() == {0, 1}
        assert 2 in reopened.pending_indices()
        reopened.close()

    def test_resume_after_torn_tail_appends_cleanly(self, tmp_path):
        """The torn bytes stay in the file; new appends and replay must not trip."""
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep)
        journal.append(0, make_record(0))
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"index": 1, "rec')
        with pytest.warns(RuntimeWarning):
            reopened = CheckpointJournal.open(path, sweep=sweep)
        # The torn fragment has no trailing newline: appends must start a
        # fresh line or the next record would be glued onto the fragment.
        reopened.append(1, make_record(1))
        assert reopened.replay(1).to_dict() == make_record(1).to_dict()
        reopened.close()
        final = CheckpointJournal.open(path, sweep=sweep)
        assert 1 in final.completed_indices()
        final.close()

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.create(path, sweep)
        journal.append(0, make_record(0))
        journal.append(1, make_record(1))
        journal.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(lines[0])
            handle.write(b"garbage not json\n")
            handle.write(lines[2])
        with pytest.raises(JournalError, match="corrupt"):
            CheckpointJournal.open(path)

    def test_missing_header_is_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"index": 0, "digest": "x", "record": {}}\n')
        with pytest.raises(JournalError, match="header"):
            CheckpointJournal.open(path)

    def test_unsupported_version_is_fatal(self, tmp_path):
        sweep = make_sweep()
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.create(path, sweep).close()
        data = json.loads(open(path).read())
        data["checkpoint"]["version"] = 99
        with open(path, "w") as handle:
            handle.write(json.dumps(data) + "\n")
        with pytest.raises(JournalError, match="version"):
            CheckpointJournal.open(path)

    def test_out_of_range_completion_is_fatal(self, tmp_path):
        """open rejects a completion index that append would have refused."""
        sweep = make_sweep()
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.create(str(path), sweep)
        journal.append(0, make_record(0))
        journal.append(1, make_record(1))
        journal.close()
        raw = path.read_bytes()
        last_line = raw[raw.rindex(b"\n", 0, -1) + 1:]
        # A digest-valid completion relabelled past the sweep's end.
        relabelled = last_line.replace(b'"index":1,', b'"index":7,')
        assert relabelled != last_line and sweep.size == 6
        path.write_bytes(raw + relabelled)
        with pytest.raises(JournalError, match=f"at byte {len(raw)} .*index 7"):
            CheckpointJournal.open(str(path))

    def test_negative_completion_index_is_fatal(self, tmp_path):
        """A negative index is out of range too, not a Python-style alias."""
        sweep = make_sweep()
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.create(str(path), sweep)
        journal.append(0, make_record(0))
        journal.close()
        raw = path.read_bytes()
        last_line = raw[raw.rindex(b"\n", 0, -1) + 1:]
        relabelled = last_line.replace(b'"index":0,', b'"index":-1,')
        assert relabelled != last_line
        path.write_bytes(raw + relabelled)
        with pytest.raises(JournalError, match=f"at byte {len(raw)} .*index -1"):
            CheckpointJournal.open(str(path))

    def test_compacted_journal_is_refused_untouched(self, tmp_path):
        """A journal compacted by an older version is refused, byte-identical."""
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.create(str(path), make_sweep())
        journal.append(2, make_record(2))
        journal.close()
        sealed = {"kind": "sealed", "segment": "sealed-part-0", "lo": 0, "hi": 2}
        with open(path, "ab") as handle:
            handle.write((json.dumps({"event": sealed}) + "\n").encode())
        before = path.read_bytes()
        with pytest.raises(JournalError) as excinfo:
            CheckpointJournal.open(str(path))
        message = str(excinfo.value)
        assert str(path) in message
        assert "compaction was removed" in message
        assert "fresh journal" in message
        assert path.read_bytes() == before


class TestSweepMismatch:
    def test_open_refuses_other_sweep(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.create(path, make_sweep()).close()
        with pytest.raises(SweepMismatchError):
            CheckpointJournal.open(path, sweep=make_sweep(seeds=[0]))

    def test_open_or_create_refuses_other_sweep(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.create(path, make_sweep()).close()
        with pytest.raises(SweepMismatchError):
            CheckpointJournal.open_or_create(path, make_sweep(seeds=[0]))


class TestTornWriteFuzz:
    def test_every_byte_offset_of_the_final_record(self, tmp_path):
        """Simulate a crash at every possible cut point of the last append."""
        path = tmp_path / "full.jsonl"
        baseline = run_full(path)
        raw = path.read_bytes()
        # The final *completion* line, newline included (the very last
        # line of a finished journal is its status event — a crash mid
        # final append happens before that event exists).
        line_start = raw.rfind(b'\n{"digest"') + 1
        line_end = raw.index(b"\n", line_start) + 1
        raw = raw[:line_end]
        final_line = raw[line_start:]
        assert len(final_line) > 100

        torn = tmp_path / "torn.jsonl"
        for cut in range(len(final_line)):
            torn.write_bytes(raw[: line_start + cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                journal = CheckpointJournal.open(str(torn))
            try:
                # However the line is torn, exactly the final run is lost.
                assert journal.pending_indices() == [5], f"cut at byte {cut}"
                assert len(list(journal.iter_completed())) == 5
            finally:
                journal.close()

        # Full recovery drill at representative cut points: nothing cut,
        # one byte written, torn mid-record, newline lost.
        for cut in (0, 1, len(final_line) // 2, len(final_line) - 1):
            torn.write_bytes(raw[: line_start + cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                outcome = run_checkpointed(make_sweep(), str(torn), collect=True)
            assert outcome.status == "complete"
            assert outcome.resumed == 5 and outcome.executed == 1
            assert [record.to_dict() for record in outcome.records] == baseline

    def test_torn_event_line_is_discarded_too(self, tmp_path):
        path = tmp_path / "full.jsonl"
        run_full(path)
        with open(path, "ab") as handle:
            handle.write(b'{"event": {"kind": "comp')  # torn, no newline
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            journal = CheckpointJournal.open(str(path))
        try:
            assert journal.pending_indices() == []
            assert len(list(journal.iter_completed())) == 6
        finally:
            journal.close()
