"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_table4_command_prints_reward_table(capsys):
    assert main(["table4"]) == 0
    output = capsys.readouterr().out
    assert "B S B" in output
    assert "8" in output


def test_list_command_prints_registries(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for mac in ("qma", "slotted-csma", "unslotted-csma", "slotted-aloha", "aloha-q", "tdma"):
        assert mac in output
    for model in ("unit-disk", "log-distance", "fading"):
        assert model in output
    # Config defaults are shown for MACs and propagation models.
    assert "num_subslots=54" in output
    assert "slots_per_frame=10" in output
    assert "shadowing_sigma_db=4.0" in output
    assert "communication_range=60.0" in output
    for topology in ("hidden-node", "iotlab-tree", "iotlab-star", "concentric"):
        assert topology in output
    # The metric-collector registry is listed with its provided scalars.
    for collector in ("pdr", "delay", "queue", "attempts", "slots", "convergence", "dsme"):
        assert collector in output
    assert "average_queue_level" in output
    assert "secondary_pdr" in output


def test_sweep_command_resolves_mac_and_propagation_grid_axes(capsys):
    assert (
        main(
            [
                "sweep",
                "hidden-node",
                "--grid",
                "mac=qma,tdma",
                "--grid",
                "propagation=unit-disk,fading",
                "--set",
                "packets_per_node=8",
                "--set",
                "warmup=5",
                "--metrics",
                "pdr",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "running 4 scenarios" in output
    assert "tdma" in output
    assert "fading" in output and "unit-disk" in output


def test_sweep_command_rejects_unknown_mac_in_grid():
    with pytest.raises(SystemExit):
        main(["sweep", "hidden-node", "--grid", "mac=not-a-mac"])


def test_sweep_command_resolves_metrics_grid_axis(capsys):
    assert (
        main(
            [
                "sweep",
                "hidden-node",
                "--grid",
                "metrics=pdr,attempts",
                "--set",
                "packets_per_node=8",
                "--set",
                "warmup=5",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "pdr" in output and "transmission_attempts" in output
    assert "average_delay" not in output  # delay collector not selected


def test_sweep_command_rejects_unknown_collector_in_grid():
    with pytest.raises(SystemExit, match="metric collector"):
        main(["sweep", "hidden-node", "--grid", "metrics=not-a-collector"])


def test_sweep_command_rejects_collectors_flag_and_grid_axis_together():
    with pytest.raises(SystemExit, match="not both"):
        main(
            [
                "sweep",
                "hidden-node",
                "--collectors",
                "pdr",
                "--grid",
                "metrics=pdr",
            ]
        )


def test_sweep_command_streams_jsonl(tmp_path, capsys):
    import json as json_module

    path = tmp_path / "records.jsonl"
    assert (
        main(
            [
                "sweep",
                "hidden-node",
                "--grid",
                "metrics=pdr,delay",
                "--set",
                "packets_per_node=8",
                "--set",
                "warmup=5",
                "--seeds",
                "2",
                "--jsonl",
                str(path),
            ]
        )
        == 0
    )
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    # Leading _meta line (effective pool configuration) plus one line per record.
    assert len(lines) == 3
    meta = json_module.loads(lines[0])["_meta"]
    assert meta["pool"] == {
        "jobs": 1, "chunksize": 1, "pool": "serial", "build_cache": True,
        "batch_seeds": 1,
    }
    entry = json_module.loads(lines[1])
    assert entry["scenario"]["metrics"] == ["pdr", "delay"]
    assert "pdr" in entry["metrics"] and "average_delay" in entry["metrics"]
    assert str(path) in capsys.readouterr().out

    from repro.campaign.frame import iter_jsonl

    records = list(iter_jsonl(str(path)))  # _meta line is skipped on read-back
    assert len(records) == 2


def test_sweep_metric_validation_respects_collector_selection():
    # average_delay is not provided by the pdr collector alone.
    with pytest.raises(SystemExit, match="unknown metric"):
        main(
            [
                "sweep",
                "hidden-node",
                "--grid",
                "metrics=pdr",
                "--metrics",
                "average_delay",
            ]
        )


def test_fig26_command_prints_curve(capsys):
    assert main(["fig26", "--probabilities", "0.5", "1.0"]) == 0
    output = capsys.readouterr().out
    assert "3.00" in output


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--probabilities", "0.5", "1.5"], "probability must lie in (0, 1]"),
        (["--probabilities", "0"], "probability must lie in (0, 1]"),
        (["--probabilities", "nan"], "probability must lie in (0, 1]"),
        (["--probabilities", "half"], "expected a probability"),
        (["--retries", "-1"], "must be non-negative"),
    ],
    ids=["above-one", "zero", "nan", "not-a-number", "negative-retries"],
)
def test_fig26_rejects_out_of_range_input_as_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig26", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_fig7_command_small_run(capsys):
    assert (
        main(
            [
                "fig7",
                "--macs",
                "qma",
                "--deltas",
                "10",
                "--packets",
                "15",
                "--warmup",
                "5",
                "--repetitions",
                "1",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "qma" in output
    assert "pdr" in output


def test_sweep_command_prints_aggregated_metrics(capsys):
    assert (
        main(
            [
                "sweep",
                "hidden-node",
                "--macs",
                "qma",
                "--grid",
                "delta=10,25",
                "--set",
                "packets_per_node=15",
                "--set",
                "warmup=5",
                "--seeds",
                "2",
                "--metrics",
                "pdr",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "running 4 scenarios" in output
    assert "pdr" in output
    assert "qma" in output


def test_sweep_command_exports_json_and_csv(tmp_path, capsys):
    json_path = tmp_path / "records.json"
    csv_path = tmp_path / "records.csv"
    assert (
        main(
            [
                "sweep",
                "hidden-node",
                "--macs",
                "qma",
                "--grid",
                "delta=10",
                "--set",
                "packets_per_node=10",
                "--set",
                "warmup=5",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    import csv as csv_module
    import json as json_module

    data = json_module.loads(json_path.read_text())
    assert len(data["records"]) == 1
    assert data["records"][0]["scenario"]["mac"] == "qma"
    assert "pdr" in data["records"][0]["metrics"]
    with open(csv_path, newline="") as handle:
        rows = list(csv_module.DictReader(handle))
    assert len(rows) == 1
    assert 0.0 <= float(rows[0]["pdr"]) <= 1.0
    output = capsys.readouterr().out
    assert str(json_path) in output and str(csv_path) in output


@pytest.mark.parametrize(
    "figure, sweep",
    [
        (
            "fig7 --macs qma unslotted-csma --deltas 10 25 --packets 8 --warmup 2 "
            "--repetitions 2",
            "sweep hidden-node --macs qma unslotted-csma --grid delta=10.0,25.0 "
            "--set packets_per_node=8 --set warmup=2.0 --seeds 2",
        ),
        (
            "testbed star --macs unslotted-csma --packets 4",
            "sweep testbed-star --macs unslotted-csma --set delta=10.0 "
            "--set packets_per_node=4 --seeds 1",
        ),
        (
            "fig21 --macs unslotted-csma --rings 1 --duration 30 --warmup 20",
            "sweep scalability --macs unslotted-csma --grid rings=1 "
            "--set duration=30.0 --set warmup=20.0 --seeds 1",
        ),
    ],
    ids=["fig7", "testbed", "fig21"],
)
def test_figure_export_matches_the_equivalent_sweep(figure, sweep, tmp_path, capsys):
    """A figure command's --json/--csv files equal those of ``sweep`` over
    the same grid and seeds, byte for byte."""
    from repro.campaign.records import load_json

    files = {}
    for label, command in (("figure", figure), ("sweep", sweep)):
        json_path, csv_path = tmp_path / f"{label}.json", tmp_path / f"{label}.csv"
        argv = command.split() + ["--json", str(json_path), "--csv", str(csv_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert f"to {json_path} (json)" in output and f"to {csv_path} (csv)" in output
        files[label] = (json_path.read_text(), csv_path.read_text())
    assert files["figure"] == files["sweep"]
    records = load_json(str(tmp_path / "figure.json")).records
    assert records and len(files["figure"][1].splitlines()) == len(records) + 1


def test_testbed_table_lists_nodes_in_numeric_order(capsys):
    """Per-node rows come from the ``pdr_node_<id>`` metrics, whose names
    sort as strings (``pdr_node_15`` < ``pdr_node_2``); the table must not."""
    assert main(["testbed", "tree", "--macs", "unslotted-csma", "--packets", "5"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    nodes = [row[2] for row in rows if row[0] == "tree"]
    assert nodes[-1] == "overall"
    ids = [int(node) for node in nodes[:-1]]
    assert ids == sorted(ids) and len(ids) > 1
    assert sorted(map(str, ids)) != [str(node) for node in ids]  # string order differs


def test_sweep_command_parallel_jobs(capsys):
    assert (
        main(
            [
                "sweep",
                "scalability",
                "--macs",
                "unslotted-csma",
                "--grid",
                "rings=1",
                "--set",
                "duration=40",
                "--set",
                "warmup=20",
                "--jobs",
                "2",
                "--metrics",
                "secondary_pdr",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "secondary_pdr" in output


def test_sweep_command_rejects_malformed_grid():
    with pytest.raises(SystemExit):
        main(["sweep", "hidden-node", "--grid", "delta"])


def test_sweep_command_chunksize_and_pool_config(tmp_path, capsys):
    import json as json_module

    json_path = tmp_path / "records.json"
    assert (
        main(
            [
                "sweep",
                "hidden-node",
                "--macs",
                "qma",
                "--grid",
                "delta=10",
                "--set",
                "packets_per_node=8",
                "--set",
                "warmup=5",
                "--seeds",
                "4",
                "--jobs",
                "2",
                "--chunksize",
                "2",
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "jobs=2 chunksize=2 pool=persistent" in output
    document = json_module.loads(json_path.read_text())
    assert document["meta"]["pool"] == {
        "jobs": 2, "chunksize": 2, "pool": "persistent", "build_cache": True,
        "batch_seeds": 1,
    }
    assert len(document["records"]) == 4


def test_sweep_command_no_build_cache(tmp_path, capsys):
    """--no-build-cache runs (bit-identical) and is reported in the meta."""
    import json as json_module

    docs = {}
    for flag, label in (((), "on"), (("--no-build-cache",), "off")):
        json_path = tmp_path / f"records-{label}.json"
        args = [
            "sweep", "hidden-node", "--macs", "qma",
            "--grid", "delta=10",
            "--set", "packets_per_node=6", "--set", "warmup=2",
            "--seeds", "2", "--json", str(json_path), *flag,
        ]
        assert main(args) == 0
        docs[label] = json_module.loads(json_path.read_text())
    assert docs["on"]["meta"]["pool"]["build_cache"] is True
    assert docs["off"]["meta"]["pool"]["build_cache"] is False
    assert docs["on"]["records"] == docs["off"]["records"]


def test_sweep_command_rejects_bad_chunksize():
    with pytest.raises(SystemExit):
        main(["sweep", "hidden-node", "--grid", "delta=10", "--chunksize", "0"])
    with pytest.raises(SystemExit):
        main(["sweep", "hidden-node", "--grid", "delta=10", "--chunksize", "soon"])


def test_fig7_accepts_jobs_flag(capsys):
    assert (
        main(
            [
                "fig7",
                "--macs",
                "qma",
                "--deltas",
                "10",
                "--packets",
                "10",
                "--warmup",
                "5",
                "--repetitions",
                "2",
                "--jobs",
                "2",
            ]
        )
        == 0
    )
    assert "pdr" in capsys.readouterr().out


def test_figure_command_exits_with_an_error_when_a_pool_worker_dies(monkeypatch, capsys):
    """Figure commands stream through the sweep's path, so a dead worker
    ends them like ``sweep``: one error line, no traceback."""
    import functools

    from repro import cli
    from repro.service import faults

    plan = faults.FaultPlan.from_spec("crash@seed=0")
    runner = functools.partial(cli.CampaignRunner, fault_plan=plan)
    monkeypatch.setattr(cli, "CampaignRunner", runner)
    argv = [
        "fig7", "--macs", "qma", "--deltas", "10", "--packets", "5", "--warmup", "1",
        "--repetitions", "2", "--jobs", "2",
    ]
    try:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    finally:
        faults.install(None)
    assert str(excinfo.value.code).startswith("qma-repro fig7: error: pool worker")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "testbed star --macs qma --packets 4 --collectors attempts",
            "qma-repro testbed: error: metric 'overall_pdr' missing .* must include pdr",
        ),
        ("fig7 --macs nope --packets 4", "qma-repro fig7: error: unknown MAC kind 'nope'"),
    ],
    ids=["testbed-without-pdr", "fig7-unknown-mac"],
)
def test_figure_commands_reject_bad_input_before_running(argv, message, capsys):
    """``testbed`` prints only the pdr collector's metrics: without it the
    command fails up front instead of printing an empty table."""
    with pytest.raises(SystemExit, match=message):
        main(argv.split())
    assert capsys.readouterr().out == ""


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["does-not-exist"])


def test_parser_has_all_figure_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for command in (
        "table4", "fig7", "fig12", "slots", "testbed", "fig21", "fig26", "sweep", "list",
    ):
        assert command in help_text


def test_sweep_checkpoint_runs_then_resumes(tmp_path, capsys):
    """sweep --checkpoint journals every run; a re-run resumes, not recomputes."""
    journal = str(tmp_path / "campaign.journal.jsonl")
    argv = [
        "sweep", "hidden-node",
        "--macs", "unslotted-csma",
        "--grid", "delta=50,100",
        "--set", "packets_per_node=2",
        "--set", "warmup=0.2",
        "--seeds", "2",
        "--checkpoint", journal,
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "executed 4" in first
    assert "resumed 0" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "resumed 4" in second
    assert "executed 0" in second
    # The aggregate tables of the cold run and the resume are identical.
    assert first.split("resumed 0 completed")[0] != ""
    assert first.splitlines()[-8:] == second.splitlines()[-8:]


def test_sweep_checkpoint_rejects_other_spec(tmp_path):
    journal = str(tmp_path / "campaign.journal.jsonl")
    base = [
        "sweep", "hidden-node", "--macs", "unslotted-csma",
        "--set", "packets_per_node=2", "--set", "warmup=0.2",
        "--checkpoint", journal,
    ]
    assert main(base + ["--seeds", "2"]) == 0
    with pytest.raises(SystemExit, match="refusing to mix campaigns"):
        main(base + ["--seeds", "3"])


def test_resume_command_reads_sweep_from_journal(tmp_path, capsys):
    journal = str(tmp_path / "campaign.journal.jsonl")
    assert main([
        "sweep", "hidden-node", "--macs", "unslotted-csma",
        "--grid", "delta=50",
        "--set", "packets_per_node=2", "--set", "warmup=0.2",
        "--seeds", "2", "--checkpoint", journal,
    ]) == 0
    capsys.readouterr()
    assert main(["resume", journal]) == 0
    output = capsys.readouterr().out
    assert "resuming 0 run(s)" in output
    assert "resumed 2 completed" in output


def test_resume_command_rejects_missing_journal(tmp_path):
    with pytest.raises(SystemExit, match="error"):
        main(["resume", str(tmp_path / "nope.jsonl")])


def test_resume_command_refuses_a_compacted_journal_untouched(tmp_path, capsys):
    journal = tmp_path / "campaign.journal.jsonl"
    assert main([
        "sweep", "hidden-node", "--macs", "unslotted-csma",
        "--grid", "delta=50",
        "--set", "packets_per_node=2", "--set", "warmup=0.2",
        "--seeds", "2", "--checkpoint", str(journal),
    ]) == 0
    capsys.readouterr()
    sealed = '{"event": {"hi": 2, "kind": "sealed", "lo": 0, "segment": "x"}}\n'
    with open(journal, "a") as handle:
        handle.write(sealed)
    before = journal.read_bytes()
    with pytest.raises(SystemExit, match="compaction was removed"):
        main(["resume", str(journal)])
    assert journal.read_bytes() == before


def test_compact_command_is_gone():
    parser = build_parser()
    assert "compact" not in parser.format_help()
    with pytest.raises(SystemExit):
        parser.parse_args(["compact", "campaign.journal.jsonl"])


def test_sweep_checkpoint_retries_after_a_dead_pool_worker(tmp_path, capsys):
    """Without --run-timeout, a crashed pool worker costs one attempt;
    unsupervised, it ends the sweep with an error instead of a hang."""
    argv = [
        "sweep", "hidden-node", "--macs", "unslotted-csma",
        "--grid", "delta=50,100",
        "--set", "packets_per_node=2", "--set", "warmup=0.2",
        "--seeds", "2", "--jobs", "2", "--inject-faults", "crash@seed=1",
    ]
    assert main(argv + ["--checkpoint", str(tmp_path / "a.jsonl")]) == 0
    captured = capsys.readouterr()
    assert "WorkerDied: pool worker" in captured.err
    assert "exited with code 86" in captured.err
    assert "executed 4" in captured.out
    with pytest.raises(SystemExit, match="exited with code 86"):
        main(argv + ["--checkpoint", str(tmp_path / "b.jsonl"), "--no-supervise"])


def test_sweep_with_injected_poison_exits_4_and_retry_quarantined_heals(
    tmp_path, capsys
):
    """The partial-campaign exit contract: poison -> exit 4 -> retry -> 0."""
    journal = str(tmp_path / "campaign.journal.jsonl")
    base = [
        "sweep", "hidden-node", "--macs", "unslotted-csma",
        "--grid", "delta=50",
        "--set", "packets_per_node=2", "--set", "warmup=0.2",
        "--seeds", "2", "--checkpoint", journal,
    ]
    with pytest.raises(SystemExit) as excinfo:
        main(base + ["--inject-faults", "poison@seed=1", "--retries", "2"])
    assert excinfo.value.code == 4
    output = capsys.readouterr()
    assert "PARTIAL" in output.err
    assert "quarantined" in output.err

    assert main(["retry-quarantined", journal]) == 0
    output = capsys.readouterr().out
    assert "campaign complete" in output

    assert main(["retry-quarantined", journal]) == 0
    assert "no quarantined runs" in capsys.readouterr().out


def test_no_supervise_flag_fails_fast_on_poison(tmp_path):
    """--no-supervise restores the pre-supervision abort-on-failure path."""
    journal = str(tmp_path / "campaign.journal.jsonl")
    from repro.service import faults
    from repro.service.faults import InjectedPoisonError

    try:
        with pytest.raises(InjectedPoisonError):
            main([
                "sweep", "hidden-node", "--macs", "unslotted-csma",
                "--grid", "delta=50",
                "--set", "packets_per_node=2", "--set", "warmup=0.2",
                "--seeds", "2", "--checkpoint", journal,
                "--inject-faults", "poison@seed=1", "--no-supervise",
            ])
    finally:
        faults.install(None)


def test_cancel_command_requires_running_service():
    with pytest.raises(SystemExit, match="error"):
        main(["cancel", "job-1", "--port", "1"])
