"""Packaging smoke tests: entry points, project metadata and import graph."""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_python_m_repro_cli_help_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--help"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert result.returncode == 0
    assert "qma-repro" in result.stdout
    assert "sweep" in result.stdout


def test_pyproject_declares_console_entry_point():
    pyproject = REPO_ROOT / "pyproject.toml"
    assert pyproject.is_file()
    text = pyproject.read_text(encoding="utf-8")
    assert 'qma-repro = "repro.cli:main"' in text
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return
    data = tomllib.loads(text)
    assert data["project"]["name"] == "qma-repro"
    assert data["project"]["scripts"]["qma-repro"] == "repro.cli:main"
    assert data["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]


@pytest.mark.parametrize(
    "path", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_example_imports(path):
    """Every example imports cleanly, so removing a public name it uses
    fails here; its ``__main__`` guard keeps ``main()`` from running."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


#: Modules a process that only builds, runs and checkpoints simulations never
#: uses: numpy (the Fig. 26 Markov chain and the RNG substreams import it
#: where they need it), the asyncio/HTTP/TLS stack of
#: the server, client and cross-host dispatch, and ``concurrent.futures``
#: (it imports ``logging``), which the runner imports where it creates a pool.
COLD_START_FORBIDDEN = (
    "numpy",
    "concurrent.futures",
    "asyncio",
    "http.client",
    "ssl",
    "repro.service.server",
    "repro.service.client",
    "repro.service.remote",
    "repro.service.agent",
    "repro.analysis.markov",
)


def _loaded_after_import(statement: str, names) -> list:
    """Which of ``names`` a fresh interpreter has loaded after ``statement``."""
    probe = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps(sorted(n for n in {list(names)!r} if n in sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.campaign.runner, repro.service.checkpoint, repro.service.supervisor",
        "import repro.cli",
        "import repro.service.shard_worker",
        # A supervised checkpointed sweep, as `sweep --checkpoint` runs it:
        # building its fallback tiers must not load the remote backend.
        "import os, tempfile\n"
        "from repro.campaign.spec import Sweep\n"
        "from repro.service.checkpoint import run_checkpointed\n"
        "from repro.service.supervisor import make_supervised\n"
        "sweep = Sweep(experiment='hidden-node', macs=['unslotted-csma'],\n"
        "              fixed={'packets_per_node': 1, 'warmup': 0.1}, seeds=[0])\n"
        "backend = make_supervised({'jobs': 1})\n"
        "with tempfile.TemporaryDirectory() as root:\n"
        "    run_checkpointed(sweep, os.path.join(root, 'j.jsonl'), backend=backend)\n"
        "backend.close()",
    ],
    ids=["serial-sweep", "cli", "shard-worker", "checkpointed-sweep"],
)
def test_entry_points_do_not_import_unused_layers(statement):
    assert _loaded_after_import(statement, COLD_START_FORBIDDEN) == []


def test_agent_does_not_import_the_campaign_stack():
    """The agent only spawns shard workers; the runner stack stays out.

    It does load ``http.client`` (``http.server`` imports it), so the
    service client module stands in for the client side.
    """
    forbidden = [
        "numpy",
        "asyncio",
        "repro.service.client",
        "repro.service.backends",
        "repro.campaign.runner",
    ]
    assert _loaded_after_import("import repro.service.agent", forbidden) == []


def test_no_module_imports_asyncio_or_socketserver():
    """The service and the agents share one threaded HTTP stack."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(REPO_ROOT)}: {name}"
                for name in names
                if name.split(".")[0] in ("asyncio", "socketserver")
            ]
    assert offenders == []


def test_seed_groups_do_not_import_numpy():
    """``--batch-seeds`` runs a seed group's lanes one after another."""
    statement = (
        "import repro.campaign.batch_runner\n"
        "from repro.campaign.runner import CampaignRunner\n"
        "from repro.campaign.spec import Sweep\n"
        "sweep = Sweep(experiment='testbed-star', macs=['qma'], seeds=[0, 1],\n"
        "              fixed={'packets_per_node': 1, 'warmup': 0.1, 'max_duration': 0.3})\n"
        "CampaignRunner(batch_seeds=2).run(sweep)"
    )
    assert _loaded_after_import(statement, ["numpy"]) == []
