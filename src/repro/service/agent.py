"""Campaign agent: executes shard jobs, streams journals back.

An agent is the far half of :class:`repro.service.remote.RemoteBackend`:
a small HTTP server (``qma-repro agent``) on the one wire stack,
:class:`repro.service.wire.NdjsonServer`, that accepts shard job
documents, runs each one through the ordinary
:mod:`repro.service.shard_worker` subprocess, and streams the growing
shard journal back to the dispatcher as raw byte chunks.  Agents run on
the hosts that ``--hosts`` names; :func:`spawn_agent` starts one as a
local subprocess.  Importing this module loads only the standard
library, so an agent starts without the campaign stack.
The protocol is two POST routes with a JSON request body each; the
ndjson response of ``/run`` lasts until the shard is done::

    POST /run     {"id": ..., "job": {...}, "offset": N, "stream": SID}
    <- {"hello": {"agent": ..., "id": ..., "stream": SID, "offset": N,
                  "size": ..., "state": "running"|"done"}}
    <- {"chunk": {"offset": N, "data": "<raw journal bytes, latin-1>"}}
    <- {"heartbeat": {"size": N}}
    <- {"done": {"exit": RC, "size": N[, "stderr": "<tail>"]}}

    POST /cancel  {"id": ...}  <- {"cancelled": {"id": ...}}

A refused request answers one ``{"error": {"kind", "message"}}`` line.
Design decisions that make the transport partition-safe:

* **The journal is the state.**  The agent never interprets journal
  lines; it ships file bytes from a requested offset.  A dispatcher that
  reconnects after a dropped link resumes at the byte offset it had
  fully processed — nothing is recomputed and nothing is duplicated
  (the dispatcher's merger deduplicates by run index anyway).
* **Streams are identified.**  Each job gets a random ``stream`` token;
  the hello echoes the authoritative token and start offset.  A
  dispatcher holding an offset from a *different* agent incarnation
  (the agent restarted, the job re-ran from scratch) sees the token
  mismatch and restarts its merge from offset 0 instead of splicing two
  unrelated byte streams.
* **Connections are disposable, jobs are not.**  A broken connection
  stops the streaming loop but leaves the shard worker running; the job
  stays attachable (also after completion) until the agent exits.  A
  job whose worker failed re-runs when a request carries its document
  again (a dispatcher retry): the new worker resumes the shard journal,
  under a new stream token.
* **Heartbeats carry the journal size.**  The dispatcher only counts a
  heartbeat as *progress* when the size grew, so a slow link does not
  false-trip ``run_timeout`` watchdogs while a genuinely hung worker
  still does.  They also bound the gap between two lines of a live
  stream, so the dispatcher checks for cancellation after every line.

Agent-side chaos faults ride in on the job document: ``agent-crash``
kills the whole agent process before a matched shard starts (a dead-box
stand-in), ``slow-link`` stalls chunk delivery while the worker keeps
running (heartbeats still flow).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service.wire import Answer, NdjsonServer

__all__ = ["AgentServer", "CampaignAgent", "serve", "spawn_agent"]

#: Maximum raw journal bytes per ``chunk`` message.
CHUNK_BYTES = 57344

#: Seconds between ``heartbeat`` lines while the journal is not growing.
HEARTBEAT_INTERVAL = 0.5

#: Journal growth / worker liveness poll period.
POLL_INTERVAL = 0.05

#: Lines of worker stderr shipped with a failed job's ``done`` line.
STDERR_TAIL_LINES = 50

Messages = Iterator[Dict[str, Any]]


class _AgentJob:
    """One shard job owned by this agent (worker subprocess + journal)."""

    def __init__(self, job_id: str, jobdir: str) -> None:
        self.job_id = job_id
        self.dir = jobdir
        self.journal_path = os.path.join(jobdir, "journal.jsonl")
        self.stderr_path = os.path.join(jobdir, "stderr")
        #: Stream identity: a reconnecting dispatcher may only resume its
        #: byte offset against the same token (same job incarnation).
        self.stream = uuid.uuid4().hex[:16]
        self.proc: Optional[subprocess.Popen] = None
        self.stderr_handle: Optional[Any] = None
        self.plan: Optional[Any] = None

    @property
    def running(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def failed(self) -> bool:
        return self.proc is not None and self.proc.poll() not in (None, 0)

    def close(self) -> None:
        """Kill a still-running worker and release the stderr handle."""
        if self.running:
            self.proc.kill()
            self.proc.wait()
        if self.stderr_handle is not None:
            self.stderr_handle.close()
            self.stderr_handle = None

    def size(self) -> int:
        try:
            return os.path.getsize(self.journal_path)
        except OSError:
            return 0


class CampaignAgent:
    """Job table + protocol logic of one agent process (transport-free).

    ``max_jobs`` bounds *running* shard workers (0 = unbounded; the
    dispatcher's per-host caps are the intended scheduling control).
    Finished jobs stay in the table so late re-attachments can still
    drain their journals.
    """

    def __init__(
        self,
        workdir: Optional[str] = None,
        max_jobs: int = 0,
        name: Optional[str] = None,
        python: Optional[str] = None,
    ) -> None:
        self._owns_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="qma-agent-")
        os.makedirs(self.workdir, exist_ok=True)
        self.max_jobs = int(max_jobs)
        self.name = name or f"agent-{os.getpid()}"
        self.python = python or sys.executable
        self._lock = threading.Lock()
        self._jobs: Dict[str, _AgentJob] = {}

    # ------------------------------------------------------------- protocol
    def handle(self, op: str, request: Dict[str, Any]) -> Messages:
        """Answer one ``run`` or ``cancel`` request with its messages."""
        if op == "cancel":
            yield from self._handle_cancel(request)
        elif op == "run":
            yield from self._handle_run(request)
        else:
            yield {"error": {"kind": "bad-request", "message": f"unknown op {op!r}"}}

    def _handle_cancel(self, request: Dict[str, Any]) -> Messages:
        job_id = str(request.get("id"))
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            yield {"error": {"kind": "unknown-job", "message": f"no job {job_id!r}"}}
            return
        if job.proc is not None and job.proc.poll() is None:
            job.proc.terminate()
        yield {"cancelled": {"id": job_id}}

    def _handle_run(self, request: Dict[str, Any]) -> Messages:
        job_id = str(request.get("id"))
        offset = int(request.get("offset", 0) or 0)
        stream = request.get("stream")
        error = None
        with self._lock:
            job = self._jobs.get(job_id)
            job_doc = request.get("job")
            if job is None or (job.failed and isinstance(job_doc, dict)):
                running = sum(1 for j in self._jobs.values() if j.running)
                if not isinstance(job_doc, dict):
                    error = {
                        "kind": "unknown-job",
                        "message": f"no job {job_id!r} and no job document",
                    }
                elif 0 < self.max_jobs <= running:
                    error = {
                        "kind": "busy",
                        "message": f"agent {self.name} already runs "
                        f"{running}/{self.max_jobs} job(s)",
                    }
                else:
                    if job is not None:
                        job.close()
                    job = self._start_job(job_id, job_doc)
                    self._jobs[job_id] = job
        if error is not None:
            yield {"error": error}
            return
        # Offset/stream reconciliation: resuming a byte offset is only
        # valid against the same stream token and within the file.
        if stream != job.stream or offset > job.size():
            offset = 0
        yield {
            "hello": {
                "agent": self.name,
                "id": job_id,
                "stream": job.stream,
                "offset": offset,
                "size": job.size(),
                "state": "running" if job.running else "done",
            }
        }
        yield from self._stream(job, offset)

    # ------------------------------------------------------------ job start
    def _start_job(self, job_id: str, job_doc: Dict[str, Any]) -> _AgentJob:
        jobdir = os.path.join(self.workdir, job_id)
        os.makedirs(jobdir, exist_ok=True)
        job = _AgentJob(job_id, jobdir)
        shard = (job_doc.get("shard") or {}).get("index")
        if job_doc.get("faults") is not None:
            from repro.service.faults import CRASH_EXIT_STATUS, FaultPlan

            job.plan = FaultPlan.from_dict(job_doc["faults"])
            if job.plan.take_agent_crash(shard):
                # A dead box, not a dead worker: the whole agent dies and
                # every connection to it breaks mid-stream.
                os._exit(CRASH_EXIT_STATUS)
        doc = dict(job_doc)
        doc["journal"] = job.journal_path
        job_path = os.path.join(jobdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        job.stderr_handle = open(job.stderr_path, "wb")
        job.proc = subprocess.Popen(
            [self.python, "-m", "repro.service.shard_worker", job_path],
            stdout=subprocess.DEVNULL,
            stderr=job.stderr_handle,
            env=_worker_env(),
        )
        return job

    # ------------------------------------------------------------ streaming
    def _stream(self, job: _AgentJob, offset: int) -> Messages:
        """Ship journal bytes from ``offset`` until the worker finishes.

        The returncode poll happens *before* the size read, so bytes the
        worker wrote just before exiting are always shipped before the
        ``done`` line — no lost-tail race.
        """
        pos = offset
        last_beat = time.monotonic()
        while True:
            returncode = None if job.proc is None else job.proc.poll()
            size = job.size()
            if size > pos:
                yield from self._maybe_stall(job)
                with open(job.journal_path, "rb") as handle:
                    handle.seek(pos)
                    data = handle.read(CHUNK_BYTES)
                if data:
                    yield {
                        "chunk": {"offset": pos, "data": data.decode("latin-1")}
                    }
                    pos += len(data)
                    continue
            if returncode is not None:
                payload: Dict[str, Any] = {"exit": returncode, "size": size}
                if returncode != 0:
                    payload["stderr"] = _tail_lines(
                        job.stderr_path, STDERR_TAIL_LINES
                    )
                yield {"done": payload}
                return
            now = time.monotonic()
            if now - last_beat >= HEARTBEAT_INTERVAL:
                yield {"heartbeat": {"size": size}}
                last_beat = now
            time.sleep(POLL_INTERVAL)

    def _maybe_stall(self, job: _AgentJob) -> Messages:
        """``slow-link`` fault: hold chunk delivery, keep heartbeats flowing.

        The worker keeps running during the stall, so the heartbeats
        carry a *growing* journal size — exactly the signal that lets the
        dispatcher's watchdog tell a slow link from a hung worker.
        """
        if job.plan is None:
            return
        stall = job.plan.take_slow_link()
        if stall is None:
            return
        deadline = time.monotonic() + float(stall)
        while time.monotonic() < deadline:
            yield {"heartbeat": {"size": job.size()}}
            time.sleep(min(HEARTBEAT_INTERVAL, max(0.01, deadline - time.monotonic())))

    # ------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Kill running workers and release file handles (jobs stay on disk)."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.close()
        if self._owns_workdir:
            import shutil

            shutil.rmtree(self.workdir, ignore_errors=True)


class AgentServer(NdjsonServer):
    """HTTP front end over a :class:`CampaignAgent`.

    A client that disappears mid-stream only ends its handler thread —
    the agent's jobs keep running.
    """

    def __init__(
        self, agent: CampaignAgent, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(host, port)
        self.agent = agent

    def route(self, method: str, path: str, query: Dict[str, str], body: bytes) -> Answer:
        try:
            request = json.loads(body)
        except ValueError:
            request = None
        if method != "POST" or not isinstance(request, dict):
            message = f"{method} {path} takes a JSON object"
            return 400, [{"error": {"kind": "bad-request", "message": message}}]
        return 200, self.agent.handle(path.lstrip("/"), request)

    def stop(self) -> None:
        super().stop()
        self.agent.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    workdir: Optional[str] = None,
    max_jobs: int = 0,
    name: Optional[str] = None,
) -> None:
    """Run an agent in the foreground until interrupted."""
    agent = CampaignAgent(workdir=workdir, max_jobs=max_jobs, name=name)
    server = AgentServer(agent, host, port)
    host, port = server.server_address[:2]
    # spawn_agent parses this line to find an ephemeral port.
    print(
        f"campaign agent {agent.name} listening on {host}:{port} "
        f"(workdir: {agent.workdir})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("campaign agent stopped")
    finally:
        server.stop()


def spawn_agent(
    workdir: Optional[str] = None,
    name: Optional[str] = None,
) -> Tuple[subprocess.Popen, str]:
    """Start ``python -m repro.service.agent --port 0`` as a subprocess.

    Returns ``(proc, "HOST:PORT")`` once the agent is listening.  The
    agent leads its own session, so ``os.killpg(proc.pid, ...)`` reaches
    its shard workers too.
    """
    argv = [sys.executable, "-m", "repro.service.agent", "--port", "0"]
    if workdir is not None:
        argv += ["--workdir", workdir]
    if name is not None:
        argv += ["--name", name]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        env=_worker_env(),
        text=True,
        start_new_session=True,
    )
    with proc.stdout:
        line = proc.stdout.readline()
    match = re.search(r"listening on (\S+:\d+)", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"campaign agent printed no listening line: {line!r}")
    return proc, match.group(1)


def _tail_lines(path: str, limit: int) -> str:
    """The last ``limit`` lines of a (possibly missing) text file."""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - 64 * 1024))
            data = handle.read()
    except OSError:
        return ""
    text = data.decode("utf-8", errors="replace")
    return "\n".join(text.splitlines()[-limit:])


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with the repro package importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qma-repro agent",
        description="Run a campaign agent executing shard jobs for a "
        "remote dispatcher (see 'qma-repro sweep --hosts').",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral, printed)"
    )
    parser.add_argument(
        "--workdir", default=None, help="job/journal scratch directory"
    )
    parser.add_argument(
        "--max-jobs", type=int, default=0,
        help="maximum concurrent shard workers (0 = unbounded)",
    )
    parser.add_argument("--name", default=None, help="agent name in hellos")
    args = parser.parse_args(argv)
    serve(args.host, args.port, args.workdir, args.max_jobs, args.name)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
