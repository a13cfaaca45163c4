"""Campaign service: resumable, checkpointed, sharded, supervised sweeps.

The service layer turns the campaign runner into infrastructure for
million-run sweeps:

* :mod:`repro.service.manifest` — deterministic run identity (spec
  digests, expansion indices, shard splits in affinity order);
* :mod:`repro.service.journal` — the append-only, crash-tolerant
  checkpoint journal (with event audit lines);
* :mod:`repro.service.backends` — pluggable dispatch (warm in-process
  pool, isolated serial) and the backend factory;
* :mod:`repro.service.supervisor` — fault tolerance: per-run timeouts,
  heartbeats, bounded retry with backoff, poison-run quarantine, and
  graceful backend degradation;
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness behind the chaos test matrix;
* :mod:`repro.service.checkpoint` — the resume-safe driver shared by the
  CLI and the service;
* :mod:`repro.service.remote` / :mod:`repro.service.agent` — shard
  dispatch: agents executing shard job documents, with host-health
  quarantine and byte-offset-resumable journal streaming, driven by
  ``--hosts``;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  long-lived HTTP front end and its blocking client;
* :mod:`repro.service.wire` — the one wire stack under the server, the
  client, the agents and remote dispatch: a threaded stdlib HTTP server
  answering ndjson, and one client helper yielding response lines.

The package re-exports nothing: import from the submodules.
"""
