"""Deterministic sweep manifests: spec digests, run indices, shard splits.

A campaign's unit of identity is the *sweep spec digest* — the SHA-256 of
the sweep's canonical JSON form (:meth:`repro.campaign.spec.Sweep.to_dict`
serialised with sorted keys).  Because sweep expansion order is
deterministic, the digest plus an integer *run index* (the position in the
expansion) stably names every run of the campaign: two processes that
agree on the digest agree on what run 137 is, without shipping the
expanded scenario list.  The checkpoint journal, remote shard dispatch
and the service front end all address runs this way.

:func:`affinity_order` reproduces the campaign runner's
configuration-affinity grouping at the manifest level: a stable sort of
run indices by :func:`repro.campaign.spec.construction_affinity_key`, so
contiguous slices of the result make good shards — each shard's runs share
construction artifacts (PR 5 build cache) and cluster same-configuration
seeds adjacently (PR 7 seed batches), keeping both wins alive across the
process split.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Mapping, Sequence

from repro.campaign.spec import Sweep, construction_affinity_key

__all__ = [
    "affinity_order",
    "record_digest",
    "run_id",
    "shard_job_document",
    "split_shards",
    "sweep_digest",
]


def _canonical_json(data: Mapping[str, Any]) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sweep_digest(sweep: Sweep) -> str:
    """SHA-256 hex digest of the sweep's canonical JSON form.

    Stable across processes and JSON round-trips:
    ``sweep_digest(Sweep.from_dict(sweep.to_dict())) == sweep_digest(sweep)``.
    """
    return hashlib.sha256(_canonical_json(sweep.to_dict())).hexdigest()


def run_id(spec_digest: str, index: int) -> str:
    """Stable global identifier of one run: spec digest prefix + run index."""
    return f"{spec_digest[:12]}:{index}"


def record_digest(record_data: Mapping[str, Any]) -> str:
    """Short content digest of one record's serialised form.

    Journals store this next to every completion record; replay verifies
    it, so a corrupted journal line is caught before its record can leak
    into merged output (the cheap half of the bit-identical-resume
    guarantee — the expensive half is the determinism test matrix).
    """
    return payload_digest(
        json.dumps(record_data, sort_keys=True, separators=(",", ":"))
    )


def payload_digest(payload: str) -> str:
    """:func:`record_digest` of an already-canonicalised JSON string.

    The journal's append hot path serialises each record exactly once and
    digests the bytes it writes; replay re-canonicalises the parsed record
    through :func:`record_digest`, which lands on the same digest.
    """
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def affinity_order(sweep: Sweep, indices: Sequence[int]) -> List[int]:
    """Run indices permuted into configuration-affinity order.

    A stable sort by the construction affinity key, so indices sharing
    construction artifacts become adjacent while each group keeps
    expansion order — the same discipline as
    ``CampaignRunner._affinity_order``, computed from the manifest alone.
    ``indices`` must be sorted expansion indices (a pending set or a full
    ``range(sweep.size)``).
    """
    indices = list(indices)
    if not indices:
        return []
    index_set = frozenset(indices)
    last = max(indices)
    keys = {}
    for position, scenario in enumerate(sweep):
        if position in index_set:
            keys[position] = construction_affinity_key(
                sweep.experiment, scenario.propagation, scenario.seed, scenario.params
            )
        if position >= last:
            break
    return sorted(indices, key=keys.__getitem__)


def shard_job_document(
    sweep_data: Mapping[str, Any],
    indices: Sequence[int],
    journal_path: str,
    shard_index: int,
    shard_count: int,
    options: Mapping[str, Any],
    faults: Any = None,
) -> Mapping[str, Any]:
    """The canonical shard job document, host-agnostic by construction.

    This is the single wire/disk format a shard worker consumes: the
    remote dispatcher (``--hosts``) ships it to an agent over the wire
    with ``journal`` left for the agent to localise.
    ``faults`` is a :class:`~repro.service.faults.FaultPlan` or None.
    """
    doc: dict = {
        "sweep": dict(sweep_data),
        # Workers run their slice in expansion order; affinity clustering
        # is preserved by the contiguous split, not the within-shard order.
        "indices": sorted(int(index) for index in indices),
        "journal": journal_path,
        "shard": {"index": int(shard_index), "of": int(shard_count)},
        "options": dict(options),
    }
    if faults is not None:
        doc["faults"] = faults.to_dict()
    return doc


def split_shards(order: Sequence[int], shards: int) -> List[List[int]]:
    """Split an index list, in (affinity) order, into contiguous near-equal shards.

    Never returns empty shards: the shard count is capped at the index
    count.  Contiguity in the given order is what preserves the affinity
    clustering inside each shard.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    order = list(order)
    shards = min(shards, len(order))
    if shards == 0:
        return []
    base, extra = divmod(len(order), shards)
    chunks: List[List[int]] = []
    start = 0
    for shard in range(shards):
        count = base + (1 if shard < extra else 0)
        chunks.append(order[start:start + count])
        start += count
    return chunks
