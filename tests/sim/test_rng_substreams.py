"""Tests for seed substreams."""

from __future__ import annotations

import pytest

from repro.sim.rng import seed_substreams


class TestSeedSubstreams:
    def test_reproducible(self):
        a = seed_substreams(42, 4)
        b = seed_substreams(42, 4)
        for left, right in zip(a, b):
            assert left.random(8).tolist() == right.random(8).tolist()

    def test_substream_i_stable_as_n_grows(self):
        """Growing ``n`` appends streams; it never perturbs earlier ones."""
        small = seed_substreams(7, 2)
        large = seed_substreams(7, 6)
        for left, right in zip(small, large):
            assert left.random(8).tolist() == right.random(8).tolist()

    def test_substreams_differ_from_each_other(self):
        streams = seed_substreams(0, 3)
        draws = [tuple(s.random(8).tolist()) for s in streams]
        assert len(set(draws)) == 3

    def test_different_seeds_differ(self):
        (a,) = seed_substreams(1, 1)
        (b,) = seed_substreams(2, 1)
        assert a.random(8).tolist() != b.random(8).tolist()

    def test_not_plain_seed_offsets(self):
        """Substreams are SeedSequence spawns, not ``seed + i`` reseeds."""
        import numpy.random as npr

        substreams = seed_substreams(5, 3)
        offsets = [npr.default_rng(5 + i) for i in range(3)]
        assert all(
            s.random(4).tolist() != o.random(4).tolist()
            for s, o in zip(substreams, offsets)
        )

    def test_zero_streams(self):
        assert seed_substreams(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            seed_substreams(0, -1)
