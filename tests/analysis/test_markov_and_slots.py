"""Unit tests for the GTS-handshake Markov chain (Fig. 26) and slot utilisation."""

from __future__ import annotations

import pytest

from repro.analysis.markov import (
    AbsorbingMarkovChain,
    expected_handshake_messages,
    gts_handshake_chain,
    handshake_message_curve,
)
from repro.analysis.slots import slot_utilisation
from repro.core.actions import QAction

B, C, S = QAction.QBACKOFF, QAction.QCCA, QAction.QSEND


class TestAbsorbingMarkovChain:
    def test_simple_two_state_chain(self):
        # One transient state that stays with probability 0.5: expected steps = 2.
        chain = AbsorbingMarkovChain([[0.5]])
        assert chain.expected_steps()[0] == pytest.approx(2.0)
        assert chain.absorption_probability()[0] == pytest.approx(1.0)

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            AbsorbingMarkovChain([[0.5, 0.2]])
        with pytest.raises(ValueError):
            AbsorbingMarkovChain([[1.5]])


class TestGtsHandshakeChain:
    def test_perfect_channel_needs_exactly_three_messages(self):
        assert expected_handshake_messages(1.0) == pytest.approx(3.0)

    def test_high_success_probability_matches_paper(self):
        # The paper reports 3.33 messages for p = 0.9.
        assert expected_handshake_messages(0.9) == pytest.approx(3.33, abs=0.01)

    def test_expected_messages_decrease_with_p(self):
        curve = handshake_message_curve([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        assert curve == sorted(curve, reverse=True)
        assert curve[-1] == pytest.approx(3.0)

    def test_low_p_explodes(self):
        """The paper's qualitative message: low CAP reliability makes GTS
        allocation prohibitively expensive."""
        assert expected_handshake_messages(0.1) > 10 * expected_handshake_messages(0.9)

    def test_chain_size_scales_with_retries(self):
        assert gts_handshake_chain(0.5, retries=3).num_transient == 12
        assert gts_handshake_chain(0.5, retries=0).num_transient == 3

    def test_more_retries_before_drop_reduce_restarts(self):
        # With more retransmissions per message, fewer full-handshake restarts
        # happen, so fewer messages are needed at low p.
        assert expected_handshake_messages(0.3, retries=7) < expected_handshake_messages(
            0.3, retries=1
        )

    @pytest.mark.parametrize("retries", [0, 1, 3, 5])
    def test_chain_matches_the_closed_form(self, retries):
        """Oracle: each message gets up to ``retries + 1`` transmissions, so it
        gets through with s = 1 - (1-p)^(retries+1).  A renewal argument over
        the three-message handshake, where each transmission costs one
        message, gives E(p) = (s/p)(1 + s + s²)/s³."""
        for step in range(1, 101):
            p = step / 100
            s = 1.0 - (1.0 - p) ** (retries + 1)
            closed_form = (s / p) * (1.0 + s + s * s) / s**3
            assert expected_handshake_messages(p, retries) == pytest.approx(
                closed_form, rel=1e-9
            )

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            expected_handshake_messages(0.0)
        with pytest.raises(ValueError):
            expected_handshake_messages(1.5)


class TestSlotUtilisation:
    def test_collision_free_schedule(self):
        policies = {
            0: [S, B, B, B],
            1: [B, B, C, B],
        }
        utilisation = slot_utilisation(policies)
        assert utilisation.collision_free
        assert utilisation.transmitting_nodes(0) == [0]
        assert utilisation.transmitting_nodes(2) == [1]
        assert utilisation.utilised_subslots() == 2
        assert utilisation.node_subslots(0) == {0: S}

    def test_conflicting_schedule_detected(self):
        policies = {0: [S, B], 1: [C, B]}
        utilisation = slot_utilisation(policies)
        assert not utilisation.collision_free
        assert utilisation.transmitting_nodes(0) == [0, 1]

    def test_adjacent_send_conflicts(self):
        policies = {0: [S, B, B, B], 1: [B, S, B, B]}
        utilisation = slot_utilisation(policies)
        assert utilisation.adjacent_send_conflicts(span=1) == [(0, 1)]
        clean = slot_utilisation({0: [S, B, B, B], 1: [B, B, B, S]})
        assert clean.adjacent_send_conflicts(span=1) == []

    def test_mismatched_policy_lengths_rejected(self):
        with pytest.raises(ValueError):
            slot_utilisation({0: [B, B], 1: [B]})

    def test_empty_input(self):
        assert slot_utilisation({}).num_subslots == 0
