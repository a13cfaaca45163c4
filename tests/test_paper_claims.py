"""The paper's claims, each checked at reduced size (see
:mod:`repro.experiments.figures`)."""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES, Claim, Figure, above


@pytest.mark.parametrize("figure", FIGURES.values(), ids=list(FIGURES))
def test_figure_claims_hold_at_reduced_size(figure):
    failures = figure.failures()
    assert not failures, "\n".join(failures)


def test_a_failing_claim_names_row_claim_value_and_band():
    runs = []
    toy = Figure(
        name="toy",
        caption="",
        func=lambda seed: runs.append(seed) or 0.5,
        reduced={"seed": 1},
        claims=(
            Claim("half exceeds 0.9", above(0.9), lambda run: run()),
            Claim("half exceeds 0.1", above(0.1), lambda run: run()),
        ),
    )
    assert toy.failures() == ["toy: half exceeds 0.9: measured 0.5, outside (0.9, inf)"]
    assert runs == [1]  # identical inputs share one run
