"""The paper's claims on identical reservoirs, checked as properties of one grid sweep.

For identical non-Markovian reservoirs the paper finds that a larger detuning
and a narrower spectral width lengthen the time ``t_ew`` in which the
entropic witness detects the entanglement.  One sweep over 25 log-spaced
widths (0.05 to 1.9) and 41 detunings (0 to 2) to ``t_max = 200`` checks
both trends at every grid point, and that the witnessed-concurrence
threshold is the same fixed point everywhere.  A point that never crosses
``mu = 1`` by ``t_max`` counts as the longest ``t_ew``.  The paper has this
"only if" the reservoirs are identical; one test shows a pair at width 0.1
where detuning the memory's reservoir alone shortens ``t_ew``.
"""

import numpy as np
import pytest

import entwitness as ew
from entwitness.witness import bracketed_root

WIDTHS = np.geomspace(0.05, 1.9, 25)
DETUNINGS = np.linspace(0.0, 2.0, 41)
BASE = ew.ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=200.0, sample_every=10)


@pytest.fixture(scope="module")
def grid():
    """``(t_ew, c_ew_threshold)`` as ``(widths, detunings)`` arrays, NaN where none."""
    rows = ew.sweep(WIDTHS, DETUNINGS, BASE)
    assert rows.errors == [None] * rows.witness.t_ew.size
    shape = (len(WIDTHS), len(DETUNINGS))
    return rows.witness.t_ew.reshape(shape), rows.witness.c_ew_threshold.reshape(shape)


def test_detuning_and_narrow_width_lengthen_the_witnessed_time(grid):
    t_ew, _ = grid
    t_ew = np.where(np.isnan(t_ew), np.inf, t_ew)   # never crossed: the longest
    assert np.isfinite(t_ew).any() and not np.isfinite(t_ew).all()
    assert np.all(t_ew[:, 1:] >= t_ew[:, :-1]), "t_ew falls with the detuning"
    assert np.all(t_ew[1:] <= t_ew[:-1]), "t_ew rises with the width"


def test_identical_reservoirs_cross_at_one_concurrence(grid):
    # two equal populations p give mu(p, p), which reaches 1 at one p* in
    # (0.75, 0.99); the threshold of every crossing is the concurrence there
    def excess(p):
        return ew.minimum_uncertainty(p, p) - 1.0

    lo, hi = np.array([0.75]), np.array([0.99])
    p_star = bracketed_root(excess, lo, hi, excess(lo), excess(hi), 1e-15)[0]
    threshold = ew.concurrence(p_star, p_star)
    _, c_ew = grid
    crossed = c_ew[~np.isnan(c_ew)]
    assert crossed.size > 900
    assert np.abs(crossed - threshold).max() < 1e-12


def test_one_detuned_reservoir_still_lengthens_the_witnessed_time():
    # in these presets detuning atom A's reservoir alone lengthens t_ew too, though less
    t_ew = [ew.run_scenario(ew.PRESETS[f"fig2a_db{d}"])[1].t_ew for d in (0, 2, 4)]
    assert t_ew == pytest.approx([2.46, 3.72, 3.83], abs=0.005)
    assert t_ew[0] < t_ew[1] < t_ew[2]


def test_detuning_only_the_memory_shortens_the_witnessed_time():
    # the abstract's "only if": at width 0.1, detuning the memory's reservoir
    # alone shortens t_ew, while detuning both reservoirs alike lengthens it
    detunings = (1.4, 1.5, 1.6, 1.7)

    def report(delta_a, delta_b):
        return ew.run_scenario(ew.ScenarioConfig(lambda_a=0.1, lambda_b=0.1, delta_a=delta_a,
                                                 delta_b=delta_b, t_max=100.0, dt=0.05))[1]

    memory = [report(0.0, d) for d in detunings]
    assert all(r.notes == "mu re-enters below 1 after the first crossing" for r in memory)
    memory = [r.t_ew for r in memory]
    assert memory == pytest.approx([5.0399, 4.9887, 4.9248, 4.8722], abs=5e-5)
    assert sorted(memory, reverse=True) == memory
    identical = [report(d, d).t_ew for d in detunings]
    assert identical == pytest.approx([45.404, 53.425, 62.114, 71.346], abs=5e-4)
    assert sorted(identical) == identical
