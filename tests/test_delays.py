"""Arrival probabilities, waiting times, thresholds, and the slow/fast split.

Waiting times are integers but thresholds are real, so the realized
slow probability of worker i is (1−p_i)^⌊τ_i⌋ — slightly above the
nominal q₁.  The statistical tests below assert against those exact
values, not against q₁ itself.
"""

import math

import numpy as np
import pytest

from stalegrad.delays import DelayModel, delay_threshold
from stalegrad.errors import InvalidConfigError
from stalegrad.objectives import FAST, SLOW


def exact_slow_probability(q1: float, p: float) -> float:
    return (1.0 - p) ** math.floor(math.log(q1) / math.log1p(-p))


def test_threshold_tends_to_zero_as_q1_grows():
    # q1 -> 1 means "everything is slow enough to count as fast"
    assert delay_threshold(0.999999, 0.3) < 1e-4


def test_threshold_validation():
    with pytest.raises(InvalidConfigError):
        delay_threshold(0.1, 0.0)
    with pytest.raises(InvalidConfigError):
        delay_threshold(0.1, 1.0)
    with pytest.raises(InvalidConfigError) as err:
        delay_threshold(0.0, 0.5)
    assert "delay.slow_weight" in str(err.value)
    with pytest.raises(InvalidConfigError):
        delay_threshold(1.0, 0.5)


def test_waiting_time_moments():
    """A ticket is one bare geometric draw: same waits, same generator state after."""
    model = DelayModel.build(3, 0.1)
    assert model.arrival_probs[2] == 0.5
    rng, bare = np.random.default_rng(0), np.random.default_rng(0)
    waits = np.array([model.draw_ticket(2, rng)[0] for _ in range(100_000)])
    assert np.array_equal(waits, [bare.geometric(0.5) for _ in range(100_000)])
    assert rng.bit_generator.state == bare.bit_generator.state
    assert 1.97 <= waits.mean() <= 2.03  # E = 1/p = 2
    frac_gt_one = float(np.mean(waits > 1))
    assert 0.494 <= frac_gt_one <= 0.506  # P{T > 1} = 1 − p


def test_assign_component():
    """Slow iff the wait strictly exceeds the real-valued threshold."""
    model = DelayModel.build(7, 0.1)  # worker 6 has p = 0.25
    assert model.thresholds[6] == delay_threshold(0.1, 0.25) == 8.003922779651093
    rng = np.random.default_rng(3)
    tickets = dict(model.draw_ticket(6, rng) for _ in range(2000))
    assert {1, 8, 9} <= set(tickets)
    assert tickets[9] == SLOW
    assert tickets[8] == FAST  # 8 < 8.0039, not slow
    assert tickets == {wait: SLOW if wait > 8 else FAST for wait in tickets}


def test_realized_slow_fractions_match_floor_law():
    """Per-worker slow fractions sit at (1−p)^⌊τ⌋, not at the nominal q₁."""
    model = DelayModel.build(7, 0.1)
    rng = np.random.default_rng(2)
    draws = 20_000
    fractions = []
    for worker in range(7):
        p = float(model.arrival_probs[worker])
        expected = exact_slow_probability(0.1, p)
        slow = sum(
            model.draw_ticket(worker, rng)[1] == SLOW for _ in range(draws)
        )
        frac = slow / draws
        fractions.append(frac)
        se = math.sqrt(expected * (1 - expected) / draws)
        assert abs(frac - expected) <= 4 * se
    pooled = float(np.mean(fractions))
    pooled_expected = float(
        np.mean([exact_slow_probability(0.1, float(p)) for p in model.arrival_probs])
    )
    assert math.isclose(pooled_expected, 0.10714408167237031, rel_tol=1e-12)
    assert abs(pooled - pooled_expected) <= 4 * math.sqrt(
        pooled_expected * (1 - pooled_expected) / (7 * draws)
    )


def test_single_draw_serves_schedule_and_component():
    """The wait on the ticket is the same draw that decided the component."""
    model = DelayModel.build(7, 0.1)
    rng = np.random.default_rng(6)
    for _ in range(2000):
        worker = int(rng.integers(7))
        before = np.random.default_rng(int(rng.integers(2**31)))
        wait, component = model.draw_ticket(worker, before)
        threshold = float(model.thresholds[worker])
        want = SLOW if wait > threshold else FAST
        assert component == want


def test_build_validation():
    """The worker count comes checked from the config.  The threshold still refuses a slow weight
    outside (0, 1) for callers with no ``SimConfig``, such as the validate suite: q₁ = 0 would fail
    in ``math.log``, and q₁ ≥ 1 would give a threshold of zero or less and make every ticket slow."""
    for slow_weight in (0.0, 1.2):
        with pytest.raises(InvalidConfigError) as err:
            DelayModel.build(4, slow_weight)
        assert "delay.slow_weight" in str(err.value)
