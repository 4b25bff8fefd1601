"""The acceptance gate: nine criteria, one test each, one summary line each.

Every test measures first and asserts second, so the terminal summary
carries the observed numbers whether the criterion passed or failed.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from stalegrad import reference
from stalegrad.analysis import (
    convergence_metrics,
    delay_separation,
    error_decomposition_series,
    f1_from_confusion,
    f1_scores,
    pending_sets,
    waiting_time_gof,
)
from stalegrad.cli import main as cli_main
from stalegrad.delays import default_arrival_probs
from stalegrad.objectives import from_spec
from stalegrad.optimizers import theorem1_params
from stalegrad.simulation import SimConfig, replay_check, run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------- batteries


def _random_quadratic_spec(rng, dim, sigma):
    factor = rng.standard_normal((dim, dim))
    matrix = factor.T @ factor / dim + 0.5 * np.eye(dim)
    offset = rng.standard_normal(dim)
    return {
        "family": "quadratic",
        "curvature": matrix.tolist(),
        "offset": offset.tolist(),
        "noise_sigma": sigma,
    }


@pytest.fixture(scope="module")
def momentum_battery():
    """Twenty random ordered-momentum runs: d ≤ 10, M ∈ {2,4,8}, T = 200."""
    meta = np.random.default_rng(1234)
    battery = []
    for i in range(20):
        dim = int(meta.integers(1, 11))
        workers = [2, 4, 8][i % 3]
        sigma = [0.0, 0.3, 1.0][int(meta.integers(3))]
        spec = _random_quadratic_spec(meta, dim, sigma)
        lips = float(np.max(np.linalg.eigvalsh(np.array(spec["curvature"]))))
        beta = float(meta.uniform(0.05, 0.5))
        config = SimConfig(
            objective=spec,
            optimizer={"method": "ordered_momentum", "eta": 0.02 / lips, "beta": beta},
            total_iterations=200,
            num_workers=workers,
            delay={"slow_weight": 0.1},
            seed=i,
            record_gradients=True,
        )
        battery.append((config, run(config)))
    return battery


@pytest.fixture(scope="module")
def mu2_battery():
    """Six random projected averaged runs with recording, for the A3 identities."""
    meta = np.random.default_rng(4321)
    battery = []
    for i in range(6):
        dim = int(meta.integers(1, 7))
        spec = _random_quadratic_spec(meta, dim, [0.0, 0.5, 1.0][i % 3])
        spec["offset"] = (0.2 * np.asarray(spec["offset"])).tolist()  # keep x* near 0
        spec["domain"] = {"center": [0.0] * dim, "radius": 2.0}
        config = SimConfig(
            objective=spec,
            optimizer={"method": "ordered_mu2", "eta": 0.01},
            total_iterations=200,
            num_workers=[2, 4, 8][i % 3],
            delay={"slow_weight": 0.1},
            seed=100 + i,
            record_gradients=True,
        )
        battery.append((config, run(config)))
    return battery


A7_CONFIG = SimConfig(
    objective={
        "family": "quadratic",
        "curvature": [1.0, 2.0],
        "minimizer": [1.0, -1.0],
        "noise_sigma": 0.5,
    },
    optimizer={"method": "vanilla", "eta": 0.01},
    total_iterations=10_000,
    num_workers=7,
    delay={"slow_weight": 0.1},
    seed=8,
)


@pytest.fixture(scope="module")
def a7_trace():
    return run(A7_CONFIG)


# ---------------------------------------------------------------- A1


def test_a1_recursive_buffer_equals_direct_sum(momentum_battery):
    worst = 0.0
    for config, trace in momentum_battery:
        beta = config.optimizer["beta"]
        direct = reference.unrolled_direct_sum(
            trace.dispatch_iteration, trace.gradients, beta
        )
        scale = np.maximum(np.linalg.norm(direct, axis=1), 1e-12)
        rel = np.linalg.norm(trace.buffers - direct, axis=1) / scale
        worst = max(worst, float(rel.max()))
    record_acceptance(
        "A1", f"20 runs (d<=10, M in 2/4/8, T=200); max per-step rel err {worst:.3g} <= 1e-9"
    )
    assert worst <= 1e-9


# ---------------------------------------------------------------- A2


def test_a2_single_worker_reductions():
    # ordered momentum ≡ classical momentum
    matrix = np.diag([1.0, 2.0, 0.5])
    offset = np.array([1.0, -1.0, 0.5])
    worst_momentum = 0.0
    for sigma, seed in ((0.5, 7), (0.0, 8)):
        config = SimConfig(
            objective={
                "family": "quadratic",
                "curvature": matrix.tolist(),
                "offset": offset.tolist(),
                "noise_sigma": sigma,
            },
            optimizer={"method": "ordered_momentum", "eta": 0.01, "beta": 0.2},
            total_iterations=200,
            num_workers=1,
            delay={"slow_weight": 0.1},
            seed=seed,
            record_gradients=True,
        )
        trace = run(config)
        ours = np.vstack([trace.pre_iterates, trace.final_iterate])
        oracle_x, oracle_m = reference.classical_momentum(
            matrix, offset, np.zeros(3), eta=0.01, beta=0.2, sigma=sigma, steps=200, seed=seed
        )
        worst_momentum = max(
            worst_momentum,
            float(np.max(np.abs(ours - oracle_x))),
            float(np.max(np.abs(trace.buffers - oracle_m))),
        )

    # ordered μ² ≡ synchronous anytime-averaged recursive momentum
    config = SimConfig(
        objective={
            "family": "quadratic",
            "curvature": matrix.tolist(),
            "offset": offset.tolist(),
            "noise_sigma": 0.5,
            "domain": {"center": [0.0, 0.0, 0.0], "radius": 2.0},
        },
        optimizer={"method": "ordered_mu2", "eta": 0.05},
        total_iterations=200,
        num_workers=1,
        delay={"slow_weight": 0.1},
        seed=9,
        record_gradients=True,
    )
    trace = run(config)
    ours = np.vstack([trace.pre_iterates, trace.final_iterate])
    oracle = reference.anytime_storm(
        matrix, offset, np.zeros(3), 2.0, np.zeros(3), eta=0.05, sigma=0.5, steps=200, seed=9
    )
    worst_mu2 = float(np.max(np.abs(ours - oracle)))

    record_acceptance(
        "A2",
        f"M=1, 200 steps: momentum max |diff| {worst_momentum:.3g}, "
        f"averaged max |diff| {worst_mu2:.3g} (tolerance 1e-12)",
    )
    assert worst_momentum <= 1e-12
    assert worst_mu2 <= 1e-12


# ---------------------------------------------------------------- A3


def test_a3_structural_invariants(momentum_battery, mu2_battery):
    # pending set bound across every A1 run
    max_pending_slack = min(
        (config.num_workers - 1) - int(trace.pending_size.max())
        for config, trace in momentum_battery
    )

    # delay bias: closed form exactly, and the (M−1)β‖∇f‖ bound
    bias_checked = 0
    for config, trace in momentum_battery:
        objective = from_spec(config.objective, 0.1)
        beta = config.optimizer["beta"]
        series = error_decomposition_series(trace, objective)
        for i, pend in enumerate(pending_sets(trace)):
            t = int(trace.t[i])
            grad = objective.grad(trace.pre_iterates[i])
            missing = 0.0
            for k in pend:
                missing += beta * (1.0 - beta) ** (t - k)
            assert np.array_equal(series[i].bias, -missing * grad)
            bound = (config.num_workers - 1) * beta * float(np.linalg.norm(grad))
            assert float(np.linalg.norm(series[i].bias)) <= bound * (1 + 1e-12)
            bias_checked += 1

    # weighted-average identity and per-step contraction for the averaged method
    worst_identity = 0.0
    worst_contraction_margin = math.inf
    for config, trace in mu2_battery:
        xs = np.vstack([trace.pre_iterates, trace.final_iterate])
        ws = trace.descent_iterates
        weights = np.arange(1, xs.shape[0] + 1, dtype=np.float64)
        running = np.cumsum(ws * weights[:, None], axis=0) / np.cumsum(weights)[:, None]
        rel = np.linalg.norm(xs - running, axis=1) / np.maximum(
            np.linalg.norm(xs, axis=1), 1.0
        )
        worst_identity = max(worst_identity, float(rel.max()))
        diameter = 2.0 * config.objective["domain"]["radius"]
        for t in range(1, xs.shape[0]):
            step_norm = float(np.linalg.norm(xs[t] - xs[t - 1]))
            bound = (2.0 / (t + 2)) * diameter
            worst_contraction_margin = min(worst_contraction_margin, bound - step_norm)
            assert step_norm <= bound * (1 + 1e-12)

    record_acceptance(
        "A3",
        f"pending <= M-1 (min slack {max_pending_slack}); {bias_checked} bias rows exact; "
        f"identity rel err {worst_identity:.3g} <= 1e-9; contraction margin "
        f"{worst_contraction_margin:.3g} >= 0",
    )
    assert max_pending_slack >= 0
    assert worst_identity <= 1e-9
    assert worst_contraction_margin >= 0.0


# ---------------------------------------------------------------- A4


def test_a4_rate_scaling_on_the_nonconvex_objective():
    spec = {
        "family": "nonconvex",
        "curvature": 0.5,
        "minimizer": [2**0.25, 2**0.25],
        "squash_scale": 0.25,
        "noise_sigma": 1.0,
    }
    constants = from_spec(spec, 0.1).theory_constants(np.zeros(2))
    assert abs(constants.lipschitz - 1.0) <= 1e-12  # the L=Δ=σ=1 instance
    assert abs(constants.delta_gap - 1.0) <= 1e-12

    started = time.perf_counter()
    ratios = []
    small_values, big_values = [], []
    for seed in range(10):
        values = {}
        for horizon in (2000, 8000):
            config = SimConfig(
                objective=spec,
                optimizer={"method": "ordered_momentum", "theory": True},
                total_iterations=horizon,
                num_workers=4,
                delay={"slow_weight": 0.1},
                seed=seed,
            )
            trace = run(config)
            metrics = convergence_metrics(trace, from_spec(spec, 0.1))
            values[horizon] = metrics.final_avg_sq_grad_norm
        ratios.append(values[8000] / values[2000])
        small_values.append(values[2000])
        big_values.append(values[8000])
    elapsed = time.perf_counter() - started

    mean_ratio = float(np.mean(ratios))
    pooled_ratio = float(np.mean(big_values) / np.mean(small_values))
    record_acceptance(
        "A4",
        f"avg grad-norm^2 ratio at 4T vs T: mean {mean_ratio:.4f}, pooled {pooled_ratio:.4f} "
        f"(<= 0.6, 10 seeds); runtime {elapsed:.1f}s < 60s",
    )
    assert mean_ratio <= 0.6
    assert pooled_ratio <= 0.6
    assert elapsed < 60.0


# ---------------------------------------------------------------- A5


def test_a5_data_dependent_bias():
    spec = {
        "family": "mixture",
        "components": [{"minimizer": [1.0, 0.0]}, {"minimizer": [-1.0, 0.0]}],
        "noise_sigma": 0.6,
    }
    objective = from_spec(spec, 0.1)
    constants = objective.theory_constants(np.zeros(2))
    params = theorem1_params(
        constants.lipschitz, constants.delta_gap, constants.sigma, 10_000, 7
    )
    minimizer = objective.minimizer
    fast_min = np.array([-1.0, 0.0])

    def battery(optimizer):
        finals = []
        for seed in range(5):
            config = SimConfig(
                objective=spec,
                optimizer=optimizer,
                total_iterations=10_000,
                num_workers=7,
                delay={"slow_weight": 0.1},
                seed=seed,
            )
            finals.append(run(config).final_iterate)
        return np.array(finals)

    ordered = battery({"method": "ordered_momentum", "theory": True})
    filtered = battery(
        {"method": "delay_filtered", "eta": params.eta, "tau_filter": 7.0}
    )

    ordered_dist = float(np.mean(np.linalg.norm(ordered - minimizer, axis=1)))
    filtered_dist = float(np.mean(np.linalg.norm(filtered - minimizer, axis=1)))
    filtered_fast = float(np.mean(np.linalg.norm(filtered - fast_min, axis=1)))
    filtered_mean_iterate = filtered.mean(axis=0)

    record_acceptance(
        "A5",
        f"dist to mixture min: ordered {ordered_dist:.4f} <= 0.5 x filtered {filtered_dist:.4f}; "
        f"filtered sits {filtered_fast:.4f} from the fast min (< {filtered_dist:.4f})",
    )
    assert ordered_dist <= 0.5 * filtered_dist
    assert filtered_fast < filtered_dist
    assert np.linalg.norm(filtered_mean_iterate - fast_min) < np.linalg.norm(
        filtered_mean_iterate - minimizer
    )


# ---------------------------------------------------------------- A6


def test_a6_step_size_robustness(tmp_path):
    out = tmp_path / "window"
    code = cli_main(
        ["sweep", str(CONFIG_DIR / "robustness_window.yaml"), "--output-dir", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    acceptance = summary["acceptance"]
    mu2_ratio = acceptance["ordered_mu2_metric_ratio"]
    vanilla_ratio = acceptance.get("vanilla_metric_ratio")
    diverged = summary["diverged_total"]

    etas = [
        values[1] for values in summary["grid"] if values[0] == "optimizer.eta"
    ][0]
    span = max(etas) / min(etas)

    vanilla_text = "diverged" if vanilla_ratio is None else f"{vanilla_ratio:.0f}"
    record_acceptance(
        "A6",
        f"eta window span {span:.0f} (~sqrt(T)+M): averaged worst/best {mu2_ratio:.3f} <= 3; "
        f"vanilla ratio {vanilla_text} (> 10) with {diverged} diverged runs",
    )
    assert 80 <= span <= 130  # √(10⁴) + 4 ≈ 104
    assert acceptance["ordered_mu2_window_ratio_le_3"] is True
    assert mu2_ratio <= 3.0
    assert acceptance["vanilla_unstable_gt_10"] is True
    assert diverged > 0 or (vanilla_ratio is not None and vanilla_ratio > 10.0)


# ---------------------------------------------------------------- A7


def test_a7_delay_model_fidelity(a7_trace):
    trace = a7_trace
    tags = np.array(trace.component)
    slow_fraction = float(np.mean(tags == "slow"))
    slow_mean, fast_mean = delay_separation(trace)
    ratio = slow_mean / fast_mean

    probs = default_arrival_probs(7)
    pvalues = []
    for worker in range(7):
        waits = trace.waiting_time[trace.worker_id == worker]
        pvalues.append(waiting_time_gof(waits, float(probs[worker])).pvalue)
    min_p = min(pvalues)

    record_acceptance(
        "A7",
        f"10^4 tickets, M=7: slow fraction {slow_fraction:.4f} in [0.09,0.11]; "
        f"slow/fast delay ratio {ratio:.2f} >= 3; min per-worker GOF p {min_p:.3f} >= 0.01",
    )
    assert 0.09 <= slow_fraction <= 0.11
    assert ratio >= 3.0
    assert min_p >= 0.01


# ---------------------------------------------------------------- A8


def test_a8_f1_against_exact_rational_oracle():
    rng = np.random.default_rng(2024)
    exact = 0
    for i in range(50):
        c = int(rng.integers(2, 7))
        matrix = rng.integers(0, 20, size=(c, c))
        if i % 7 == 0:  # force an empty class to hit the 0/0 rule
            wipe = int(rng.integers(c))
            matrix[wipe, :] = 0
            matrix[:, wipe] = 0
        tp, fp, fn = reference.confusion_to_counts(matrix)
        ours = f1_from_confusion(matrix)
        again = f1_scores(tp, fp, fn)
        per_class, macro = reference.f1_reference(tp, fp, fn)
        if (
            ours.per_class.tolist() == per_class
            and ours.macro == macro
            and again.per_class.tolist() == per_class
            and again.macro == macro
        ):
            exact += 1
    record_acceptance("A8", f"{exact}/50 random confusion tables match the rational oracle exactly")
    assert exact == 50


# ---------------------------------------------------------------- A9


def test_a9_determinism(momentum_battery, mu2_battery, a7_trace, tmp_path):
    replayed = 0
    for config, trace in momentum_battery + mu2_battery:
        assert replay_check(trace, config) is True
        replayed += 1
    assert replay_check(a7_trace, A7_CONFIG) is True
    replayed += 1

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(CONFIG_DIR / "minimal.yaml"), "--output-dir", str(out_a)]) == 0
    assert cli_main(["run", str(CONFIG_DIR / "minimal.yaml"), "--output-dir", str(out_b)]) == 0
    identical = (out_a / "run_s0.csv").read_bytes() == (out_b / "run_s0.csv").read_bytes()
    identical = identical and (
        (out_a / "run_summary.json").read_bytes() == (out_b / "run_summary.json").read_bytes()
    )

    record_acceptance(
        "A9", f"{replayed} traces replay bit-for-bit; repeated CLI runs byte-identical: {identical}"
    )
    assert identical
