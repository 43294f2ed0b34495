"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Claimed bounds, and the closed-form floors the README's "Bounds" proves,
are asserted at their stated tolerances.
"""

import time

import numpy as np
import pytest

import entswap as es
from entswap import experiments as ex
from entswap.qstate import concurrence_batch, concurrence_x, validate_batch, x_matrices
from entswap.swap import conditional_states, conditional_x_states, swap_batch, swap_x_batch
from tests.test_swap import PSI_MINUS_LOOKUP

B = es.BellLabel
SEED = 20260809


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_bell_pair_golden_table():
    t0 = time.perf_counter()
    worst_dist, worst_prob = 0.0, 0.0
    for (la, lb), lout in PSI_MINUS_LOOKUP.items():
        res = es.swap_general(es.bell_density(la), es.bell_density(lb), B.PSI_MINUS)
        worst_dist = max(worst_dist, es.trace_distance(res.state, es.bell_density(lout)))
        worst_prob = max(worst_prob, abs(res.probability - 0.25))
    elapsed = time.perf_counter() - t0
    ok = worst_dist < 1e-12 and worst_prob < 1e-12 and elapsed < 1.0
    _report(1, ok, f"16 Bell pairs, max trace distance {worst_dist:.2e}, "
                   f"max |prob - 1/4| {worst_prob:.2e}, {elapsed:.2f}s")


def test_criterion_02_conservation_with_bell_state():
    t0 = time.perf_counter()
    _, report = ex.run_experiment("conserve", 10_000, SEED + 2)
    elapsed = time.perf_counter() - t0
    worst = report.checks["conservation"]["worst"]
    ok = worst < 1e-9 and report.skipped == 0 and elapsed < 30.0
    _report(2, ok, f"10^4 Bures states x 4 outcomes, "
                   f"max |C_F - C_A| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_bell_diagonal_bounds():
    t0 = time.perf_counter()
    _, report = ex.run_experiment("belldiag", 100_000, SEED + 3, workers=2)
    elapsed = time.perf_counter() - t0
    upper, floor = report.checks["product_upper"], report.checks["belldiag_floor"]
    ok = (report.hard_violations == 0
          and floor["worst"] == 0.0
          and elapsed < 60.0)
    _report(3, ok, f"10^5 Bell-diagonal pairs, upper violations "
                   f"{upper['violations']}, max upper excess "
                   f"{upper['worst']:.2e}, max lower deficit "
                   f"{floor['worst']:.2e}, {elapsed:.1f}s")


def test_criterion_04_rank2_self_swap_grid():
    _, report = ex.run_experiment("rank2-selfswap", 99, 0)
    check = report.checks["self_swap_square"]
    ok = check["violations"] == 0 and check["worst"] < 1e-12
    _report(4, ok, f"99-point mixing grid x 4 outcomes, "
                   f"max |C_F - C_in^2| = {check['worst']:.2e}")


def test_criterion_05_pure_state_lower_bound():
    _, report = ex.run_experiment("pure", 100_000, SEED + 5, workers=2)
    bound_ok = report.hard_violations == 0

    worst = 0.0
    for theta in (np.pi / 8, np.pi / 6, np.pi / 3):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.cos(theta), np.sin(theta)
        rho = es.DensityMatrix.from_pure(v)
        for outcome in (B.PSI_PLUS, B.PSI_MINUS):
            res = es.swap_general(rho, rho, outcome)
            worst = max(worst, abs(es.concurrence(res.state) - 1.0))
    purify_ok = worst < 1e-12
    floor = report.checks["squared_product_floor"]
    others = {name: c["violations"] for name, c in report.checks.items() if c is not floor}
    _report(5, bound_ok and purify_ok,
            f"10^5 pure pairs, squared-product violations "
            f"{floor['violations']} (max deficit "
            f"{floor['worst']:.2e}), {others}; imbalanced-pair "
            f"purification max |C_F - 1| = {worst:.2e}")


def test_criterion_06_rank_law():
    _, report = ex.run_experiment("rank", 1000, SEED + 6)
    violations = {name: c["violations"] for name, c in report.checks.items()}
    ok = (violations["rank_floor"] == 0
          and violations["pure_rank_equality"] == 0
          and violations["input_rank"] == 0)
    _report(6, ok, f"16 rank combos x 10^3 pairs, inequality violations "
                   f"{violations['rank_floor']}, pure-input equality violations "
                   f"{violations['pure_rank_equality']}")


def test_criterion_07_beamsplitter_equivalence():
    t0 = time.perf_counter()
    _, report = ex.run_experiment("oracle-equiv", 1000, SEED + 7)
    elapsed = time.perf_counter() - t0
    trace = report.checks["trace_distance"]["worst"]
    prob = report.checks["probability_diff"]["worst"]
    ok = trace < 1e-10 and prob < 1e-10 and elapsed < 30.0
    _report(7, ok, f"10^3 Bures pairs, max trace distance {trace:.2e}, "
                   f"max prob diff {prob:.2e}, {elapsed:.1f}s")


def test_criterion_08_haar_phase_statistics():
    _, report = ex.run_experiment("haar-stats", 100_000, SEED + 8)
    mean = report.extras["phase_mean"]
    std = report.extras["phase_std"]
    ok = abs(mean) < 0.02 and abs(std - 1.8138) < 0.02
    _report(8, ok, f"10^5 Haar unitaries, phase mean {mean:.5f}, "
                   f"std {std:.5f} (target 1.8138)")


def test_criterion_09_x_state_machinery():
    # the stacked X path against the stacked general engine; the scalar
    # wrappers are covered by tests/test_swap.py::test_swap_x_matches_general
    rng = np.random.default_rng(SEED + 9)
    x_a, x_b = es.random_x_state(rng, 10_000), es.random_x_state(rng, 10_000)
    dm_a, dm_b = x_matrices(*x_a), x_matrices(*x_b)
    max_conc_dev = max(np.abs(concurrence_batch(dm) - concurrence_x(*x)).max()
                       for x, dm in ((x_a, dm_a), (x_b, dm_b)))
    raw, prob = swap_batch(dm_a, dm_b)
    possible, general, _ = conditional_states(raw, prob)
    out, prob_x = swap_x_batch(x_a, x_b)
    possible_x, fast, _ = conditional_x_states(out, prob_x)
    off_x = np.ones((4, 4), dtype=bool)
    off_x[range(4), range(4)] = off_x[range(4), range(3, -1, -1)] = False
    stays_x = (np.array_equal(possible, possible_x)
               and np.abs(general[:, off_x]).max() < 1e-12)
    out_x = general[:, range(4), range(4)].real, general[:, [0, 1], [3, 2]]
    max_conc_dev = max(max_conc_dev, np.abs(concurrence_batch(general)
                                            - concurrence_x(*out_x)).max())
    max_path_dev = np.abs(x_matrices(*fast) - general).max()
    max_prob_dev = np.abs(prob_x - prob).max()
    ok = (stays_x and max_conc_dev < 1e-9
          and max_path_dev < 1e-12 and max_prob_dev < 1e-12)
    _report(9, ok, f"10^4 X pairs x 4 outcomes: closure {stays_x}, "
                   f"closed-form concurrence dev {max_conc_dev:.2e}, "
                   f"fast-vs-general dev {max_path_dev:.2e}, "
                   f"prob dev {max_prob_dev:.2e}")


def test_criterion_10_probability_completeness():
    # the stacked engine; the scalar swap_all_outcomes is covered by
    # tests/test_swap.py::test_all_outcomes_probabilities_sum_to_one
    rng = np.random.default_rng(SEED + 10)
    rho_a, rho_b = es.random_bures(rng, size=10_000), es.random_bures(rng, size=10_000)
    validate_batch(rho_a)
    validate_batch(rho_b)
    raw, prob = swap_batch(rho_a, rho_b)
    conditional_states(raw, prob)  # each possible outcome's state is valid
    worst = np.abs(prob.sum(axis=1) - 1.0).max()
    ok = worst < 1e-10
    _report(10, ok, f"10^4 Bures pairs, max |sum of probabilities - 1| = {worst:.2e}")
