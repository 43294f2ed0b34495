"""Mutation guards: a fault planted in a route must fail the experiment
that is there to catch it.

Each row patches one name that the experiment resolves at call time, runs
the experiment once in this process (workers 1) at SAMPLES samples and
seed SEED, and requires a hard violation or a ValidationError. The same
run without a fault passes, so a violation is the fault's doing. A mutant
that no experiment catches yet stays in the table as a strict xfail that
says why, so that the row fails once a check starts to catch it.
"""

import numpy as np
import pytest

from entswap import experiments as ex
from entswap import qstate, swap
from entswap.qstate import BellLabel, ValidationError, conditional_states
from entswap.swap import _OUTCOMES, swap_batch, swap_x_batch

SAMPLES, SEED = 100, 5
_PSI_PLUS, _PSI_MINUS = (_OUTCOMES.index(label)
                         for label in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS))


def _psi_plus_for_psi_minus(monkeypatch):
    # the oracle route's closed-form swap keeps psi+, the beamsplitter psi-
    monkeypatch.setattr(ex, "_PSI", _PSI_PLUS)


def _conjugated_a(monkeypatch):
    # rho_A -> rho_A*, a dropped conjugation: still a valid state
    monkeypatch.setattr(ex, "swap_batch",
                        lambda a, b, *outcomes: swap_batch(np.conj(a), b, *outcomes))


def _weight_sign(monkeypatch):
    # psi-'s weight of the term pair (ket 0, bra 1) negated
    weights = swap._WEIGHTS.copy()
    weights[0, 1, _PSI_MINUS] *= -1.0
    monkeypatch.setattr(swap, "_WEIGHTS", weights)


def _x_psi_plus_for_psi_minus(monkeypatch):
    # the X table's psi+ and psi- rows exchanged: they differ only in sign
    signs = swap._X_SIGN.copy()
    signs[[_PSI_PLUS, _PSI_MINUS]] = signs[[_PSI_MINUS, _PSI_PLUS]]
    monkeypatch.setattr(swap, "_X_SIGN", signs)


def _conjugated_x_coherence(monkeypatch):
    # A's X coherences conjugated on their way into the X kernel
    monkeypatch.setattr(ex, "swap_x_batch",
                        lambda a, b: swap_x_batch((a[0], np.conj(a[1])), b))


def _conditioned_by_2p(monkeypatch):
    # outputs divided by their normalization 2p, not by p
    monkeypatch.setattr(ex, "conditional_states",
                        lambda raw, prob, *args, **kw: conditional_states(raw / 2.0, prob,
                                                                          *args, **kw))


def _rank_tol_times_10(monkeypatch):
    monkeypatch.setattr(qstate, "DEFAULT_RANK_TOL", 10.0 * qstate.DEFAULT_RANK_TOL)


def _concurrence_x_unclipped_below(monkeypatch):
    # qstate.concurrence_x with its clip to [0, 1] cut to min(1, .)
    def concurrence_x(diag, coh):
        gap = np.abs(coh) - np.sqrt(np.maximum(diag[..., :2] * diag[..., 3:1:-1], 0.0))[..., ::-1]
        return np.minimum(2.0 * np.maximum(gap[..., 0], gap[..., 1]), 1.0)
    monkeypatch.setattr(ex, "concurrence_x", concurrence_x)


def _survives(why):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=why)


# the records cannot see it: a Bell-diagonal swap keeps real coherences and
# every column it records reads them through |c| alone (byte-identical
# records at 3000 samples)
_SIGN_BLIND = _survives("belldiag records no coherence sign")

# mutant -> (plant, experiment that must catch it, marks)
MUTANTS = {
    "oracle route swaps psi+ for psi-": (_psi_plus_for_psi_minus, "oracle-equiv", ()),
    "conjugated rho_A into swap_batch": (_conjugated_a, "oracle-equiv", ()),
    "one swap._WEIGHTS sign": (_weight_sign, "conserve", ()),
    "psi+ and psi- exchanged in the X table": (_x_psi_plus_for_psi_minus, "belldiag",
                                               _SIGN_BLIND),
    "conjugated X coherence into swap_x_batch": (_conjugated_x_coherence, "belldiag",
                                                 _SIGN_BLIND),
    "conditioning by 2p": (_conditioned_by_2p, "conserve", ()),
    # no drawn state has an eigenvalue ratio between 1e-10 and 1e-9
    # (byte-identical records at 200 pairs per rank combination)
    "DEFAULT_RANK_TOL off by 10x": (_rank_tol_times_10, "rank",
                                    _survives("no eigenvalue ratio near the cutoff")),
    # negative Bell-diagonal concurrences keep both belldiag bounds
    "concurrence_x without its max(0, .)": (
        _concurrence_x_unclipped_below, "belldiag",
        _survives("no check bounds a concurrence below by 0")),
}


@pytest.mark.parametrize("name", sorted({name for _, name, _ in MUTANTS.values()}))
def test_the_unmutated_run_passes(name):
    assert ex.run_experiment(name, SAMPLES, SEED)[1].hard_violations == 0


@pytest.mark.parametrize("mutant", [pytest.param(mutant, marks=MUTANTS[mutant][2])
                                    for mutant in sorted(MUTANTS)])
def test_each_mutant_gives_a_hard_violation(monkeypatch, mutant):
    plant, name, _ = MUTANTS[mutant]
    plant(monkeypatch)
    try:
        _, report = ex.run_experiment(name, SAMPLES, SEED)
    except ValidationError:
        return
    assert report.hard_violations > 0, report.checks
