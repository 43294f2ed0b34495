"""Mutation guards: a fault planted in a route must fail the experiment
that is there to catch it.

Each row patches one name that the experiment resolves at call time, runs
the experiment once in this process (workers 1) at SAMPLES samples and
seed SEED, and requires a hard violation. The same run without a fault
passes, so a violation is the fault's doing.
"""

import numpy as np
import pytest

from entswap import experiments as ex
from entswap.qstate import BellLabel
from entswap.swap import _OUTCOMES, swap_batch

SAMPLES, SEED = 100, 5


def _psi_plus_for_psi_minus(monkeypatch):
    # the oracle route's closed-form swap keeps psi+, the beamsplitter psi-
    monkeypatch.setattr(ex, "_PSI", _OUTCOMES.index(BellLabel.PSI_PLUS))


def _conjugated_a(monkeypatch):
    # rho_A -> rho_A*, a dropped conjugation: still a valid state
    monkeypatch.setattr(ex, "swap_batch",
                        lambda a, b, *outcomes: swap_batch(np.conj(a), b, *outcomes))


# mutant -> (plant, experiment that must catch it)
MUTANTS = {
    "oracle route swaps psi+ for psi-": (_psi_plus_for_psi_minus, "oracle-equiv"),
    "conjugated rho_A into swap_batch": (_conjugated_a, "oracle-equiv"),
}


@pytest.mark.parametrize("name", sorted({name for _, name in MUTANTS.values()}))
def test_the_unmutated_run_passes(name):
    assert ex.run_experiment(name, SAMPLES, SEED)[1].hard_violations == 0


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_gives_a_hard_violation(monkeypatch, mutant):
    plant, name = MUTANTS[mutant]
    plant(monkeypatch)
    _, report = ex.run_experiment(name, SAMPLES, SEED)
    assert report.hard_violations > 0, report.checks
