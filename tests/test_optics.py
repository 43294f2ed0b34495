import numpy as np
import pytest

import entswap as es
from entswap.optics import (
    N_BUNCHED,
    bsm_operator,
    coincidence_isometry,
    coincidence_projector,
)

B = es.BellLabel


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5, 0.7321, 0.9])
def test_beamsplitter_is_unitary(eta):
    u = es.beamsplitter_unitary(eta)
    assert np.abs(u.conj().T @ u - np.eye(10)).max() < 1e-12


@pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.5])
def test_beamsplitter_rejects_bad_reflectivity(eta):
    with pytest.raises(ValueError, match="reflectivity"):
        es.beamsplitter_unitary(eta)


def test_isometry_properties():
    k = coincidence_isometry()
    proj = coincidence_projector()
    assert np.abs(k.conj().T @ k - np.eye(4)).max() < 1e-12
    assert np.abs(k @ k.conj().T - proj).max() < 1e-12
    assert np.abs(proj @ proj - proj).max() < 1e-12
    # the projector is zero on every bunched basis state
    assert np.abs(proj[:, :N_BUNCHED]).max() == 0.0


def test_balanced_bsm_keeps_only_the_singlet():
    op = bsm_operator(0.5)
    for label in (B.PHI_PLUS, B.PHI_MINUS, B.PSI_PLUS):
        assert np.linalg.norm(op @ es.bell_vector(label)) < 1e-12
    psi_m = es.bell_vector(B.PSI_MINUS)
    overlap = np.vdot(psi_m, op @ psi_m)
    # phase is a construction convention; only the modulus is fixed
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_balanced_bsm_is_singlet_projector_up_to_phase():
    op = bsm_operator(0.5)
    psi_m = es.bell_vector(B.PSI_MINUS)
    projector = np.outer(psi_m, psi_m.conj())
    phase = np.vdot(psi_m, op @ psi_m)
    assert np.abs(op - phase * projector).max() < 1e-12


def test_bunched_component_of_embedded_bell_states():
    # after a balanced splitter the phi+ input carries no coincidence part
    u = es.beamsplitter_unitary(0.5)
    k = coincidence_isometry()
    proj = coincidence_projector()
    out = proj @ u @ k @ es.bell_vector(B.PHI_PLUS)
    assert np.linalg.norm(out) < 1e-12


def test_bell_pair_through_beamsplitter():
    phi = es.bell_density(B.PHI_PLUS)
    res = es.swap_via_beamsplitter(phi, phi)
    assert res.outcome is B.PSI_MINUS
    assert res.probability == pytest.approx(0.25, abs=1e-12)
    assert es.trace_distance(res.state, es.bell_density(B.PSI_MINUS)) < 1e-12


def test_identical_photons_never_coincide():
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    with pytest.raises(es.NoCoincidence):
        es.swap_via_beamsplitter(hh, hh)


def test_matches_analytic_singlet_swap():
    rng = np.random.default_rng(41)
    for _ in range(100):
        rho_a, rho_b = es.random_bures(rng), es.random_bures(rng)
        physical = es.swap_via_beamsplitter(rho_a, rho_b)
        analytic = es.swap_general(rho_a, rho_b, B.PSI_MINUS)
        assert es.trace_distance(physical.state, analytic.state) < 1e-10
        assert physical.probability == pytest.approx(analytic.probability, abs=1e-10)


def test_unbalanced_splitter_still_yields_valid_states():
    rng = np.random.default_rng(42)
    for eta in (0.3, 0.6):
        rho_a, rho_b = es.random_bures(rng), es.random_bures(rng)
        res = es.swap_via_beamsplitter(rho_a, rho_b, eta=eta)
        res.state.validate()
        assert 0.0 < res.probability <= 1.0


def test_beamsplitter_unitary_is_cached_and_read_only():
    u = es.beamsplitter_unitary(0.37)
    assert u is es.beamsplitter_unitary(0.37)
    fresh = es.beamsplitter_unitary.__wrapped__(0.37)
    assert fresh is not u and np.array_equal(fresh, u)
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0


def test_lifted_operators_are_cached_and_read_only():
    from entswap import optics

    ops = optics._lifted_operators(0.37)
    assert ops is optics._lifted_operators(0.37)
    w, w_dag, u, u_dag, proj = ops
    assert np.array_equal(w, np.kron(optics.coincidence_isometry(), np.eye(4)))
    assert np.array_equal(u, np.kron(es.beamsplitter_unitary(0.37), np.eye(4)))
    assert np.array_equal(proj, np.kron(optics.coincidence_projector(), np.eye(4)))
    assert np.array_equal(w_dag, w.conj().T) and np.array_equal(u_dag, u.conj().T)
    for op in ops:
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 0.0
    with pytest.raises(ValueError, match="reflectivity"):
        optics._lifted_operators(1.0)


def test_optics_oracle_stays_independent_of_the_swap_kernel():
    from entswap import optics, swap

    borrowed = {name for name, value in vars(optics).items()
                if getattr(value, "__module__", None) == swap.__name__}
    assert borrowed == {"SwapResult"}
