import ast
from pathlib import Path

import numpy as np
import pytest

import entswap as es
from entswap.optics import (
    N_BUNCHED,
    bsm_operator,
    coincidence_isometry,
    coincidence_projector,
    swap_via_beamsplitter_batch,
)
from entswap.qstate import trace_distance_batch
from entswap.swap import swap_batch

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


def _bures_pairs(seed, n):
    rng = np.random.default_rng(seed)
    return es.random_bures(rng, size=n), es.random_bures(rng, size=n)


def _mode_space_swap(rho_a, rho_b, eta):
    # reference: form the post-selected operator on (mode space) x (modes
    # 1, 4) with the 10x4 factor lifted to 40x16, then trace the mode space
    f = coincidence_projector() @ es.beamsplitter_unitary(eta) @ coincidence_isometry()
    grouped = np.kron(rho_a, rho_b).reshape([2] * 8).transpose(1, 2, 0, 3, 5, 6, 4, 7)
    lifted = np.kron(f, np.eye(4))
    post = lifted @ grouped.reshape(16, 16) @ lifted.conj().T
    reduced = np.einsum("iaib->ab", post.reshape(10, 4, 10, 4))
    probability = reduced.trace().real
    return reduced / probability, probability


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.7])
def test_stacked_oracle_agrees_with_the_scalar_oracle(eta):
    a, b = _bures_pairs(43, 40)
    states, prob = swap_via_beamsplitter_batch(a, b, eta)
    assert states.shape == (40, 4, 4) and prob.shape == (40,)
    for n in range(40):
        single = es.swap_via_beamsplitter(es.DensityMatrix(a[n]), es.DensityMatrix(b[n]), eta)
        reference, probability = _mode_space_swap(a[n], b[n], eta)
        for state, p in ((single.state.mat, single.probability), (reference, probability)):
            assert np.abs(state - states[n]).max() < 1e-12
            assert abs(p - prob[n]) < 1e-12


def test_stacked_oracle_agrees_with_the_psi_minus_column_of_swap_batch():
    a, b = _bures_pairs(44, 40)
    states, prob = swap_via_beamsplitter_batch(a, b, 0.5)
    raw, analytic = swap_batch(a, b)
    psi = list(B).index(B.PSI_MINUS)
    assert np.abs(states - raw[:, psi] / analytic[:, psi, None, None]).max() < 1e-12
    assert np.abs(prob - analytic[:, psi]).max() < 1e-12


def test_trace_distance_batch_matches_the_scalar_distance():
    a, b = _bures_pairs(45, 30)
    distances = trace_distance_batch(a, b)
    assert distances.shape == (30,)
    for n in range(30):
        assert distances[n] == es.trace_distance(es.DensityMatrix(a[n]), es.DensityMatrix(b[n]))


def test_stack_with_one_bunching_pair_raises_no_coincidence():
    a, b = _bures_pairs(46, 5)
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0]).mat
    a[3], b[3] = hh, hh
    with pytest.raises(es.NoCoincidence, match=r"^coincidence probability 0\.000e\+00 <= 1e-12;"):
        swap_via_beamsplitter_batch(a, b, 0.5)


def test_optics_oracle_stays_independent_of_the_swap_kernel():
    from entswap import optics, swap

    borrowed = {name for name, value in vars(optics).items()
                if getattr(value, "__module__", None) == swap.__name__}
    assert borrowed == {"SwapResult"}
    # statically too: optics imports only SwapResult from swap, imports no
    # swap module, and never names the Bell vectors the kernel is built from
    tree = ast.parse(Path(optics.__file__).read_text(encoding="utf-8"))
    imports = [(getattr(node, "module", None), alias.name) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [name for module, name in imports if module == "swap"] == ["SwapResult"]
    assert not any(name.endswith("swap") for _, name in imports)
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    assert "bell_vector" not in names | {name for _, name in imports}
