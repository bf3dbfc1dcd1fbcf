"""Gluing/decay, hierarchical depth classes, fermion/boson symmetrization."""

import numpy as np
import pytest

from qswarm import (
    AmplitudeQuantum,
    Branch,
    DisjointnessError,
    DomainError,
    InternalState,
    InterferenceConditionError,
    LatticeSpec,
    SwarmStabilityError,
    assert_swarm_stability,
    com_internal,
    decay,
    depth_class,
    fock_diagonal_density,
    glue,
    hierarchical_from_amplitudes,
    measure_correlated,
    place_fermion_swarms,
    reconstruct_wavefunction,
    sample_from_wavefunction,
    symmetrized_amplitude,
    union_density,
)
from qswarm.composite import FockState


def delta(spec, cell):
    psi = np.zeros(spec.dims, dtype=complex)
    psi[cell] = 1.0
    return psi


def two_particle_state(spec, cell_a, cell_b, K=4000, seed=0):
    rng = np.random.default_rng(seed)
    s = sample_from_wavefunction(delta(spec, cell_a), spec, K, rng, pid="a")
    sb = sample_from_wavefunction(delta(spec, cell_b), spec, K, rng, pid="b")
    s.add_particle("b", sb.fields["b"], sb.scale["b"])
    return s


BELL = InternalState((
    Branch(1 / np.sqrt(2), (0, 0)),
    Branch(1 / np.sqrt(2), (1, 1)),
))


def test_internal_state_validation():
    with pytest.raises(DomainError):
        InternalState(())
    with pytest.raises(DomainError):
        InternalState((Branch(0.5, (0,)),))  # unnormalized
    with pytest.raises(DomainError):
        InternalState((Branch(1.0, (0, 0)), Branch(0.0, (1,))))  # arity mismatch


# ---------------------------------------------------------------------------
# glue / decay

def test_glue_deltas_to_center_of_mass():
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (8,))
    registry = {}
    cid = glue(state, registry, "a", "b", com_internal((4,), (8,)),
               np.random.default_rng(0))
    psi, _ = reconstruct_wavefunction(state, cid)
    assert np.argmax(np.abs(psi)) == 6  # center of mass
    assert registry[cid].constituents == ("a", "b")
    assert "a" not in state.fields and "b" not in state.fields
    assert_swarm_stability(state)


def test_glue_decay_roundtrip():
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (9,), K=30000)
    registry = {}
    cid = glue(state, registry, "a", "b", com_internal((4,), (9,)),
               np.random.default_rng(1))
    decay(state, registry, cid, np.random.default_rng(2))
    pa, _ = reconstruct_wavefunction(state, "a")
    pb, _ = reconstruct_wavefunction(state, "b")
    assert np.argmax(np.abs(pa)) == 4
    assert np.argmax(np.abs(pb)) == 9
    assert abs(np.abs(pa[4]) - 1.0) < 1e-9 and abs(np.abs(pb[9]) - 1.0) < 1e-9


def test_glue_decay_roundtrip_spread_states():
    """Round trip through a composite preserves both one-particle densities
    within sampling noise."""
    spec = LatticeSpec((16,))
    x = np.arange(16.0)
    psi_a = np.exp(-((x - 6) ** 2) / 4).astype(complex)
    psi_a /= np.linalg.norm(psi_a)
    psi_b = np.roll(psi_a, 3)
    K = 50000
    rng = np.random.default_rng(3)
    state = sample_from_wavefunction(psi_a, spec, K, rng, pid="a",
                                     deterministic=True)
    sb = sample_from_wavefunction(psi_b, spec, K, rng, pid="b",
                                  deterministic=True)
    state.add_particle("b", sb.fields["b"], sb.scale["b"])
    registry = {}
    # b is a translated by +3, so fix offsets (0, +3) from the composite
    internal = InternalState((Branch(1.0 + 0j, (0, 1), ((0,), (3,))),))
    cid = glue(state, registry, "a", "b", internal, rng)
    decay(state, registry, cid, rng)
    ra, _ = reconstruct_wavefunction(state, "a")
    rb, _ = reconstruct_wavefunction(state, "b")
    assert np.linalg.norm(np.abs(ra) ** 2 - np.abs(psi_a) ** 2) < 0.02
    assert np.linalg.norm(np.abs(rb) ** 2 - np.abs(psi_b) ** 2) < 0.02


def test_glue_interference_condition():
    """Constituent states that are not consistent with a position-independent
    internal state are rejected."""
    spec = LatticeSpec((16,))
    x = np.arange(16.0)
    psi_a = np.exp(-((x - 4) ** 2) / 4).astype(complex)
    psi_a /= np.linalg.norm(psi_a)
    psi_b = np.exp(-((x - 9) ** 2) / 16).astype(complex)  # different width
    psi_b /= np.linalg.norm(psi_b)
    rng = np.random.default_rng(4)
    state = sample_from_wavefunction(psi_a, spec, 10000, rng, pid="a")
    sb = sample_from_wavefunction(psi_b, spec, 10000, rng, pid="b")
    state.add_particle("b", sb.fields["b"], sb.scale["b"])
    with pytest.raises(InterferenceConditionError):
        glue(state, {}, "a", "b", com_internal((4,), (9,)), rng)


def test_partial_decay_forbidden():
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (8,))
    registry = {}
    cid = glue(state, registry, "a", "b", com_internal((4,), (8,)),
               np.random.default_rng(0))
    with pytest.raises(SwarmStabilityError):
        decay(state, registry, cid, np.random.default_rng(0), fraction=0.5)


def test_decay_empty_composite():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    registry = {}
    cid = glue(state, registry, "a", "b", com_internal((2,), (5,)),
               np.random.default_rng(0))
    state.fields[cid][:] = 0.0
    a, b = decay(state, registry, cid, np.random.default_rng(0))
    assert state.fields[a].sum() == 0 and state.fields[b].sum() == 0


def test_decay_delta_internal_offsets():
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (5,), (9,))
    registry = {}
    cid = glue(state, registry, "a", "b", com_internal((5,), (9,)),
               np.random.default_rng(0))
    decay(state, registry, cid, np.random.default_rng(1))
    pa, _ = reconstruct_wavefunction(state, "a")
    pb, _ = reconstruct_wavefunction(state, "b")
    # offsets from the rounded center of mass (cell 7): -2 and +2
    assert np.argmax(np.abs(pa)) == 5 and np.argmax(np.abs(pb)) == 9


def test_decay_on_reflecting_lattice():
    """Off a periodic lattice a decay shift must keep support on the lattice:
    one that does succeeds, one whose offset pushes support off fails."""
    spec = LatticeSpec((12,), boundary="reflecting")
    state = two_particle_state(spec, (3,), (7,))
    registry = {}
    cid = glue(state, registry, "a", "b", com_internal((3,), (7,)),
               np.random.default_rng(0))
    decay(state, registry, cid, np.random.default_rng(1))
    pa, _ = reconstruct_wavefunction(state, "a")
    pb, _ = reconstruct_wavefunction(state, "b")
    assert np.argmax(np.abs(pa)) == 3 and np.argmax(np.abs(pb)) == 7

    state = two_particle_state(spec, (1,), (5,))
    cid = glue(state, registry, "a", "b", com_internal((1,), (5,)),
               np.random.default_rng(0))
    state.internal[cid] = com_internal((0,), (12,))  # offsets -6 and +6 from cell 3
    with pytest.raises(DomainError, match="off the lattice"):
        decay(state, registry, cid, np.random.default_rng(1))


def test_decay_requires_composite():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    with pytest.raises(DomainError):
        decay(state, {}, "a", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# correlated measurement

def bell_composite(seed=0):
    spec = LatticeSpec((8,))
    psi = np.zeros(8, dtype=complex)
    psi[2] = psi[6] = 1 / np.sqrt(2)
    rng = np.random.default_rng(seed)
    state = sample_from_wavefunction(psi, spec, 10000, rng, pid="a",
                                     deterministic=True)
    sb = sample_from_wavefunction(psi, spec, 10000, rng, pid="b",
                                  deterministic=True)
    state.add_particle("b", sb.fields["b"], sb.scale["b"])
    registry = {}
    cid = glue(state, registry, "a", "b", BELL, rng)
    return state, registry, cid


def test_measure_correlated_bell():
    state, registry, cid = bell_composite()
    q = AmplitudeQuantum(0.05)
    outcomes = [
        measure_correlated(state.copy(), registry, cid, q,
                           np.random.default_rng([1, k]))
        for k in range(10**4)
    ]
    assert all(a == b for a, b in outcomes)
    first = np.mean([a for a, _ in outcomes])
    sd = np.sqrt(0.25 / 10**4)
    assert abs(first - 0.5) <= 3 * sd


def test_measure_correlated_always_00():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (2,))
    registry = {}
    internal = InternalState((Branch(1.0 + 0j, (0, 0)),))
    cid = glue(state, registry, "a", "b", internal, np.random.default_rng(0))
    q = AmplitudeQuantum(0.05)
    assert all(
        measure_correlated(state.copy(), registry, cid, q, np.random.default_rng(k))
        == (0, 0)
        for k in range(50)
    )


def test_measure_correlated_anticorrelated():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (3,), (3,))
    registry = {}
    internal = InternalState((
        Branch(1 / np.sqrt(2), (0, 1)),
        Branch(1 / np.sqrt(2), (1, 0)),
    ))
    cid = glue(state, registry, "a", "b", internal, np.random.default_rng(0))
    q = AmplitudeQuantum(0.05)
    for k in range(200):
        a, b = measure_correlated(state.copy(), registry, cid, q,
                                  np.random.default_rng(k))
        assert a != b


def test_measure_correlated_rejects_elementary():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    with pytest.raises(DomainError):
        measure_correlated(state, {}, "a", AmplitudeQuantum(0.1),
                           np.random.default_rng(0))


# ---------------------------------------------------------------------------
# hierarchical states / depth classes

def test_hierarchical_reconstructs_amplitudes():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((3, 4, 3)) + 1j * rng.standard_normal((3, 4, 3))
    psi /= np.linalg.norm(psi)
    h = hierarchical_from_amplitudes(psi)
    rebuilt = (
        h.levels[0][:, None, None]
        * h.levels[1][:, :, None]
        * h.levels[2]
    )
    assert np.allclose(rebuilt, psi, atol=1e-12)


def test_depth_product_state_is_zero():
    a = np.array([0.6, 0.8])
    b = np.array([1 / np.sqrt(2), 1 / np.sqrt(2)])
    c = np.array([0.28, 0.96])
    psi = np.einsum("i,j,k->ijk", a, b, c)
    h = hierarchical_from_amplitudes(psi)
    assert depth_class(h, 0)


def test_depth_one_not_zero():
    """Nearest-neighbor correlated chain: conditionals depend on the previous
    coordinate only."""
    rng = np.random.default_rng(1)
    n = 3
    cond = rng.random((n, n)) + 0.2  # lambda(r2 | r1), etc.
    cond /= np.sqrt((cond**2).sum(axis=1, keepdims=True))
    first = np.full(n, 1 / np.sqrt(n))
    psi = first[:, None, None] * cond[:, :, None] * cond[None, :, :]
    h = hierarchical_from_amplitudes(psi)
    assert depth_class(h, 1)
    assert not depth_class(h, 0)


def test_depth_generic_is_maximal():
    rng = np.random.default_rng(2)
    psi = rng.random((3, 3, 3)) + 0.1
    psi /= np.linalg.norm(psi)
    h = hierarchical_from_amplitudes(psi)
    assert depth_class(h, 2)
    assert not depth_class(h, 1)
    assert not depth_class(h, 0)


def test_depth_monotone():
    rng = np.random.default_rng(3)
    psi = rng.random((2, 3, 2, 2))
    psi /= np.linalg.norm(psi)
    h = hierarchical_from_amplitudes(psi)
    found = [p for p in range(4) if depth_class(h, p)]
    assert found  # maximal depth always qualifies
    lowest = min(found)
    assert found == list(range(lowest, 4))


# ---------------------------------------------------------------------------
# determinant / permanent

def test_symmetrized_n1():
    assert symmetrized_amplitude([[2.5 + 1j]], "fermion") == 2.5 + 1j
    assert symmetrized_amplitude([[2.5 + 1j]], "boson") == 2.5 + 1j


def test_symmetrized_2x2_determinant():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert symmetrized_amplitude(M, "fermion") == pytest.approx(
        (1 * 4 - 2 * 3) / np.sqrt(2)
    )
    assert symmetrized_amplitude(M, "boson") == pytest.approx(
        (1 * 4 + 2 * 3) / np.sqrt(2)
    )


def test_pauli_zero_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        col = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        other = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        M = np.stack([col, other, col], axis=1)
        assert symmetrized_amplitude(M, "fermion") == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_row_swap_antisymmetry_exact(n):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        swapped = M.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert symmetrized_amplitude(swapped, "fermion") == -symmetrized_amplitude(M, "fermion")
        assert symmetrized_amplitude(swapped, "boson") == symmetrized_amplitude(M, "boson")


def test_two_fermion_exchange_antisymmetry():
    """psi(r1, r2) = -psi(r2, r1), exactly, for random one-particle states."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        phi = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        r1, r2 = rng.integers(0, 4, size=2)
        M12 = np.array([[phi[0, r1], phi[0, r2]], [phi[1, r1], phi[1, r2]]])
        M21 = np.array([[phi[0, r2], phi[0, r1]], [phi[1, r2], phi[1, r1]]])
        assert symmetrized_amplitude(M12, "fermion") == -symmetrized_amplitude(M21, "fermion")


def test_size_limit():
    with pytest.raises(DomainError):
        symmetrized_amplitude(np.eye(9), "fermion")


def test_fock_state_validation():
    with pytest.raises(DomainError):
        FockState((2, 0), "fermion")
    with pytest.raises(DomainError):
        FockState((1, 0), "parafermion")
    assert FockState((1, 0, 1), "fermion").n_particles == 2


# ---------------------------------------------------------------------------
# disjoint fermion swarms

def test_fermion_union_density_matches_brute_force():
    spec = LatticeSpec((8,))
    psi1 = np.zeros(8, dtype=complex)
    psi2 = np.zeros(8, dtype=complex)
    psi1[:4] = [0.1, 0.5, 0.8, 0.3]
    psi2[4:] = [0.4, 0.7, 0.5, 0.2]
    psi1 /= np.linalg.norm(psi1)
    psi2 /= np.linalg.norm(psi2)
    swarms = place_fermion_swarms([psi1, psi2], spec, 10000,
                                  np.random.default_rng(0), deterministic=True)
    union = union_density(swarms)
    brute = fock_diagonal_density([psi1, psi2], "fermion")
    # per-swarm unit mass vs total mass n
    assert np.abs(union / 2 - brute / 2).max() < 1e-6


def test_fermion_overlap_rejected():
    spec = LatticeSpec((8,))
    psi1 = np.zeros(8, dtype=complex)
    psi2 = np.zeros(8, dtype=complex)
    psi1[:5] = 0.4
    psi2[4:] = 0.5
    with pytest.raises(DisjointnessError):
        place_fermion_swarms([psi1, psi2], spec, 100, np.random.default_rng(0))


def test_swarm_stability_scan():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    state.internal["ghost"] = BELL
    with pytest.raises(SwarmStabilityError):
        assert_swarm_stability(state)
