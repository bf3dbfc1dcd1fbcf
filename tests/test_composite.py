"""Gluing/decay, hierarchical depth classes, fermion/boson symmetrization."""

from dataclasses import replace

import numpy as np
import pytest

from qswarm import (
    AmplitudeQuantum,
    Branch,
    Composite,
    DisjointnessError,
    DomainError,
    InternalState,
    InterferenceConditionError,
    LatticeSpec,
    PotentialField,
    StepParams,
    SwarmState,
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
    step_stochastic,
    symmetrized_amplitude,
    union_density,
)


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
    with pytest.raises(TypeError):  # glue draws nothing, so it takes no rng
        glue(state, "a", "b", com_internal((4,), (8,)), np.random.default_rng(0))
    fa, scale = state.fields["a"].copy(), state.scale["a"]
    cid = glue(state, "a", "b", com_internal((4,), (8,)))
    assert np.array_equal(state.fields[cid], np.roll(fa, 2, axis=1))  # a's samples
    assert state.scale[cid] == scale
    psi, _ = reconstruct_wavefunction(state, cid)
    assert np.argmax(np.abs(psi)) == 6  # center of mass
    assert state.internal[cid].constituents == ("a", "b")
    assert state.internal[cid].parts == (None, None)
    assert "a" not in state.fields and "b" not in state.fields


def test_glue_decay_roundtrip():
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (9,), K=30000)
    cid = glue(state, "a", "b", com_internal((4,), (9,)))
    decay(state, cid, np.random.default_rng(2))
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
    # b is a translated by +3, so fix offsets (0, +3) from the composite
    internal = InternalState((Branch(1.0 + 0j, (0, 1), ((0,), (3,))),))
    cid = glue(state, "a", "b", internal)
    decay(state, cid, rng)
    ra, _ = reconstruct_wavefunction(state, "a")
    rb, _ = reconstruct_wavefunction(state, "b")
    assert np.linalg.norm(np.abs(ra) ** 2 - np.abs(psi_a) ** 2) < 0.02
    assert np.linalg.norm(np.abs(rb) ** 2 - np.abs(psi_b) ** 2) < 0.02


def test_nested_glue_decay_roundtrip():
    """(a+b)+d decays to (a+b) and d, and (a+b) in turn to a and b: each
    composite keeps its constituents' records, and a, b and d come back
    with their own densities."""
    spec = LatticeSpec((16,))
    cells = {"a": 3, "b": 6, "d": 11}
    rng = np.random.default_rng(7)
    state = SwarmState(spec)
    for pid, cell in cells.items():
        s = sample_from_wavefunction(delta(spec, cell), spec, 4000, rng, pid=pid)
        state.add_particle(pid, s.fields[pid], s.scale[pid])
    ab = glue(state, "a", "b", com_internal((3,), (6,)))  # at cell 4
    abd = glue(state, ab, "d", com_internal((4,), (11,)))
    assert ab not in state.internal  # its record travels inside the outer one
    assert state.internal[abd].parts == (
        Composite(("a", "b"), com_internal((3,), (6,)), (None, None)), None)
    assert decay(state, abd, rng) == (ab, "d")
    assert state.internal[ab].constituents == ("a", "b") and "d" not in state.internal
    assert decay(state, ab, rng) == ("a", "b")
    assert state.internal == {}
    assert sorted(state.particles()) == ["a", "b", "d"]
    for pid, cell in cells.items():
        psi, _ = reconstruct_wavefunction(state, pid)
        assert np.array_equal(np.abs(psi) ** 2, np.abs(delta(spec, cell)) ** 2)
    with pytest.raises(DomainError, match="not a composite"):
        decay(state, ab, rng)


def gaussian_state(spec, centres, K=5 * 10**4):
    x = np.arange(float(spec.dims[0]))
    state = SwarmState(spec)
    for pid, c in centres.items():
        psi = np.exp(-((x - c) ** 2) / 4).astype(complex)
        s = sample_from_wavefunction(psi / np.linalg.norm(psi), spec, K, None,
                                     pid=pid, deterministic=True)
        state.add_particle(pid, s.fields[pid], s.scale[pid])
    return state


def test_nested_spread_glue_decay_roundtrip():
    """Composites of spread states nest: Gaussians at cells 10 and 13 glue
    into (a+b) at cell 11, which glues with a third at cell 18.  Decaying
    both levels gives a back bit for bit and b, d with their own states."""
    spec = LatticeSpec((32,))
    centres = {"a": 10, "b": 13, "d": 18}
    state = gaussian_state(spec, centres)
    psis = {pid: reconstruct_wavefunction(state, pid)[0] for pid in centres}
    fa, scale = state.fields["a"].copy(), state.scale["a"]
    ab = glue(state, "a", "b", com_internal((10,), (13,)))
    abd = glue(state, ab, "d", com_internal((11,), (18,)))
    assert np.array_equal(state.fields[abd], np.roll(fa, 4, axis=1))
    rng = np.random.default_rng(0)
    decay(state, abd, rng)
    decay(state, ab, rng)
    assert np.array_equal(state.fields["a"], fa) and state.scale["a"] == scale
    for pid, psi in psis.items():
        assert np.allclose(reconstruct_wavefunction(state, pid)[0], psi, rtol=0, atol=1e-12)


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
        glue(state, "a", "b", com_internal((4,), (9,)))


def test_decay_empty_composite():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    cid = glue(state, "a", "b", com_internal((2,), (5,)))
    state.fields[cid][:] = 0.0
    a, b = decay(state, cid, np.random.default_rng(0))
    assert state.fields[a].sum() == 0 and state.fields[b].sum() == 0


def test_decay_delta_internal_offsets():
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (5,), (9,))
    cid = glue(state, "a", "b", com_internal((5,), (9,)))
    decay(state, cid, np.random.default_rng(1))
    pa, _ = reconstruct_wavefunction(state, "a")
    pb, _ = reconstruct_wavefunction(state, "b")
    # offsets from the rounded center of mass (cell 7): -2 and +2
    assert np.argmax(np.abs(pa)) == 5 and np.argmax(np.abs(pb)) == 9


def test_decay_on_reflecting_lattice():
    """Off a periodic lattice a decay shift must keep support on the lattice:
    one that does succeeds, one whose offset pushes support off fails."""
    spec = LatticeSpec((12,), boundary="reflecting")
    state = two_particle_state(spec, (3,), (7,))
    cid = glue(state, "a", "b", com_internal((3,), (7,)))
    decay(state, cid, np.random.default_rng(1))
    pa, _ = reconstruct_wavefunction(state, "a")
    pb, _ = reconstruct_wavefunction(state, "b")
    assert np.argmax(np.abs(pa)) == 3 and np.argmax(np.abs(pb)) == 7

    state = two_particle_state(spec, (1,), (5,))
    cid = glue(state, "a", "b", com_internal((1,), (5,)))
    # offsets -6 and +6 from cell 3
    state.internal[cid] = replace(state.internal[cid], internal=com_internal((0,), (12,)))
    with pytest.raises(DomainError, match="off the lattice"):
        decay(state, cid, np.random.default_rng(1))


def test_failed_decay_leaves_state_untouched():
    """Both translations are made before the state changes: a decay whose
    b offset leaves a reflecting lattice raises and keeps the composite."""
    spec = LatticeSpec((12,), boundary="reflecting")
    state = two_particle_state(spec, (1,), (5,))
    cid = glue(state, "a", "b", com_internal((1,), (5,)))  # at cell 3
    off_lattice = InternalState((Branch(1.0 + 0j, (0, 1), ((0,), (10,))),))
    state.internal[cid] = replace(state.internal[cid], internal=off_lattice)
    fields = {pid: f.copy() for pid, f in state.fields.items()}
    scale, records = dict(state.scale), dict(state.internal)
    with pytest.raises(DomainError, match="off the lattice"):
        decay(state, cid, np.random.default_rng(1))
    assert state.particles() == [cid]
    assert np.array_equal(state.fields[cid], fields[cid])
    assert state.scale == scale and state.internal == records


def test_decay_draws_the_branch_law():
    """Branch amplitudes sqrt(0.3), sqrt(0.7) with b's offset 0 and 2: on a
    plane wave with k = 2 pi/8, b's phase relative to a (1 or -i) names
    the drawn branch, whose frequency must follow |amplitude|^2."""
    spec = LatticeSpec((8,))
    wave = np.exp(2j * np.pi / 8 * np.arange(8)) / np.sqrt(8)
    state = SwarmState(spec)
    for pid in ("a", "b"):
        s = sample_from_wavefunction(wave, spec, 10**4, None, pid=pid,
                                     deterministic=True)
        state.add_particle(pid, s.fields[pid], s.scale[pid])
    internal = InternalState((
        Branch(np.sqrt(0.3), (0, 0), ((0,), (0,))),
        Branch(np.sqrt(0.7), (0, 1), ((0,), (2,))),
    ))
    cid = glue(state, "a", "b", internal)
    draws, first = 4000, 0
    for k in range(draws):
        s = state.copy()
        decay(s, cid, np.random.default_rng([2, k]))
        phase = np.vdot(reconstruct_wavefunction(s, "a")[0],
                        reconstruct_wavefunction(s, "b")[0])
        assert abs(phase - 1) < 1e-9 or abs(phase + 1j) < 1e-9
        first += abs(phase - 1) < 1e-9
    assert abs(first / draws - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / draws)


@pytest.mark.parametrize("boundary", ["periodic", "reflecting", "absorbing"])
def test_shift_equals_roll_where_support_fits(boundary):
    """A translation equals np.roll wherever it succeeds; off a periodic
    lattice it fails exactly when support above 1e-12 would leave, whole
    axis included."""
    import qswarm.composite as composite

    spec = LatticeSpec((6, 5, 4), boundary=boundary)
    psi = np.zeros(spec.dims, dtype=complex)
    psi[2:4, 1:3, 1] = 1.0 + 0.5j
    psi[0, 0, 0] = 1e-13  # below the threshold: may be dropped
    out = composite._shift(psi, (2, 0, -1), spec)
    inside = np.where(np.abs(psi) > 1e-12, psi, 0)
    expect = np.roll(psi if boundary == "periodic" else inside, (2, -1), axis=(0, 2))
    assert np.array_equal(out, expect)
    for off in ((3, 0, 0), (0, -2, 0), (0, 0, 4), (-6, 0, 0)):
        if boundary == "periodic":
            assert np.array_equal(composite._shift(psi, off, spec),
                                  np.roll(psi, off, axis=(0, 1, 2)))
        else:
            with pytest.raises(DomainError, match="off the lattice"):
                composite._shift(psi, off, spec)
    if boundary != "periodic":
        assert not composite._shift(np.zeros(spec.dims), (0, 0, 9), spec).any()
    # a (4, *dims) count field moves along its trailing lattice axes
    counts = np.stack([psi.real, psi.imag, np.abs(psi), np.zeros(spec.dims)])
    out = composite._shift(counts, (2, 0, -1), spec)
    inside = np.where(np.abs(counts) > 1e-12, counts, 0)
    expect = np.roll(counts if boundary == "periodic" else inside, (2, -1), axis=(1, 3))
    assert np.array_equal(out, expect)
    assert composite._shift(counts, (0, 0, 0), spec) is not counts


def test_add_particle_refuses_a_glued_id():
    """Re-adding a composite's id raises and keeps the composite's record,
    so decay still splits the composite, not a plain particle."""
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, 4, 8)
    cid = glue(state, "a", "b", InternalState((Branch(1.0, (0, 1), ((0,), (4,))),)))
    counts, record = state.fields[cid].copy(), state.internal[cid]
    with pytest.raises(DomainError, match="is in use"):
        state.add_particle(cid, np.eye(16)[0] * [[1.0], [0], [0], [0]], 1.0)
    assert np.array_equal(state.fields[cid], counts) and state.internal[cid] is record
    assert decay(state, cid, np.random.default_rng(0)) == ("a", "b")
    for pid, cell in (("a", 4), ("b", 8)):
        assert np.allclose(reconstruct_wavefunction(state, pid)[0], delta(spec, cell))


def test_decay_requires_composite():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    with pytest.raises(DomainError):
        decay(state, "a", np.random.default_rng(0))


def test_glue_decay_keep_in_flight_photons():
    """Photon cohorts launched by a step move with the samples: the
    composite holds a's cohorts, translated like a's field, and decay gives
    each constituent the composite's cohorts at its own offset."""
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (9,), K=1000)
    state = step_stochastic(state, PotentialField.zero(spec), StepParams(dt=0.1, dt_phot=0.3),
                            np.random.default_rng(1), normalize=False)
    cohorts = state.photons["a"]
    assert cohorts and all(c.population() > 0 for c in cohorts)
    pop_a = state.population("a")
    assert pop_a > state.fields["a"].sum()
    cid = glue(state, "a", "b", com_internal((4,), (9,)))  # a sits at offset -2
    assert state.population(cid) == pop_a
    for c, c0 in zip(state.photons[cid], cohorts, strict=True):
        assert np.array_equal(c.counts, np.roll(c0.counts, 2, axis=1))
        assert np.array_equal(c.pending, np.roll(c0.pending, 2, axis=1))
        assert c.age == c0.age
    decay(state, cid, np.random.default_rng(2))
    assert state.population("a") == state.population("b") == pop_a
    for pid, shift in (("a", 0), ("b", 5)):
        for c, c0 in zip(state.photons[pid], cohorts, strict=True):
            assert np.array_equal(c.counts, np.roll(c0.counts, shift, axis=1))
            assert np.array_equal(c.pending, np.roll(c0.pending, shift, axis=1))


def snapshot(state):
    return ({k: v.copy() for k, v in state.fields.items()}, dict(state.scale),
            dict(state.internal), {k: list(v) for k, v in state.photons.items()})


def assert_unchanged(state, before):
    fields, scale, internal, photons = before
    assert state.fields.keys() == fields.keys()
    assert all(np.array_equal(state.fields[k], fields[k]) for k in fields)
    assert state.scale == scale and state.internal == internal
    assert state.photons == photons


def test_glue_of_photons_off_a_reflecting_lattice_fails():
    """a's field fits after the translation but a photon one hop beyond it
    does not: glue raises and the state is left as it was."""
    spec = LatticeSpec((7,), boundary="reflecting")
    state = two_particle_state(spec, (1,), (6,), K=1000)
    V, p = PotentialField.zero(spec), StepParams(dt=0.1, dt_phot=0.3)
    for seed in (1, 2):  # one hop, no cohort converts yet
        state = step_stochastic(state, V, p, np.random.default_rng(seed), normalize=False)
    assert np.flatnonzero(state.fields["a"].sum(axis=0)).tolist() == [1]
    assert sum(c.counts[:, 2].sum() for c in state.photons["a"]) > 0
    composite_at_b = InternalState((Branch(1.0 + 0j, (0, 1), ((-5,), (0,))),))
    before = snapshot(state)
    with pytest.raises(DomainError, match="off the lattice"):
        glue(state, "a", "b", composite_at_b)  # moves a's cell 2 to cell 7
    assert_unchanged(state, before)


def test_glue_rejects_an_id_in_use():
    """A composite id naming a third particle, or a particle glued to
    itself, is an error and the state is left as it was."""
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (8,))
    other = sample_from_wavefunction(delta(spec, 12), spec, 100, np.random.default_rng(1),
                                     pid="(a+b)")
    state.add_particle("(a+b)", other.fields["(a+b)"], other.scale["(a+b)"])
    before = snapshot(state)
    with pytest.raises(DomainError, match="existing particle"):
        glue(state, "a", "b", com_internal((4,), (8,)))
    with pytest.raises(DomainError, match="itself"):
        glue(state, "a", "a", com_internal((4,), (4,)))
    assert_unchanged(state, before)


def test_decay_rejects_an_id_in_use():
    """Decay into a constituent id another particle has taken since the
    glue is an error and the state is left as it was."""
    spec = LatticeSpec((16,))
    state = two_particle_state(spec, (4,), (8,))
    cid = glue(state, "a", "b", com_internal((4,), (8,)))
    other = sample_from_wavefunction(delta(spec, 12), spec, 100, np.random.default_rng(1), pid="b")
    state.add_particle("b", other.fields["b"], other.scale["b"])
    before = snapshot(state)
    with pytest.raises(DomainError, match="existing particles"):
        decay(state, cid, np.random.default_rng(0))
    assert_unchanged(state, before)


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
    cid = glue(state, "a", "b", BELL)
    return state, cid


def test_measure_correlated_bell():
    state, cid = bell_composite()
    q = AmplitudeQuantum(0.05)
    outcomes = [
        measure_correlated(state.copy(), cid, q,
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
    internal = InternalState((Branch(1.0 + 0j, (0, 0)),))
    cid = glue(state, "a", "b", internal)
    q = AmplitudeQuantum(0.05)
    assert all(
        measure_correlated(state.copy(), cid, q, np.random.default_rng(k))
        == (0, 0)
        for k in range(50)
    )


def test_measure_correlated_anticorrelated():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (3,), (3,))
    internal = InternalState((
        Branch(1 / np.sqrt(2), (0, 1)),
        Branch(1 / np.sqrt(2), (1, 0)),
    ))
    cid = glue(state, "a", "b", internal)
    q = AmplitudeQuantum(0.05)
    for k in range(200):
        a, b = measure_correlated(state.copy(), cid, q,
                                  np.random.default_rng(k))
        assert a != b


def test_measure_correlated_rejects_elementary():
    spec = LatticeSpec((8,))
    state = two_particle_state(spec, (2,), (5,))
    with pytest.raises(DomainError):
        measure_correlated(state, "a", AmplitudeQuantum(0.1),
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


def test_hierarchical_zero_marginal_reconstructs():
    """A zero row has a zero marginal: the conditionals below it are
    uniform, and the table still reconstructs."""
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    psi[1] = 0.0
    psi /= np.linalg.norm(psi)
    h = hierarchical_from_amplitudes(psi)
    rebuilt = h.levels[0][:, None, None] * h.levels[1][:, :, None] * h.levels[2]
    assert np.abs(rebuilt - psi).max() <= 1e-14
    assert np.array_equal(h.levels[1][1], np.full(4, 0.5))
    assert np.allclose(h.levels[2][1], 1 / np.sqrt(2))


def test_hierarchical_one_axis_keeps_phases():
    """A 1-D table is its own only level: the phases are kept, not just the
    magnitudes."""
    psi = np.array([1, 1j, -1, -1j]) / 2
    h = hierarchical_from_amplitudes(psi)
    assert len(h.levels) == 1
    assert np.abs(h.levels[0] - psi).max() <= 1e-15


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


_X16 = np.arange(16) - 7.5


@pytest.mark.parametrize("a", [
    np.exp(-(_X16 / 5) ** 2),
    np.exp(-(_X16 / 5) ** 2) * np.sign(_X16 - 1.9),
    np.exp(-(_X16 / 5) ** 2 + 0.4j * _X16),
    (np.abs(_X16) < 2).astype(float),
], ids=["positive", "sign-change", "phase", "zero-rows"])
def test_depth_product_with_outer_signs_phases_and_zeros_is_zero(a):
    """psi = a(r1) b(r2) with a complex b is depth 0 whatever the outer
    factor: its sign and phase are a phase of the last level's rows, and the
    rows where it vanishes carry no amplitude."""
    b = np.exp(-(_X16 / 4) ** 2 + 0.3j * _X16)
    psi = np.multiply.outer(a, b)
    h = hierarchical_from_amplitudes(psi / np.linalg.norm(psi))
    assert depth_class(h, 0)


def test_depth_keeps_a_row_phase_the_outer_levels_cannot_absorb():
    """On three axes e^{0.7i r1 r2} is a phase of the last level's rows too,
    but a depth-0 middle level cannot carry it: it entangles r1 with r2."""
    rng = np.random.default_rng(0)
    a, b, c = rng.random((3, 5)) + 0.1
    r = np.arange(5)
    psi = np.einsum("i,j,k->ijk", a, b, c) * np.exp(0.7j * np.multiply.outer(r, r))[..., None]
    h = hierarchical_from_amplitudes(psi / np.linalg.norm(psi))
    assert not depth_class(h, 0)
    assert depth_class(h, 1)


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
