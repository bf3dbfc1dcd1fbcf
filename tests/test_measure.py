"""Amplitude quantum, reduction, Born sampling and swarm measurement."""

import numpy as np
import pytest

from qswarm import (
    AmplitudeQuantum,
    DegenerateStateError,
    DiscreteState,
    DomainError,
    LatticeSpec,
    TotalReductionError,
    born_measure,
    elementary_event_counts,
    measure_swarm,
    reconstruct_wavefunction,
    reduce_state,
    sample_from_wavefunction,
)


def random_state(rng, n):
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    return DiscreteState(list(range(n)), amps)


def test_quantum_validation():
    with pytest.raises(DomainError):
        AmplitudeQuantum(0.0)
    with pytest.raises(DomainError):
        AmplitudeQuantum(1.5)
    q = AmplitudeQuantum.for_lattice(100)
    assert q.epsilon == pytest.approx(0.1)
    assert q.max_terms == 100


def test_labels_are_one_1d_array():
    """Labels become one 1-D array, one per amplitude; tuple labels, a 2-D
    array, a scalar or a length mismatch is a DomainError."""
    s = DiscreteState(["a", "b"], [0.6, 0.8])
    assert isinstance(s.labels, np.ndarray) and s.labels.shape == (2,)
    for bad in ([(0, 0), (1, 1)], [[0], [1]], 0, [0, 1, 2]):
        with pytest.raises(DomainError):
            DiscreteState(bad, [0.6, 0.8])
    draws = born_measure(s, AmplitudeQuantum(0.1), np.random.default_rng(0), size=5)
    assert isinstance(draws, np.ndarray) and draws.dtype == s.labels.dtype


# ---------------------------------------------------------------------------
# reduce

def test_reduce_single_amplitude_unchanged():
    s = DiscreteState([0], [1.0])
    out = reduce_state(s, AmplitudeQuantum(1.0))
    assert out.labels == [0] and out.amplitudes[0] == 1.0


def test_reduce_drops_small_term():
    s = DiscreteState(["a", "b"], [0.9, np.sqrt(1 - 0.81)])
    out = reduce_state(s, AmplitudeQuantum(0.5))
    assert out.labels == ["a"]
    assert out.amplitudes[0] == pytest.approx(1.0)


def test_reduce_keeps_uniform_at_default_quantum():
    """|amplitude| exactly at epsilon survives, so the default 1/sqrt(N)
    quantum leaves a uniform superposition untouched."""
    N = 16
    s = DiscreteState(list(range(N)), np.full(N, 1.0 / np.sqrt(N)))
    out = reduce_state(s, AmplitudeQuantum.for_lattice(N))
    assert len(out.labels) == N


def test_reduce_total_reduction():
    s = DiscreteState([0, 1], [0.6, 0.8])
    with pytest.raises(TotalReductionError):
        reduce_state(s, AmplitudeQuantum(0.9))


def test_reduce_properties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = random_state(rng, int(rng.integers(2, 20)))
        for eps in (0.5, 0.1):
            try:
                out = reduce_state(s, AmplitudeQuantum(eps))
            except TotalReductionError:
                continue
            assert np.all(np.abs(out.amplitudes) >= eps)
            assert len(out.labels) <= 1.0 / eps**2 + 1e-9
            assert out.norm == pytest.approx(1.0, abs=1e-12)
            again = reduce_state(out, AmplitudeQuantum(eps))
            assert np.array_equal(again.amplitudes, out.amplitudes)  # idempotent
            assert len(again.labels) <= len(s.labels)


# ---------------------------------------------------------------------------
# elementary events / born_measure

def test_counts_single():
    s = DiscreteState([0], [1.0])
    assert elementary_event_counts(s, AmplitudeQuantum(0.1)).tolist() == [100]


def test_counts_36_64():
    s = DiscreteState([0, 1], [0.6, 0.8])
    assert elementary_event_counts(s, AmplitudeQuantum(0.1)).tolist() == [36, 64]


def test_counts_single_event_each():
    s = DiscreteState([0, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert elementary_event_counts(s, AmplitudeQuantum(1 / np.sqrt(2))).tolist() == [1, 1]


def test_counts_approach_born_weights():
    rng = np.random.default_rng(1)
    for eps in (0.1, 0.01):
        q = AmplitudeQuantum(eps)
        for _ in range(20):
            s = random_state(rng, 8)
            l = elementary_event_counts(s, q)
            assert np.abs(l / l.sum() - np.abs(s.amplitudes) ** 2).max() <= 2 * eps**2


def test_born_certain_outcome():
    s = DiscreteState(["x", "y"], [1.0, 0.0])
    rng = np.random.default_rng(0)
    assert all(born_measure(s, AmplitudeQuantum(0.1), rng) == "x" for _ in range(50))


def test_born_36_64_frequencies():
    s = DiscreteState([0, 1], [0.6, 0.8])
    q = AmplitudeQuantum(0.01)
    rng = np.random.default_rng(2)
    n = 10**5
    hits = np.count_nonzero(born_measure(s, q, rng, size=n) == 0)
    sd = np.sqrt(0.36 * 0.64 / n)
    assert abs(hits / n - 0.36) <= 3 * sd


def test_born_uniform_chi_square():
    from scipy import stats

    s = DiscreteState(list(range(4)), np.full(4, 0.5))
    q = AmplitudeQuantum(0.01)
    rng = np.random.default_rng(3)
    n = 10**5
    observed = np.bincount(born_measure(s, q, rng, size=n), minlength=4)
    _, p = stats.chisquare(observed)
    assert p > 0.001


def test_born_random_states_within_3_sigma():
    rng = np.random.default_rng(4)
    q = AmplitudeQuantum(0.005)
    n = 10**5
    for _ in range(20):
        s = random_state(rng, int(rng.integers(2, 17)))
        probs = np.abs(s.amplitudes) ** 2
        freq = np.bincount(born_measure(s, q, rng, size=n), minlength=len(s.labels)) / n
        sd = np.sqrt(probs * (1 - probs) / n)
        # the urn discretizes probabilities at eps^2 granularity
        assert np.all(np.abs(freq - probs) <= 3 * sd + q.epsilon**2)


def test_born_batched_draws_equal_single_draws():
    """``size=n`` gives the labels of n single draws from the same seed and
    leaves the stream where they leave it, on urns of fewer and of more than
    2^32 elementary events."""
    s = DiscreteState(["a", "b", "c"], np.sqrt([0.5, 0.3, 0.2]))
    totals = []
    for eps in (0.5, 0.01, 1e-4, 2.0**-16, 1e-5, 1e-6, 2.0**-31):
        q = AmplitudeQuantum(eps)
        totals.append(int(elementary_event_counts(s, q).sum()))
        batch_rng, single_rng = np.random.default_rng(8), np.random.default_rng(8)
        batch = born_measure(s, q, batch_rng, size=1000)
        single = [born_measure(s, q, single_rng) for _ in range(1000)]
        assert np.array_equal(batch, single)
        assert all(isinstance(label, str) for label in single)
        assert batch_rng.random() == single_rng.random()
    assert set(batch) == {"a", "b", "c"}
    assert min(totals) < 2**32 < max(totals) and max(totals) > 2**62


def test_born_degenerate():
    s = DiscreteState([0, 1], [0.05, 0.02])
    with pytest.raises(DegenerateStateError):
        born_measure(s, AmplitudeQuantum(1.0), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# measure_swarm

def gaussian_swarm(spec, rng, K=20000):
    x = np.arange(spec.dims[0], dtype=float)
    psi = np.exp(-((x - spec.dims[0] / 2) ** 2) / 10).astype(complex)
    psi /= np.linalg.norm(psi)
    return sample_from_wavefunction(psi, spec, K, rng)


def test_measure_concentrated_swarm():
    spec = LatticeSpec((8,))
    psi = np.zeros(8, dtype=complex)
    psi[5] = 1.0
    rng = np.random.default_rng(0)
    s = sample_from_wavefunction(psi, spec, 100, rng)
    q = AmplitudeQuantum.for_lattice(8)
    cell, out = measure_swarm(s, q, rng)
    assert cell == (5,)
    rec, _ = reconstruct_wavefunction(out)
    assert rec[5] == pytest.approx(1.0)


def test_measure_two_cell_statistics():
    spec = LatticeSpec((2,))
    psi = np.array([0.6, 0.8], dtype=complex)
    base = sample_from_wavefunction(psi, spec, 10000, np.random.default_rng(0),
                                    deterministic=True)
    q = AmplitudeQuantum(0.01)
    n = 4000
    hits = sum(
        measure_swarm(base, q, np.random.default_rng([9, k]))[0] == (0,)
        for k in range(n)
    )
    sd = np.sqrt(0.36 * 0.64 / n)
    assert abs(hits / n - 0.36) <= 4 * sd


def test_measure_collapse_idempotent():
    spec = LatticeSpec((16,))
    rng = np.random.default_rng(5)
    s = gaussian_swarm(spec, rng)
    q = AmplitudeQuantum.for_lattice(16)
    cell, collapsed = measure_swarm(s, q, rng)
    for k in range(1000):
        again, collapsed = measure_swarm(collapsed, q, np.random.default_rng(k))
        assert again == cell


def test_measure_support_single_cell():
    spec = LatticeSpec((16,))
    rng = np.random.default_rng(6)
    s = gaussian_swarm(spec, rng)
    _, collapsed = measure_swarm(s, AmplitudeQuantum.for_lattice(16), rng)
    rec, _ = reconstruct_wavefunction(collapsed)
    assert np.count_nonzero(rec) == 1
