"""Four-type swarms: reconstruction, cancellation, resampling, sampling."""

import numpy as np
import pytest

from qswarm import (
    DomainError,
    EmptySwarmError,
    LatticeSpec,
    SwarmState,
    cancel_pairs,
    reconstruct_wavefunction,
    resample,
    sample_from_wavefunction,
    swarm_budget,
)


def make_state(counts, scale=1.0, dims=None):
    counts = np.asarray(counts, dtype=float)
    spec = LatticeSpec(dims or counts.shape[1:])
    s = SwarmState(spec)
    s.add_particle("p0", counts, scale)
    return s


# ---------------------------------------------------------------------------
# reconstruct_wavefunction

def test_reconstruct_single_cell():
    s = make_state(np.array([[4.0, 0], [0, 0], [0, 0], [0, 0]]), scale=4.0)
    psi, norm = reconstruct_wavefunction(s)
    assert psi[0] == pytest.approx(1.0)
    assert psi[1] == 0.0


def test_reconstruct_cancelling_cell():
    counts = np.zeros((4, 2))
    counts[:, 0] = [5, 0, 5, 0]  # fully cancelling
    counts[0, 1] = 1.0
    psi, _ = reconstruct_wavefunction(make_state(counts))
    assert psi[0] == 0.0 and psi[1] == pytest.approx(1.0)


def test_reconstruct_three_four_five():
    counts = np.zeros((4, 2))
    counts[0, 0] = 3.0
    counts[1, 1] = 4.0
    psi, _ = reconstruct_wavefunction(make_state(counts, scale=7.0))
    assert np.allclose(psi, [0.6, 0.8j])


def test_reconstruct_empty_swarm():
    with pytest.raises(EmptySwarmError):
        reconstruct_wavefunction(make_state(np.zeros((4, 3))))


# ---------------------------------------------------------------------------
# cancel_pairs

def test_cancel_min_subtraction():
    counts = np.zeros((4, 2))
    counts[:, 0] = [5, 2, 3, 2]
    out = cancel_pairs(make_state(counts))
    assert np.array_equal(out.fields["p0"][:, 0], [2, 0, 0, 0])


def test_cancel_no_overlap_unchanged():
    counts = np.zeros((4, 2))
    counts[0, 0] = 3
    counts[1, 1] = 2
    out = cancel_pairs(make_state(counts))
    assert np.array_equal(out.fields["p0"], counts)


def test_cancel_preserves_wavefunction():
    rng = np.random.default_rng(7)
    for _ in range(100):
        counts = rng.integers(0, 20, size=(4, 6)).astype(float)
        if not (counts[0] - counts[2]).any() and not (counts[1] - counts[3]).any():
            continue
        s = make_state(counts)
        before, _ = reconstruct_wavefunction(s)
        after, _ = reconstruct_wavefunction(cancel_pairs(s))
        assert np.array_equal(before, after)
        f = cancel_pairs(s).fields["p0"]
        assert np.all(np.minimum(f[0], f[2]) == 0)
        assert np.all(np.minimum(f[1], f[3]) == 0)


# ---------------------------------------------------------------------------
# resample

def test_resample_at_budget_roughly_unchanged():
    spec = LatticeSpec((8,))
    psi = np.exp(-((np.arange(8) - 4.0) ** 2) / 4).astype(complex)
    psi /= np.linalg.norm(psi)
    rng = np.random.default_rng(0)
    s = sample_from_wavefunction(psi, spec, 5000, rng)
    A = s.fields["p0"].sum() / np.abs(psi).sum()
    out = resample(s, A, rng)
    assert out.fields["p0"].sum() == pytest.approx(s.fields["p0"].sum(), rel=0.02)


def test_resample_10x_budget():
    rng = np.random.default_rng(1)
    spec = LatticeSpec((8,))
    psi = np.exp(2j * np.arange(8)) * np.exp(-((np.arange(8) - 4.0) ** 2) / 6)
    psi /= np.linalg.norm(psi)
    misses = 0
    for trial in range(1000):
        s = sample_from_wavefunction(psi, spec, 4000, rng)
        A = s.fields["p0"].sum() / np.abs(psi).sum() / 10.0  # 10x over budget
        out = resample(s, A, rng)
        target = swarm_budget(out, "p0", A)
        if abs(out.fields["p0"].sum() - target) > 0.02 * target:
            misses += 1
    assert misses <= 5  # stochastic rounding: the 2% bound holds essentially always


def test_resample_preserves_expected_wavefunction():
    rng = np.random.default_rng(2)
    spec = LatticeSpec((6,))
    psi = np.array([0.1, 0.5j, -0.3, 0.2, 0.6j, -0.4 + 0.2j])
    psi /= np.linalg.norm(psi)
    acc = np.zeros(6, dtype=complex)
    n = 1000
    for _ in range(n):
        s = sample_from_wavefunction(psi, spec, 3000, rng)
        out = resample(s, 50.0, rng)
        rec, _ = reconstruct_wavefunction(out)
        acc += rec * np.sign(np.vdot(psi, rec).real or 1.0)
    assert np.abs(acc / n - psi).max() < 0.02


def test_resample_drops_cancelling_cell():
    counts = np.zeros((4, 3))
    counts[:, 0] = [7, 0, 7, 0]
    counts[0, 1] = 5
    out = resample(make_state(counts), A=10.0, rng=np.random.default_rng(0))
    assert out.fields["p0"][:, 0].sum() == 0


def test_resample_requires_positive_budget():
    counts = np.zeros((4, 2))
    counts[0, 0] = 1
    with pytest.raises(DomainError):
        resample(make_state(counts), A=0.0, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# sample_from_wavefunction

def test_sample_delta():
    spec = LatticeSpec((5,))
    psi = np.zeros(5, dtype=complex)
    psi[3] = 1.0
    s = sample_from_wavefunction(psi, spec, 100, np.random.default_rng(0))
    f = s.fields["p0"]
    assert f[0, 3] == 100 and f.sum() == 100


def test_sample_imaginary_delta():
    spec = LatticeSpec((5,))
    psi = np.zeros(5, dtype=complex)
    psi[2] = 1.0j
    s = sample_from_wavefunction(psi, spec, 50, np.random.default_rng(0))
    f = s.fields["p0"]
    assert f[1, 2] == 50 and f.sum() == 50


def test_sample_gaussian_reconstruction_error():
    spec = LatticeSpec((64,))
    x = np.arange(64.0)
    psi = np.exp(-((x - 32) ** 2) / 50 + 0.3j * x)
    psi /= np.linalg.norm(psi)
    s = sample_from_wavefunction(psi, spec, 10**6, np.random.default_rng(4))
    rec, _ = reconstruct_wavefunction(s)
    assert np.linalg.norm(rec - psi) < 1e-2


def test_sample_rejects_unnormalized():
    spec = LatticeSpec((4,))
    with pytest.raises(DomainError):
        sample_from_wavefunction(np.ones(4, dtype=complex), spec, 10,
                                 np.random.default_rng(0))
    # a NaN norm must fail the check too, not reach the multinomial draw
    with pytest.raises(DomainError):
        sample_from_wavefunction(np.array([1.0, np.nan, 0.0, 0.0], dtype=complex),
                                 spec, 10, np.random.default_rng(0))


def test_roundtrip_error_scales_as_inverse_sqrt_K():
    rng = np.random.default_rng(11)
    spec = LatticeSpec((64,))
    x = np.arange(64.0)
    psi = np.exp(-((x - 30) ** 2) / 40 + 0.2j * x)
    psi /= np.linalg.norm(psi)
    Ks = [10**3, 10**4, 10**5, 10**6]
    errs = []
    for K in Ks:
        trials = [
            np.linalg.norm(reconstruct_wavefunction(
                sample_from_wavefunction(psi, spec, K, rng))[0] - psi)
            for _ in range(5)
        ]
        errs.append(np.mean(trials))
    slope = np.polyfit(np.log(Ks), np.log(errs), 1)[0]
    assert -0.65 <= slope <= -0.35
