"""Mean-field and stochastic integrators."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qswarm import (
    AmplitudeQuantum,
    Boundary,
    ComplexField,
    ConfigError,
    DomainError,
    FieldGrid,
    LatticeSpec,
    MemoryBudgetError,
    PotentialField,
    StepParams,
    SwarmState,
    calibrated_emission_rate,
    cancel_pairs,
    check_meanfield_stability,
    density_error,
    diffuse_field,
    diffusion_coefficient,
    field_laplacian,
    free_gaussian_1d,
    measure_swarm,
    reconstruct_wavefunction,
    reference_evolve,
    resample,
    sample_from_wavefunction,
    step_meanfield,
    step_stochastic,
)
from qswarm import dynamics
from qswarm.cli import step_rng
from qswarm.dynamics import _NEXT, _PREV, _diffuse_counts, meanfield_update
from qswarm.lattice import _add_inflow
from qswarm.swarm import PhotonCohort, _stochastic_round


def state_from_counts(counts, spec, scale=1.0):
    s = SwarmState(spec)
    s.add_particle("p0", np.asarray(counts, dtype=float), scale)
    return s


# ---------------------------------------------------------------------------
# StepParams / calibration

def test_step_params_validation():
    with pytest.raises(ConfigError):
        StepParams(dt=0.0)
    with pytest.raises(TypeError):
        StepParams(dt=0.1, p_phot=1.0)  # every photon hops: no stay probability
    with pytest.raises(ConfigError):
        StepParams(dt=0.1, dt_phot=0.05)
    with pytest.raises(ConfigError):
        StepParams(dt=0.1, A=0.0)
    for bad in ({"dt": np.inf}, {"dt": np.nan}, {"dt_phot": np.nan},
                {"dt_phot": np.inf}, {"A": np.inf}, {"A": np.nan}):
        with pytest.raises(ConfigError, match="finite"):
            StepParams(**{"dt": 0.1, **bad})
    with pytest.raises(TypeError):
        StepParams(dt=0.1, max_population=100.0)  # memory does not grow with the count
    assert StepParams(dt=0.1).dt_phot == 0.1
    assert StepParams(dt=0.1, dt_phot=0.5).n_age == 5


def test_step_params_reject_a_lifetime_of_infinite_steps():
    """dt_phot/dt past the float range would leave n_age no whole number."""
    with pytest.raises(ConfigError, match="dt_phot"):
        StepParams(dt=0.1, dt_phot=1e308)
    with pytest.raises(ConfigError, match="dt_phot"):
        StepParams(dt=np.float64(1e-10), dt_phot=np.float64(1e300))
    assert StepParams(dt=1.0, dt_phot=1e300).n_age == int(1e300)


def test_calibration_matches_diffusion_coefficient():
    """One photon hop acts as I + c*Lap; the emission rate must be 1/c."""
    spec = LatticeSpec((16,))
    p = StepParams(dt=0.1)  # n_age = 1
    c = diffusion_coefficient(spec, stay_prob=0.0)
    assert calibrated_emission_rate(spec, p) == pytest.approx(1.0 / c)
    # the underlying identity: D - I = c * Lap, exactly
    rng = np.random.default_rng(0)
    f = FieldGrid(spec, rng.random(spec.dims))
    moved = diffuse_field(f, 0.0).values - f.values
    assert np.allclose(moved, c * field_laplacian(f).values, atol=1e-12)


def test_calibration_rejects_a_non_finite_rate():
    """r = 2d/(n_age*h^2) overflows for a tiny cell spacing: the lattice
    rejects that spacing with an error that names it, not a ZeroDivisionError."""
    p = StepParams(dt=0.1)
    for h in (1e-300, 1e-160):
        with pytest.raises(DomainError, match="cell spacing"):
            calibrated_emission_rate(LatticeSpec((16,), h=h), p)
    assert calibrated_emission_rate(LatticeSpec((16,), h=1e-100), p) == pytest.approx(2e200)


def test_potential_rejects_non_finite():
    spec = LatticeSpec((4,))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            PotentialField(FieldGrid(spec, np.array([0.0, bad, 1.0, 0.0])))


def test_stability_bound():
    spec = LatticeSpec((16,))
    V = PotentialField.zero(spec)
    check_meanfield_stability(spec, V, StepParams(dt=0.5))  # dt = h^2/(2d)
    with pytest.raises(ConfigError):
        check_meanfield_stability(spec, V, StepParams(dt=0.51))
    strong = PotentialField(FieldGrid(spec, np.full(spec.dims, 4.0)))
    with pytest.raises(ConfigError):
        check_meanfield_stability(spec, strong, StepParams(dt=0.5))


# ---------------------------------------------------------------------------
# mean-field stepper

def test_meanfield_uniform_state_unchanged():
    spec = LatticeSpec((8,))
    counts = np.zeros((4, 8))
    counts[0] = 5.0
    out = meanfield_update(counts, PotentialField.zero(spec), spec,
                           StepParams(dt=0.3))
    assert np.array_equal(out, counts)


def test_meanfield_reproduces_complex_update():
    """The staggered four-field step is exactly a Schrodinger update on
    (s1-s3) + i(s2-s4)."""
    rng = np.random.default_rng(5)
    spec = LatticeSpec((32,))
    V = PotentialField(FieldGrid(spec, rng.standard_normal(spec.dims)))
    p = StepParams(dt=0.05)
    counts = rng.random((4, *spec.dims)) * 10

    out = meanfield_update(counts, V, spec, p)

    def lap(v):
        return field_laplacian(FieldGrid(spec, v)).values

    re = counts[0] - counts[2]
    im = counts[1] - counts[3]
    v = V.grid.values
    re_new = re - p.dt * (lap(im) - v * im)
    im_new = im + p.dt * (lap(re_new) - v * re_new)
    assert np.allclose(out[0] - out[2], re_new, atol=1e-12)
    assert np.allclose(out[1] - out[3], im_new, atol=1e-12)
    assert np.all(out >= 0)


def test_meanfield_norm_drift():
    """Unitarity proxy: relative norm drift per step below 1e-3 with V=0."""
    spec = LatticeSpec((64,))
    x = np.arange(64.0)
    psi = np.exp(-((x - 32) ** 2) / 64 + 0.4j * x)
    psi /= np.linalg.norm(psi)
    s = sample_from_wavefunction(psi, spec, 10**5, np.random.default_rng(0),
                                 deterministic=True)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.2)
    _, prev = reconstruct_wavefunction(s)
    for _ in range(50):
        s = step_meanfield(s, V, p)
        _, norm = reconstruct_wavefunction(s)
        assert abs(norm - prev) / prev <= 1e-3
        prev = norm


def staggered_norm_drift(spec, v, dt_share, steps, seed):
    """Largest relative change of Visscher's staggered norm
    Q_n = sum re_n^2 + sum im_n im_{n-1} (im_{n-1} from before step n) over
    ``steps`` meanfield_update steps of a random state, at ``dt_share`` of
    the stability bound dt*(4d/h^2 + max|V|) <= 2."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(spec.dims) + 1j * rng.standard_normal(spec.dims)
    f = sample_from_wavefunction(psi / np.linalg.norm(psi), spec, 10**6, rng,
                                 deterministic=True).fields["p0"]
    V = PotentialField(FieldGrid(spec, v))
    p = StepParams(dt=dt_share * 2 / (4 * spec.ndim / spec.h**2 + np.abs(v).max()))
    q = np.empty(steps)
    for n in range(steps):
        im_before = f[1] - f[3]
        f = meanfield_update(f, V, spec, p)
        re, im = f[0] - f[2], f[1] - f[3]
        q[n] = np.vdot(re, re) + np.vdot(im, im_before)
    return np.abs(q - q[0]).max() / q[0]


@pytest.mark.parametrize("dims, boundary", [
    ((256,), Boundary.ABSORBING),
    ((32, 32), Boundary.REFLECTING),
    ((12, 12, 12), Boundary.PERIODIC),
], ids=["256-absorbing", "32x32-reflecting", "12x12x12-periodic"])
def test_meanfield_conserves_the_staggered_norm_over_long_runs(dims, boundary):
    """10^4 steps at 0.9 of the stability bound with a signed V of unit
    standard deviation: the staggered step keeps Q to rounding, where the
    plain norm sum(re^2 + im^2) swings by 11-17 %."""
    spec = LatticeSpec(dims, boundary=boundary)
    v = np.random.default_rng(7).standard_normal(dims)
    assert staggered_norm_drift(spec, v, 0.9, 10**4, seed=8) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_meanfield_conserves_the_staggered_norm_for_any_potential(data):
    """Q is kept to rounding for any signed V, boundary and dt up to 0.95 of
    the stability bound, over 500 steps."""
    dims = tuple(data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
    spec = LatticeSpec(dims, h=data.draw(st.floats(0.5, 2)),
                       boundary=data.draw(st.sampled_from(list(Boundary))))
    v = data.draw(hnp.arrays(float, dims, elements=st.floats(-10, 10)))
    share = data.draw(st.floats(0.01, 0.95))
    assert staggered_norm_drift(spec, v, share, 500, seed=data.draw(st.integers(0, 99))) <= 1e-12


SLAB_LATTICES = [(40,), (9, 5), (2, 7), (13, 4, 3), (2, 3, 4)]


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("dims", SLAB_LATTICES, ids=str)
def test_meanfield_slabs_give_one_result(monkeypatch, dims, boundary):
    """The blocked step is bit-identical for any slab size and is the
    acceptance-11 formula.  At 1, 5, 17 and 24 cells a slab the lattices
    split into slabs of 1 to 17 planes, among them a 2-plane axis 0 split in
    two and a last slab of one plane after 2-plane ones (13x4x3 at 24)."""
    rng = np.random.default_rng(11)
    spec = LatticeSpec(dims, h=0.8, boundary=boundary)
    v = rng.standard_normal(dims)
    V = PotentialField(FieldGrid(spec, v))
    p = StepParams(dt=0.9 * 2 / (4 * spec.ndim / spec.h**2 + np.abs(v).max()))
    counts = rng.random((4, *dims)) * 10
    outs = []
    for cells in (1, 5, 17, 24, dynamics._SLAB_CELLS):
        monkeypatch.setattr(dynamics, "_SLAB_CELLS", cells)
        outs.append(meanfield_update(counts, V, spec, p))
    assert all(np.array_equal(out, outs[-1]) for out in outs)

    def lap(x):
        return field_laplacian(FieldGrid(spec, x)).values

    re, im = counts[0] - counts[2], counts[1] - counts[3]
    re_new = re - p.dt * (lap(im) - v * im)
    im_new = im + p.dt * (lap(re_new) - v * re_new)
    np.testing.assert_allclose(outs[0][0] - outs[0][2], re_new, rtol=0, atol=1e-12)
    np.testing.assert_allclose(outs[0][1] - outs[0][3], im_new, rtol=0, atol=1e-12)


def raw_unit(shape, seed):
    """Doubles in [0, 1) from the top 53 bits of raw PCG64 words."""
    raw = np.random.PCG64(seed).random_raw(int(np.prod(shape)))
    return ((raw >> np.uint64(11)).astype(float) * 2.0**-53).reshape(shape)


def meanfield_case(case):
    """(spec, counts, V, p) of a pinned mean-field step, with a signed V."""
    dims, boundary = {"1d-slabs": ((40,), "periodic"), "2d": ((9, 7), "reflecting"),
                      "3d": ((5, 4, 6), "absorbing")}[case]
    spec = LatticeSpec(dims, h=0.8, boundary=boundary)
    v = (raw_unit(dims, 21) - 0.5) * 4.0
    p = StepParams(dt=0.9 * 2 / (4 * spec.ndim / spec.h**2 + float(np.abs(v).max())))
    return spec, raw_unit((4, *dims), 22) * 10.0, PotentialField(FieldGrid(spec, v)), p


@pytest.mark.parametrize("case, digest", [
    ("1d-slabs", "d6b70994662c819ffaf5f485fe6c6632971c96cecc3bab02e12e01297b626425"),
    ("2d", "a1aa14c2cde776b43037a36811f3996e97e3d9ff51c3bb20a7f99b50dde0c6ac"),
    ("3d", "246071cb437dae54ab8048865c6679c5a7e2ab34d3d97805de40c44d3911c443"),
])
def test_meanfield_update_keeps_its_bits(case, digest, monkeypatch):
    """The mean-field step is pinned: the sha256 of one update's output,
    with signed zeros made +0 (the sign np.maximum gives a zero may differ
    between builds).  The inputs come from raw PCG64 words, so every
    supported numpy gives these; a rewritten stencil must too.  The 1D line
    splits into five slabs of 7 planes and a last one of 5."""
    if case == "1d-slabs":
        monkeypatch.setattr(dynamics, "_SLAB_CELLS", 7)
    spec, counts, V, p = meanfield_case(case)
    out = meanfield_update(counts, V, spec, p) + 0.0
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_meanfield_slabs_keep_the_staggered_norm(monkeypatch):
    """Slabs of 7 cells, under one plane of a 3D reflecting lattice: Q is
    kept to rounding over 500 steps."""
    monkeypatch.setattr(dynamics, "_SLAB_CELLS", 7)
    spec = LatticeSpec((6, 4, 3), boundary=Boundary.REFLECTING)
    v = np.random.default_rng(7).standard_normal(spec.dims)
    assert staggered_norm_drift(spec, v, 0.9, 500, seed=8) <= 1e-12


# ---------------------------------------------------------------------------
# stochastic stepper

def test_stochastic_empty_swarm():
    spec = LatticeSpec((8,))
    s = state_from_counts(np.zeros((4, 8)), spec)
    out = step_stochastic(s, PotentialField.zero(spec),
                          StepParams(dt=0.1), np.random.default_rng(0))
    assert out.population() == 0


def test_stochastic_single_sample_conversion():
    """One type-1 sample at the calibrated rate 2 (1D, dt = dt_phot = 1)
    emits exactly two photons; after two steps they sit as two
    type-2 samples on the neighboring cells, and their two paired
    compensation samples of type 4 on the source cell."""
    spec = LatticeSpec((8,))
    counts = np.zeros((4, 8))
    counts[0, 3] = 1.0
    s = state_from_counts(counts, spec)
    p = StepParams(dt=1.0, dt_phot=1.0)
    assert calibrated_emission_rate(spec, p) == 2.0
    rng = np.random.default_rng(0)
    V = PotentialField.zero(spec)
    s = step_stochastic(s, V, p, rng, normalize=False)
    s = step_stochastic(s, V, p, rng, normalize=False)
    f = s.fields["p0"]
    assert f[0].sum() == 1.0 and f[0, 3] == 1.0
    assert f[1].sum() == 2.0 and f[1, 2] + f[1, 4] == 2.0
    assert f[3].sum() == 2.0 and f[3, 3] == 2.0
    assert f[2].sum() == 0.0


def test_stochastic_potential_events():
    """V > 0 spawns the predecessor type, V < 0 its negation.  The photons
    emitted in the same step convert only in the next one."""
    spec = LatticeSpec((4,))
    V = PotentialField(FieldGrid(spec, np.array([1.0, 0, -1.0, 0])))
    p = StepParams(dt=1.0)
    counts = np.zeros((4, 4))
    counts[0, 0] = 1.0  # type 1 where V=+1
    counts[0, 2] = 1.0  # type 1 where V=-1
    s = state_from_counts(counts, spec)
    out = step_stochastic(s, V, p, np.random.default_rng(0), normalize=False)
    f = out.fields["p0"]
    assert f[3, 0] == 1.0  # type 4 spawned (predecessor of type 1)
    assert f[1, 2] == 1.0  # negated predecessor = type 2
    assert f.sum() == 4.0  # nothing else landed in the fields


def test_stochastic_locality():
    """Support grows at most one cell per photon hop per step."""
    spec = LatticeSpec((31,))
    counts = np.zeros((4, 31))
    counts[0, 15] = 1000.0
    s = state_from_counts(counts, spec)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.1, dt_phot=0.1)
    for step in range(1, 6):
        s = step_stochastic(s, V, p, np.random.default_rng(step), normalize=False)
        occupied = np.nonzero(s.fields["p0"].sum(axis=0))[0]
        assert occupied.min() >= 15 - step and occupied.max() <= 15 + step


def test_stochastic_conversion_shifts_type():
    """Photon cohorts convert to the cyclic successor type: each quarter
    cycle multiplies the encoded amplitude contribution by i (the paired
    compensation samples land on type j-1 at the source cell, not on j+1).
    At the calibrated rate 2 one sample emits exactly two photons."""
    spec = LatticeSpec((4,))
    V = PotentialField.zero(spec)
    p = StepParams(dt=1.0, dt_phot=1.0)
    for j in range(4):
        counts = np.zeros((4, 4))
        counts[j, 1] = 1.0
        s = state_from_counts(counts, spec)
        rng = np.random.default_rng(0)
        s = step_stochastic(s, V, p, rng, normalize=False)
        s = step_stochastic(s, V, p, rng, normalize=False)
        f = s.fields["p0"]
        nxt, prev = (j + 1) % 4, (j - 1) % 4
        assert f[nxt].sum() == 2.0 and f[nxt, 0] + f[nxt, 2] == 2.0
        assert f[prev].sum() == 2.0 and f[prev, 1] == 2.0
        assert f[j].sum() == 1.0 and f[j, 1] == 1.0


def traced_step_peak(dims, K):
    """The traced memory peak of three stochastic steps from a K-sample
    Gaussian of the default width 4, after six warm-up steps."""
    spec = LatticeSpec(dims)
    x = np.indices(dims) - np.array(dims).reshape(-1, *[1] * len(dims)) / 2
    psi = np.exp(-(x**2).sum(axis=0) / 64 + 0.5j * x[0])
    rng = np.random.default_rng(0)
    s = sample_from_wavefunction(psi / np.linalg.norm(psi), spec, K, rng)
    V, p = PotentialField.zero(spec), StepParams(dt=0.1)
    for _ in range(6):
        s = step_stochastic(s, V, p, rng)
    tracemalloc.start()
    for _ in range(3):
        s = step_stochastic(s, V, p, rng)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


@pytest.mark.parametrize("dims", [(256,), (64, 64), (16, 16, 16)], ids=["1d", "2d", "3d"])
def test_stochastic_step_memory_does_not_grow_with_the_sample_count(dims):
    """Samples are per-cell counts, so a step's memory is set by the lattice,
    not by the population, and no cap on the count is needed to bound it.
    Ratios 1.05, 1.17 and 1.00: at K = 10**12 a 2D step draws
    ``rng.multinomial`` over every cell, a (count, 4) int64 result, where at
    K = 10**3 the bit split works on the occupied cells only (with photon
    lifetimes of three steps the 2D ratio is 1.27-1.30, still one constant)."""
    assert traced_step_peak(dims, 10**12) <= 1.25 * traced_step_peak(dims, 10**3)


def test_counts_past_2_53_raise_memory_budget_error():
    """Float64 counts are exact integers only below 2**53: no larger (or
    non-finite) count reaches a draw or a returned state."""
    spec = LatticeSpec((8,))
    rng = np.random.default_rng(0)
    big = np.zeros((4, 8))
    big[0, 3] = 2.0**53
    with pytest.raises(MemoryBudgetError, match="2\\*\\*53"):
        _diffuse_counts(big, spec, rng)
    for bad in (2.0**53, np.inf, np.nan):
        with pytest.raises(MemoryBudgetError):
            _stochastic_round(np.array([1.0, bad]), rng)
    big[0, 3] = 2.0**53 - 1  # the largest exact count still hops, all of it
    assert _diffuse_counts(big, spec, rng).sum() == 2.0**53 - 1
    # emission (rate 2, dt 0.1) stays in range, the field itself does not
    big[0, 3] = 2.0**53
    s = state_from_counts(big, spec)
    with pytest.raises(MemoryBudgetError):
        step_stochastic(s, PotentialField.zero(spec), StepParams(dt=0.1), rng, normalize=False)
    # a resample budget past the range fails before its draw
    big[0, 3] = 1.0
    with pytest.raises(MemoryBudgetError):
        step_stochastic(state_from_counts(big, spec), PotentialField.zero(spec),
                        StepParams(dt=0.1, A=1e30), rng)


@pytest.mark.parametrize("bad", [2.0**53, np.inf, np.nan])
@pytest.mark.parametrize("dims", [(8,), (4, 4), (2, 2, 2)], ids=["1d", "2d", "3d"])
def test_counts_past_2_53_raise_before_any_draw(dims, bad):
    """The largest count, which also picks the draw rule, is checked on
    every lattice before a word or a multinomial is drawn."""
    counts = np.ones((2, 4, *dims))
    counts.flat[5] = bad
    rng = np.random.default_rng(3)
    with pytest.raises(MemoryBudgetError, match="2\\*\\*53"):
        _diffuse_counts(counts, LatticeSpec(dims), rng)
    assert rng.random() == np.random.default_rng(3).random()


def test_stochastic_matches_meanfield_in_expectation():
    """V=0, small dt: expected counts after two stochastic steps from a cold
    start (the first step only launches photons) match one mean-field step,
    within three standard errors, over >= 1e3 seeded runs on 16 cells."""
    spec = LatticeSpec((16,))
    x = np.arange(16.0)
    psi = np.exp(-((x - 8.0) ** 2) / 8 + 0.7j * x)
    psi /= np.linalg.norm(psi)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.01)
    K = 20000

    base = sample_from_wavefunction(psi, spec, K, np.random.default_rng(0),
                                    deterministic=True)
    mf = step_meanfield(base, V, p).fields["p0"] / base.scale["p0"]
    target = (mf[0] - mf[2]) + 1j * (mf[1] - mf[3])

    n = 1200
    acc = np.zeros((4, 16))
    acc2 = np.zeros((4, 16))
    for seed in range(n):
        rng = np.random.default_rng([77, seed])
        s = sample_from_wavefunction(psi, spec, K, rng)
        s = step_stochastic(s, V, p, rng, normalize=False)
        s = step_stochastic(s, V, p, rng, normalize=False)
        f = s.fields["p0"] / s.scale["p0"]
        acc += f
        acc2 += f * f
    mean = acc / n
    se = np.sqrt(np.maximum(acc2 / n - mean**2, 0.0) / n)
    got = (mean[0] - mean[2]) + 1j * (mean[1] - mean[3])
    se_re = np.sqrt(se[0] ** 2 + se[2] ** 2)
    se_im = np.sqrt(se[1] ** 2 + se[3] ** 2)
    assert np.all(np.abs((got - target).real) <= 3 * np.maximum(se_re, 1e-12))
    assert np.all(np.abs((got - target).imag) <= 3 * np.maximum(se_im, 1e-12))


def test_stochastic_deterministic_given_seed():
    spec = LatticeSpec((16,))
    x = np.arange(16.0)
    psi = np.exp(-((x - 8.0) ** 2) / 8).astype(complex)
    psi /= np.linalg.norm(psi)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.1, A=1000.0)
    outs = []
    for _ in range(2):
        s = sample_from_wavefunction(psi, spec, 5000, np.random.default_rng([3, 0]))
        for k in range(1, 6):
            s = step_stochastic(s, V, p, np.random.default_rng([3, k]))
        outs.append(s.fields["p0"])
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_stochastic_packet_in_a_harmonic_well_follows_the_oracle():
    """One period of a displaced packet in V = 0.01 x^2 - 5 on 128 absorbing
    cells at K = 1e4.  The potential events spawn from the pre-step field
    (a forward-Euler update that grows each step), so the packet ends at the
    lattice edge (mean 63.0) where the oracle's is at 7.9."""
    spec = LatticeSpec((128,), boundary=Boundary.ABSORBING)
    x = spec.coordinates(0)
    V = PotentialField(FieldGrid(spec, 0.01 * x**2 - 5))
    psi0 = np.exp(-((x - 12) ** 2) / 16).astype(complex)
    psi0 /= np.linalg.norm(psi0)
    dt, K = 0.02, 10**4
    steps = int(round(2 * np.pi / 0.2 / dt))
    oracle = reference_evolve(ComplexField(spec, psi0), V, steps * dt, dt)
    p = StepParams(dt=dt, A=K / np.abs(psi0).sum())
    state = sample_from_wavefunction(psi0, spec, K, step_rng(1, 0))
    for k in range(1, steps + 1):
        state = step_stochastic(state, V, p, step_rng(1, k))
    psi, _ = reconstruct_wavefunction(state)
    mean, oracle_mean = (float(x @ d / d.sum()) for d in (np.abs(psi) ** 2, oracle.density()))
    assert density_error(psi, oracle) <= 0.15
    assert abs(mean - oracle_mean) <= 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_stochastic_moving_packet_follows_the_oracle():
    """A packet of momentum 0.3 (sigma0 = 8 at x = -64 on 256 periodic
    cells) over the acceptance-2 duration T = sqrt(3)*64 at K = 1e5.
    Photons convert n_age steps after emission, so the expected kinetic
    update is a delayed recurrence whose largest root lies outside the unit
    circle: the packet lags (mean cell 54.8 against the oracle's 128.9) and
    its density error is 0.166."""
    spec = LatticeSpec((256,))
    V = PotentialField.zero(spec)
    psi0 = free_gaussian_1d(spec, -64.0, 8.0, 0.0, momentum=0.3).psi
    dt, K = 0.1, 10**5
    steps = int(round(np.sqrt(3) * 64 / dt))
    oracle = reference_evolve(ComplexField(spec, psi0), V, steps * dt, dt)
    p = StepParams(dt=dt, A=K / np.abs(psi0).sum())
    state = sample_from_wavefunction(psi0, spec, K, step_rng(1, 0))
    for k in range(1, steps + 1):
        state = step_stochastic(state, V, p, step_rng(1, k))
    psi, _ = reconstruct_wavefunction(state)
    cells = np.arange(256)
    mean, oracle_mean = (float(cells @ d / d.sum()) for d in (np.abs(psi) ** 2, oracle.density()))
    assert density_error(psi, oracle) <= 0.05
    assert abs(mean - oracle_mean) <= 2


# ---------------------------------------------------------------------------
# expectation replay: the stochastic step with every draw replaced by its mean

def expected_hops(counts, spec, rng):
    """The expectation of :func:`_diffuse_counts`: 1/(2d) of every count
    moves to each of its 2d neighbors, under the lattice's boundary."""
    out = np.zeros(counts.shape)
    share = counts / (2 * spec.ndim)
    lead = counts.ndim - spec.ndim
    for axis in range(spec.ndim):
        for step in (+1, -1):
            _add_inflow(out, share, lead + axis, step, spec.boundary)
    return out


def replay_in_expectation(monkeypatch):
    """Make ``step_stochastic`` deterministic: a rounding returns its
    argument, a hop is :func:`expected_hops`, and the 2**53 check is lifted,
    since expected counts are fractions that may grow past it.  With
    ``A=None`` only ``cancel_pairs`` follows, which is linear in (re, im),
    so a run is the step's expected dynamics."""
    monkeypatch.setattr(dynamics, "_stochastic_round", lambda x, rng: x)
    monkeypatch.setattr(dynamics, "_diffuse_counts", expected_hops)
    monkeypatch.setattr(dynamics, "_exact", lambda counts: counts)


def test_expected_hops_is_the_mean_of_diffuse_counts():
    """The replay's hop lies within three standard errors of the Monte Carlo
    mean of 2,000 real hops of a cohort stack on a small reflecting lattice."""
    spec = LatticeSpec((3, 4), boundary=Boundary.REFLECTING)
    counts = np.random.default_rng(2).integers(0, 40, size=(4, 3, 4)).astype(float)
    n, rng = 2000, np.random.default_rng(12)
    acc, acc2 = np.zeros(counts.shape), np.zeros(counts.shape)
    for _ in range(n):
        moved = _diffuse_counts(counts, spec, rng)
        acc += moved
        acc2 += moved * moved
    mean = acc / n
    se = np.sqrt(np.maximum(acc2 / n - mean**2, 0.0) / n)
    expect = expected_hops(counts, spec, None)
    assert expect.sum() == counts.sum()
    assert np.all(np.abs(mean - expect) <= 3 * np.maximum(se, 1e-12))


def _replay_packet(dt_phot):
    spec = LatticeSpec((256,))
    psi0 = free_gaussian_1d(spec, -64.0, 8.0, 0.0, momentum=0.3).psi
    return spec, PotentialField.zero(spec), psi0, StepParams(dt=0.1, dt_phot=dt_phot), 1109


def _replay_well():
    spec = LatticeSpec((128,), boundary=Boundary.ABSORBING)
    x = spec.coordinates(0)
    psi0 = np.exp(-((x - 12) ** 2) / 16).astype(complex)
    V = PotentialField(FieldGrid(spec, 0.01 * x**2 - 5))
    return spec, V, psi0, StepParams(dt=0.02), 1571


def _replay_random(dims, boundary):
    """A random psi and a signed random V in [-1, 1) at h = 0.8."""
    spec = LatticeSpec(dims, h=0.8, boundary=boundary)
    rng = np.random.default_rng(len(dims))
    psi0 = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    V = PotentialField(FieldGrid(spec, rng.uniform(-1, 1, size=dims)))
    return spec, V, psi0, StepParams(dt=0.05), 1000


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("case", [
    lambda: _replay_packet(None), lambda: _replay_packet(2.0), _replay_well,
    lambda: _replay_random((12, 10), Boundary.REFLECTING),
    lambda: _replay_random((6, 7, 5), Boundary.ABSORBING),
], ids=["moving-packet", "moving-packet-dt-phot-2", "harmonic-well", "2d-reflecting",
        "3d-absorbing"])
def test_expected_stochastic_run_is_the_meanfield_run(monkeypatch, case):
    """Replayed in expectation, a stochastic run of at least 1,000 steps
    ends on the same number of ``meanfield_update`` steps, to within 1e-12
    of the field's largest count.  The delayed photon conversion and the
    forward-Euler potential events of ROADMAP item 2 make every case grow
    away from the mean field instead."""
    spec, V, psi0, p, steps = case()
    replay_in_expectation(monkeypatch)
    state = sample_from_wavefunction(psi0 / np.linalg.norm(psi0), spec, 10**5,
                                     np.random.default_rng(0), deterministic=True)
    mf = state.fields["p0"]
    for _ in range(steps):
        state = step_stochastic(state, V, p, None)
        mf = meanfield_update(mf, V, spec, p)
    assert np.max(np.abs(state.fields["p0"] - mf)) <= 1e-12 * np.max(mf)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("dims", [(7,), (5, 6), (4, 5, 3)], ids=["1d", "2d", "3d"])
def test_diffuse_counts_stack_matches_per_type_calls(dims, boundary):
    """A cohort's (4, *dims) counts move in one call exactly as four per-type
    calls from the same seed would move them, and leave the same stream."""
    spec = LatticeSpec(dims, boundary=boundary)
    counts = np.random.default_rng(5).integers(0, 6, size=(4, *dims)).astype(float)
    counts[2] = 0.0  # an empty type draws nothing
    rng_stack, rng_types = np.random.default_rng(9), np.random.default_rng(9)
    stacked = _diffuse_counts(counts, spec, rng_stack)
    per_type = np.stack([_diffuse_counts(counts[j], spec, rng_types) for j in range(4)])
    assert np.array_equal(stacked, per_type)
    assert rng_stack.random() == rng_types.random()
    # a (3, 4, *dims) stack of cohorts moves as three per-cohort calls
    cohorts = np.random.default_rng(6).integers(0, 6, size=(3, 4, *dims)).astype(float)
    cohorts[1] = 0.0
    stacked = _diffuse_counts(cohorts, spec, rng_stack)
    per_cohort = np.stack([_diffuse_counts(c, spec, rng_types) for c in cohorts])
    assert np.array_equal(stacked, per_cohort)
    assert rng_stack.random() == rng_types.random()


def hops_from_centre(dims, m, rows, rng):
    """(rows, 2d) samples that ``rows`` counts of ``m`` at the centre of a
    periodic lattice send to each neighbor, in one stacked call."""
    spec = LatticeSpec(dims)
    centre = tuple(n // 2 for n in dims)
    counts = np.zeros((rows, *dims))
    counts[(slice(None), *centre)] = m
    out = _diffuse_counts(counts, spec, rng)
    assert np.array_equal(out.sum(axis=tuple(range(1, out.ndim))), np.full(rows, m))
    hops = []
    for axis in range(len(dims)):
        for step in (+1, -1):
            cell = list(centre)
            cell[axis] += step
            hops.append(out[(slice(None), *cell)])
    return np.stack(hops, axis=1)


def binomial_chi2_p(x, m, q):
    """Chi-square p-value of draws ``x`` against Binomial(m, q), adjacent
    values pooled until each bin expects at least 5 draws."""
    from scipy import stats

    expected = stats.binom.pmf(np.arange(m + 1), m, q) * len(x)
    observed = np.bincount(x.astype(np.int64), minlength=m + 1)
    bins, e, o = [], 0.0, 0
    for ek, ok in zip(expected, observed):
        e, o = e + ek, o + ok
        if e >= 5:
            bins.append([e, o])
            e, o = 0.0, 0
    bins[-1][0] += e
    bins[-1][1] += o
    e, o = np.array(bins).T
    return stats.chisquare(o, e * len(x) / e.sum()).pvalue


@pytest.mark.parametrize("dims", [(5,), (5, 5)], ids=["1d", "2d"])
@pytest.mark.parametrize("m", [1, 31, 32, 33, 63, 64, 65, 128, dynamics._BIT_CAP,
                               dynamics._BIT_CAP + 1])
def test_bit_hops_follow_the_binomial_law(dims, m):
    """Each direction count of m samples is Binomial(m, 1/(2d)), at the
    edges of a 64-bit word (64 one-bit or 32 two-bit samples), at the
    bit-split cap and above it, where the slice draws rng.multinomial."""
    hops = hops_from_centre(dims, m, 4000, np.random.default_rng(m))
    for k in range(hops.shape[1]):
        assert binomial_chi2_p(hops[:, k], m, 1 / hops.shape[1]) > 1e-4, k


def test_bit_hops_take_64_bits_from_a_32_bit_generator():
    """MT19937 makes 32 random bits an output: a word of 64 samples still
    gets 64 fair bits, not 32 and 32 zeros."""
    rng = np.random.Generator(np.random.MT19937(5))
    hops = hops_from_centre((5,), 64, 4000, rng)
    for k in range(2):
        assert binomial_chi2_p(hops[:, k], 64, 0.5) > 1e-4, k


@pytest.mark.parametrize("m", [7, 50])
def test_bit_hops_2d_covariance(m):
    """The four 2D direction counts are jointly multinomial: variance
    3m/16 and covariance -m/16, within five standard errors."""
    rows = 20000
    cov = np.cov(hops_from_centre((5, 5), m, rows, np.random.default_rng(3)).T)
    expected = m / 16 * (4 * np.eye(4) - 1)
    assert np.all(np.abs(cov - expected) <= 5 * (3 * m / 16) / np.sqrt(rows))


@pytest.mark.parametrize("dims", [(6,), (3, 4)], ids=["1d", "2d"])
def test_bit_hops_stack_matches_per_slice_calls_past_the_cap(dims):
    """A slice with a count above the bit-split cap draws rng.multinomial in
    its place in the stream, and other slices whole words (one count holds
    exactly 64 samples), so a stack still draws what per-slice calls draw
    and leaves the stream where they leave it."""
    spec = LatticeSpec(dims, boundary="reflecting")
    counts = np.random.default_rng(2).integers(0, 70, size=(3, 4, *dims)).astype(float)
    counts[0, 1].flat[5] = dynamics._BIT_CAP + 1
    counts[1, 0].flat[0] = 64
    counts[1, 2].flat[1] = 10**6
    counts[1, 3].flat[1] = 2**53 - 1
    counts[2, 1].flat[-1] = 64
    rng_stack, rng_slices = np.random.default_rng(8), np.random.default_rng(8)
    stacked = _diffuse_counts(counts, spec, rng_stack)
    per_slice = np.stack([_diffuse_counts(c, spec, rng_slices) for c in counts])
    assert np.array_equal(stacked, per_slice)
    assert stacked.astype(np.int64).sum() == counts.astype(np.int64).sum()
    # slice by slice: ceil(d*m/64) words a count (PCG64's words are its raw
    # outputs), or one multinomial draw of the slice past the cap
    rng_hand = np.random.default_rng(8)
    for m in counts.reshape(-1, spec.ncells).astype(np.int64):
        if m.max() > dynamics._BIT_CAP:
            rng_hand.multinomial(m, [1 / (2 * len(dims))] * (2 * len(dims)))
        else:
            rng_hand.bit_generator.random_raw(int(np.ceil(len(dims) * m / 64).sum()))
    assert rng_stack.random() == rng_slices.random() == rng_hand.random()


@pytest.mark.parametrize("dims", [(256,), (32, 32)], ids=["1d", "2d"])
def test_bit_hops_draw_words_in_bounded_pieces(dims, monkeypatch):
    """Counts of 256 to 512 samples take 4-8 (1D) or 8-16 (2D) words each;
    drawn whole, the 2**16 counts of the 2D stack need about 6 MiB of words
    and three times that for the lanes.  The words come in pieces of
    ``_WORDS``, which do not change the draws and keep the call's memory a
    fixed multiple of its input's (drawn whole: 25 times in 1D, 79 in 2D)."""
    spec = LatticeSpec(dims)
    counts = np.random.default_rng(3).integers(
        dynamics._BIT_CAP // 2, dynamics._BIT_CAP + 1, size=(16, 4, *dims)).astype(float)
    want = _diffuse_counts(counts, spec, np.random.default_rng(1))
    assert want.sum() == counts.sum()
    monkeypatch.setattr(dynamics, "_WORDS", 5)
    assert np.array_equal(_diffuse_counts(counts, spec, np.random.default_rng(1)), want)
    monkeypatch.undo()
    tracemalloc.start()
    _diffuse_counts(counts, spec, np.random.default_rng(1))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # about a dozen int64 or float64 arrays of one value a count (13-14
    # times the input), and one piece of words
    assert peak < 16 * counts.nbytes


@pytest.mark.parametrize("dims", [(6,), (3, 4), (3, 4, 5)], ids=["1d", "2d", "3d"])
def test_multinomial_draws_in_bounded_pieces(dims, monkeypatch):
    """Slices past the bit-split cap, and every 3D slice, draw
    rng.multinomial about ``_WORDS`` int64 values a call.  Pieces cut
    anywhere, even inside a slice, draw what one call over every count
    draws, and leave the stream where it does."""
    spec = LatticeSpec(dims)
    counts = np.random.default_rng(5).integers(0, 2000, size=(3, 4, *dims)).astype(float)
    counts[1, 2] = 0.0
    counts[..., 0] = dynamics._BIT_CAP + 1  # every slice past the cap
    rng_want, rng_hand = np.random.default_rng(6), np.random.default_rng(6)
    want = _diffuse_counts(counts, spec, rng_want)
    rng_hand.multinomial(counts.astype(np.int64).ravel(), [1 / (2 * len(dims))] * (2 * len(dims)))
    following = rng_want.random()
    assert rng_hand.random() == following
    for words in (7, 1):  # 1D pieces of 3 counts, 2D and 3D of one
        monkeypatch.setattr(dynamics, "_WORDS", words)
        rng = np.random.default_rng(6)
        assert np.array_equal(_diffuse_counts(counts, spec, rng), want), words
        assert rng.random() == following, words


def raw_counts(shape, seed, top):
    """Counts in [0, top] from raw PCG64 words, a stream every numpy keeps."""
    raw = np.random.PCG64(seed).random_raw(int(np.prod(shape)))
    return (raw % np.uint64(top + 1)).astype(float).reshape(shape)


def bit_split_stack(case):
    """(spec, counts) of a stack whose counts all split by random bits."""
    cap = dynamics._BIT_CAP
    if case == "1d-cohorts":  # 20 cohorts of a packet, 43 % of counts occupied
        profile = np.exp(-(((np.arange(256) - 128) / 24) ** 2))
        return LatticeSpec((256,)), np.floor(raw_counts((20, 4, 256), 1, cap) * profile)
    if case == "2d":
        return (LatticeSpec((16, 16), boundary="reflecting"),
                raw_counts((4, 4, 16, 16), 2, cap // 2))
    # "1d-pieces": 106,319 words, four pieces of _WORDS
    return (LatticeSpec((256,), boundary="absorbing"),
            cap // 2 + raw_counts((16, 4, 256), 3, cap // 2))


def words_of(spec, counts):
    """Random words a bit-split stack takes: ceil(d*m/64) a count."""
    return int(np.ceil(spec.ndim * counts / 64).sum())


@pytest.mark.parametrize("case, digest, following", [
    ("1d-cohorts", "0ea4179b3ac5a41b8ddcd9a31116fc84be0388fcdd079505f8de2b5edaa46058",
     0.35605635915772516),
    ("2d", "dd47b5b9f686329a077db0395a262eaa8d788c9b0f7268ef7d663ae71a012c60",
     0.07364130802571422),
    ("1d-pieces", "e6bac552d2c4688fb97aa1b2e83ef0bd1fc6fee3d7385d591f6115ae6436eb26",
     0.5440969677774814),
])
def test_bit_hops_keep_their_stream(case, digest, following):
    """The bit split's draws are pinned: the sha256 of the hopped counts and
    the generator's next random() after them.  Its draws are raw 64-bit
    words, so every supported numpy gives these; a faster split must too."""
    spec, counts = bit_split_stack(case)
    rng = np.random.default_rng(7)
    out = _diffuse_counts(counts, spec, rng)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest
    assert rng.random() == following


@pytest.mark.parametrize("case", ["1d-cohorts", "2d"])
def test_bit_hops_draw_the_same_at_the_edge_of_one_piece(case, monkeypatch):
    """``_WORDS`` at exactly a stack's word total (one piece), one less (two
    pieces) and one more draw what the default piece size and per-slice
    calls draw, and leave the stream where they do."""
    spec, counts = bit_split_stack(case)
    total = words_of(spec, counts)
    assert total < dynamics._WORDS
    rng_want = np.random.default_rng(4)
    want = _diffuse_counts(counts, spec, rng_want)
    rng_slices = np.random.default_rng(4)
    slices = counts.reshape(-1, *spec.dims)
    per_slice = np.stack([_diffuse_counts(c, spec, rng_slices) for c in slices])
    assert np.array_equal(per_slice.reshape(counts.shape), want)
    following = rng_want.random()
    assert rng_slices.random() == following
    for words in (total - 1, total, total + 1):
        monkeypatch.setattr(dynamics, "_WORDS", words)
        rng = np.random.default_rng(4)
        assert np.array_equal(_diffuse_counts(counts, spec, rng), want), words
        assert rng.random() == following, words


@pytest.mark.parametrize("dims", [(256,), (16, 16)], ids=["1d", "2d"])
def test_empty_stack_draws_nothing(dims):
    """An all-zero stack hops to zeros and takes no word from the stream."""
    spec = LatticeSpec(dims)
    rng = np.random.default_rng(2)
    out = _diffuse_counts(np.zeros((3, 4, *dims)), spec, rng)
    assert out.shape == (3, 4, *dims) and not out.any()
    assert rng.random() == np.random.default_rng(2).random()


def test_3d_hops_are_one_multinomial_draw():
    """3D counts hop by ``rng.multinomial`` over the six directions, in C
    order of the (type, cell) counts: the stream of earlier versions."""
    spec = LatticeSpec((3, 4, 5))
    counts = np.random.default_rng(4).integers(0, 9, size=(4, 3, 4, 5)).astype(float)
    counts[1] = 0.0
    rng, rng_hand = np.random.default_rng(6), np.random.default_rng(6)
    got = _diffuse_counts(counts, spec, rng)
    draws = rng_hand.multinomial(counts.astype(np.int64).ravel(), [1 / 6] * 6)
    hand = np.zeros(counts.shape)
    k = 0
    for axis in (1, 2, 3):
        for step in (+1, -1):
            hand += np.roll(draws[:, k].reshape(counts.shape), step, axis=axis)
            k += 1
    assert np.array_equal(got, hand)
    assert rng.random() == rng_hand.random()


def per_cohort_step(s, V, p, rng):
    """step_stochastic with one transport draw per photon cohort."""
    spec = s.spec
    emit_rate = calibrated_emission_rate(spec, p)
    out = s.copy()
    v = V.grid.values
    for pid in out.particles():
        f = out.fields[pid]
        kept = []
        for c in out.photons[pid]:
            counts = _diffuse_counts(c.counts, spec, rng)
            if c.age + 1 >= p.n_age:
                f += counts[_PREV] + c.pending
            else:
                kept.append(PhotonCohort(counts, c.pending, c.age + 1))
        emitted = _stochastic_round(f * (emit_rate * p.dt), rng)
        if emitted.any():
            kept.append(PhotonCohort(emitted, emitted[_NEXT], 0))
        out.photons[pid] = kept
        if v.any():
            spawn = _stochastic_round(f * (np.abs(v) * p.dt), rng)
            f += np.where(v > 0, spawn[_NEXT], spawn[_PREV])
    return cancel_pairs(out) if p.A is None else resample(out, p.A, rng)


@pytest.mark.parametrize("case", ["1d-periodic", "2d-reflecting", "3d-absorbing-V", "2d-split"])
def test_stacked_transport_matches_per_cohort_draws(case, monkeypatch):
    """30 steps with five cohorts in flight give the fields, scales, cohorts
    and stream of one transport draw per cohort, bit for bit; "2d-split"
    caps a stacked draw at two cohorts, so each step makes three."""
    dims, boundary, pids = {
        "1d-periodic": ((24,), "periodic", ["p0"]),
        "2d-reflecting": ((6, 5), "reflecting", ["p0"]),
        "3d-absorbing-V": ((4, 5, 3), "absorbing", ["p0", "p1"]),
        "2d-split": ((6, 5), "reflecting", ["p0"]),
    }[case]
    spec = LatticeSpec(dims, boundary=boundary)
    rng = np.random.default_rng(11)
    v = rng.uniform(-2.0, 2.0, dims) if case == "3d-absorbing-V" else np.zeros(dims)
    V = PotentialField(FieldGrid(spec, v))
    p = StepParams(dt=0.02, dt_phot=0.1, A=None if case == "1d-periodic" else 3000.0)
    assert p.n_age == 5
    s = SwarmState(spec)
    for pid in pids:
        psi = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        one = sample_from_wavefunction(psi / np.linalg.norm(psi), spec, 2000, rng, pid=pid)
        s.add_particle(pid, one.fields[pid], one.scale[pid])

    draws = []
    if case == "2d-split":
        monkeypatch.setattr(dynamics, "_STACK_CELLS", 2 * 4 * spec.ncells)
    diffuse = dynamics._diffuse_counts
    monkeypatch.setattr(dynamics, "_diffuse_counts",
                        lambda c, *a: draws.append(len(c)) or diffuse(c, *a))
    got, ref = s, s
    rng_got, rng_ref = np.random.default_rng(12), np.random.default_rng(12)
    for _ in range(30):
        got = step_stochastic(got, V, p, rng_got)
        ref = per_cohort_step(ref, V, p, rng_ref)
    assert draws[-1] == (1 if case == "2d-split" else 5)
    assert max(draws) == (2 if case == "2d-split" else 5)
    for pid in pids:
        assert np.array_equal(got.fields[pid], ref.fields[pid])
        assert got.scale[pid] == ref.scale[pid]
        assert len(got.photons[pid]) == len(ref.photons[pid]) == 5
        for c, c0 in zip(got.photons[pid], ref.photons[pid]):
            assert np.array_equal(c.counts, c0.counts)
            assert np.array_equal(c.pending, c0.pending) and c.age == c0.age
    assert rng_got.random() == rng_ref.random()


def test_steps_leave_their_input_unchanged():
    """States share photon cohorts and unchanged fields, so no operation may
    write its input's fields, cohorts or scale."""
    spec = LatticeSpec((12,), boundary="reflecting")
    x = np.arange(12.0)
    psi = np.exp(-((x - 6.0) ** 2) / 8 + 0.5j * x)
    psi /= np.linalg.norm(psi)
    V = PotentialField(FieldGrid(spec, np.linspace(-1.0, 1.0, 12)))
    p = StepParams(dt=0.1, dt_phot=0.3, A=2000.0)
    rng = np.random.default_rng(4)
    s = sample_from_wavefunction(psi, spec, 2000, rng)
    for _ in range(2):
        s = step_stochastic(s, V, p, rng)
    assert len(s.photons["p0"]) == 2  # cohorts in flight
    other = sample_from_wavefunction(psi.conj(), spec, 1000, rng, pid="p1")
    s.add_particle("p1", other.fields["p1"], other.scale["p1"])

    def snapshot(state):
        return (
            {k: v.copy() for k, v in state.fields.items()},
            [(c.counts.copy(), c.pending.copy(), c.age) for c in state.photons["p0"]],
            dict(state.scale),
        )

    before = snapshot(s)
    for op in (
        lambda: step_stochastic(s, V, p, rng),
        lambda: step_stochastic(s, V, StepParams(dt=0.1, dt_phot=0.3), rng),
        lambda: step_meanfield(s, V, StepParams(dt=0.1)),
        lambda: cancel_pairs(s),
        lambda: resample(s, 500.0, rng),
        lambda: measure_swarm(s, AmplitudeQuantum(0.1), rng),
        # the measured state shares p1's array with its input
        lambda: step_stochastic(measure_swarm(s, AmplitudeQuantum(0.1), rng)[1], V, p, rng),
        lambda: step_meanfield(measure_swarm(s, AmplitudeQuantum(0.1), rng)[1], V,
                               StepParams(dt=0.1)),
    ):
        op()
        fields, cohorts, scale = snapshot(s)
        assert fields.keys() == before[0].keys()
        assert all(np.array_equal(fields[k], before[0][k]) for k in fields)
        assert len(cohorts) == len(before[1])
        for (c, pend, age), (c0, pend0, age0) in zip(cohorts, before[1]):
            assert np.array_equal(c, c0) and np.array_equal(pend, pend0) and age == age0
        assert scale == before[2]
