"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> PASS|FAIL`` line (bypassing capture) before asserting.
"""

import time

import numpy as np
import pytest

from qswarm import (
    AmplitudeQuantum,
    Boundary,
    Branch,
    ComplexField,
    DiscreteState,
    FieldGrid,
    InternalState,
    LatticeSpec,
    PotentialField,
    StepParams,
    TotalReductionError,
    born_measure,
    density_error,
    free_gaussian_1d,
    glue,
    ground_state,
    laplacian_matrix,
    measure_correlated,
    fock_diagonal_density,
    field_laplacian,
    place_fermion_swarms,
    reconstruct_wavefunction,
    reduce_state,
    reference_evolve,
    relax_to_green,
    sample_from_wavefunction,
    step_meanfield,
    step_stochastic,
    symmetrized_amplitude,
    union_density,
)
from qswarm.cli import radial_profile, step_rng
from qswarm.dynamics import meanfield_update


_CAP = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def emit(text: str) -> None:
    """Print to the real stdout, bypassing pytest's capture."""
    with _CAP.disabled():
        print(text, flush=True)


def verdict(n: int, ok: bool) -> None:
    emit(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed"


def free_packet_scenario():
    """1D free Gaussian, width 8 cells, run until the analytic width doubles."""
    spec = LatticeSpec((256,))
    sigma0 = 8.0
    T = np.sqrt(3.0) * sigma0**2  # width doubles at this time
    psi0 = free_gaussian_1d(spec, 0.0, sigma0, 0.0)
    return spec, psi0, T


def test_acceptance_1_meanfield_vs_oracle_free_packet():
    t0 = time.perf_counter()
    spec, psi0, T = free_packet_scenario()
    V = PotentialField.zero(spec)
    dt = 0.25
    steps = int(round(T / dt))

    state = sample_from_wavefunction(psi0.psi, spec, 10**5,
                                     np.random.default_rng(0), deterministic=True)
    p = StepParams(dt=dt)
    for _ in range(steps):
        state = step_meanfield(state, V, p)
    psi_mf, _ = reconstruct_wavefunction(state)

    oracle = reference_evolve(psi0, V, steps * dt, 0.05)
    err = density_error(psi_mf, oracle)
    wall = time.perf_counter() - t0
    verdict(1, err <= 0.02 and wall < 10.0)


def test_acceptance_2_stochastic_convergence():
    spec, psi0, T = free_packet_scenario()
    V = PotentialField.zero(spec)
    dt = 0.1
    steps = int(round(T / dt))
    oracle = reference_evolve(psi0, V, steps * dt, 0.05)
    abs_sum = float(np.abs(psi0.psi).sum())

    errs = []
    Ks = [10**4, 10**5, 10**6]
    for K in Ks:
        p = StepParams(dt=dt, dt_phot=2.0, p_phot=1.0, A=K / abs_sum)
        state = sample_from_wavefunction(psi0.psi, spec, K, step_rng(1, 0))
        for k in range(1, steps + 1):
            state = step_stochastic(state, V, p, step_rng(1, k))
        psi, _ = reconstruct_wavefunction(state)
        errs.append(density_error(psi, oracle))

    slope = np.polyfit(np.log(Ks), np.log(errs), 1)[0]
    ok = -0.65 <= slope <= -0.35 and errs[-1] <= 0.05
    emit(f"  errors={errs} slope={slope:.3f}")
    verdict(2, ok)


def test_acceptance_3_ground_state_stationary():
    spec = LatticeSpec((64,), boundary=Boundary.ABSORBING)
    x = spec.coordinates(0)
    V = PotentialField(FieldGrid(spec, x**2))
    _, psi_g = ground_state(spec, V)

    state = sample_from_wavefunction(psi_g.psi, spec, 10**5,
                                     np.random.default_rng(0), deterministic=True)
    p = StepParams(dt=0.0018)
    for _ in range(1000):
        state = step_meanfield(state, V, p)
    psi, _ = reconstruct_wavefunction(state)
    verdict(3, density_error(psi, psi_g) <= 0.05)


def _maxima(d: np.ndarray) -> list[int]:
    thresh = 0.3 * d.max()
    out = []
    for i in range(1, len(d) - 1):
        if d[i] >= d[i - 1] and d[i] >= d[i + 1] and d[i] >= thresh:
            if out and i - out[-1] == 1:  # plateau: keep one representative
                continue
            out.append(i)
    return out


def _minima_between(d: np.ndarray, maxima: list[int]) -> list[int]:
    return [a + int(np.argmin(d[a:b + 1])) for a, b in zip(maxima, maxima[1:])]


def test_acceptance_4_interference_fringes():
    spec = LatticeSpec((256,))
    x = spec.coordinates(0)
    sigma, c, mom, T = 8.0, 48.0, 0.5, 48.0
    psi = (
        np.exp(-((x + c) ** 2) / (4 * sigma**2) + 1j * mom * x)
        + np.exp(-((x - c) ** 2) / (4 * sigma**2) - 1j * mom * x)
    )
    psi0 = ComplexField(spec, psi / np.linalg.norm(psi))
    V = PotentialField.zero(spec)

    dt = 0.25
    steps = int(round(T / dt))
    state = sample_from_wavefunction(psi0.psi, spec, 10**6,
                                     np.random.default_rng(0), deterministic=True)
    p = StepParams(dt=dt)
    for _ in range(steps):
        state = step_meanfield(state, V, p)
    psi_mf, _ = reconstruct_wavefunction(state)
    d_mf = np.abs(psi_mf) ** 2

    d_or = reference_evolve(psi0, V, steps * dt, 0.01).density()

    max_mf, max_or = _maxima(d_mf), _maxima(d_or)
    ok = len(max_mf) >= 3 and len(max_mf) == len(max_or)
    if ok:
        ok = max(abs(a - b) for a, b in zip(max_mf, max_or)) <= 1
        min_mf = _minima_between(d_mf, max_mf)
        min_or = _minima_between(d_or, max_or)
        ok = ok and max(abs(a - b) for a, b in zip(min_mf, min_or)) <= 1
    verdict(4, ok)


def test_acceptance_5_born_rule():
    s = DiscreteState([0, 1], [0.6, 0.8])
    q = AmplitudeQuantum(0.01)
    rng = np.random.default_rng(2)
    n = 10**5
    hits = sum(born_measure(s, q, rng) == 0 for _ in range(n))
    freq_ok = abs(hits / n - 0.36) <= 3 * np.sqrt(0.36 * 0.64 / n)

    from scipy import stats

    rng16 = np.random.default_rng(5)
    amps = rng16.standard_normal(16) + 1j * rng16.standard_normal(16)
    amps /= np.linalg.norm(amps)
    s16 = DiscreteState(list(range(16)), amps)
    q16 = AmplitudeQuantum(0.005)
    draws = np.array([born_measure(s16, q16, rng16) for _ in range(n)])
    counts = np.bincount(draws, minlength=16).astype(float)
    # chi-square against the urn's own discretized weights
    from qswarm import elementary_event_counts

    l = elementary_event_counts(s16, q16).astype(float)
    _, pval = stats.chisquare(counts, l / l.sum() * n)
    verdict(5, freq_ok and pval > 0.001)


def test_acceptance_6_reduction_invariants():
    rng = np.random.default_rng(0)
    ok = True
    tested = 0
    for _ in range(100):
        m = int(rng.integers(2, 20))
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        amps /= np.linalg.norm(amps)
        s = DiscreteState(list(range(m)), amps)
        for eps in (0.5, 0.1):
            try:
                out = reduce_state(s, AmplitudeQuantum(eps))
            except TotalReductionError:
                continue
            tested += 1
            ok &= bool(np.all(np.abs(out.amplitudes) >= eps))
            ok &= abs(out.norm - 1.0) <= 1e-12
            ok &= len(out.labels) <= 1.0 / eps**2 + 1e-9
            again = reduce_state(out, AmplitudeQuantum(eps))
            ok &= bool(np.array_equal(again.amplitudes, out.amplitudes))
            ok &= again.labels == out.labels
    verdict(6, ok and tested > 100)


def test_acceptance_7_coulomb_green_function():
    t0 = time.perf_counter()
    spec = LatticeSpec((33, 33, 33), boundary=Boundary.ABSORBING)
    source = np.zeros(spec.dims)
    source[16, 16, 16] = 1.0
    stay = 0.5
    res = relax_to_green(FieldGrid(spec, source), FieldGrid(spec), stay,
                         20000, tol=1e-9)
    F = res.field.values

    radii, prof = radial_profile(F, 8)
    window = radii >= 3
    rw, fw = radii[window].astype(float), prof[window]
    A = np.stack([1.0 / rw, np.ones_like(rw)], axis=1)
    (C, D), *_ = np.linalg.lstsq(A, fw, rcond=None)
    fit = C / rw + D
    fit_dev = float(np.max(np.abs(fw - fit) / fit))

    # independent route: direct sparse solve of the same discrete equation
    import scipy.sparse.linalg as spla

    c = (1.0 - stay) * spec.h**2 / (2 * spec.ndim)
    Fd = spla.spsolve((-c * laplacian_matrix(spec)).tocsr(),
                      source.ravel()).reshape(spec.dims)
    grids = np.meshgrid(*[np.arange(n) - 16 for n in spec.dims], indexing="ij")
    r = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
    cells = (r >= 2.5) & (r < 8.5)
    direct_dev = float(np.max(np.abs(F[cells] - Fd[cells]) / Fd[cells]))

    wall = time.perf_counter() - t0
    emit(f"  fit_dev={fit_dev:.3g} direct_dev={direct_dev:.3g} wall={wall:.1f}s")
    verdict(7, res.converged and fit_dev <= 0.10 and direct_dev <= 0.01
            and wall < 60.0)


def test_acceptance_8_linear_scaling():
    spec = LatticeSpec((10000,))
    x = np.arange(10000.0)
    psi = np.exp(-((x - 5000) ** 2) / (4 * 50**2)).astype(complex)
    psi /= np.linalg.norm(psi)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.1, A=2000.0)
    K, steps = 20000, 10

    ns = [1, 2, 4, 8]
    states = []
    for n in ns:
        rng = step_rng(0, 0)
        state = sample_from_wavefunction(psi, spec, K, rng, pid="p0")
        for j in range(1, n):
            extra = sample_from_wavefunction(psi, spec, K, rng, pid=f"p{j}")
            state.add_particle(f"p{j}", extra.fields[f"p{j}"], extra.scale[f"p{j}"])
        states.append(step_stochastic(state, V, p, step_rng(0, 0)))  # warm-up
    # best of 5 per n, the repetitions interleaved across n so that a slow
    # spell of the machine hits every n alike instead of one
    times = [np.inf] * len(ns)
    for rep in range(5):
        for i, state in enumerate(states):
            t0 = time.perf_counter()
            for k in range(1, steps + 1):
                state = step_stochastic(state, V, p, step_rng(0, rep * steps + k))
            times[i] = min(times[i], (time.perf_counter() - t0) / steps)
            states[i] = state

    ts, narr = np.asarray(times), np.asarray(ns, dtype=float)
    coef = np.polyfit(narr, ts, 1)
    pred = np.polyval(coef, narr)
    r2 = 1.0 - float(np.sum((ts - pred) ** 2) / np.sum((ts - ts.mean()) ** 2))
    emit(f"  times={times} R2={r2:.4f}")
    verdict(8, r2 >= 0.98)


def test_acceptance_9_composite_entanglement():
    spec = LatticeSpec((8,))
    bell = InternalState((
        Branch(1 / np.sqrt(2), (0, 0)),
        Branch(1 / np.sqrt(2), (1, 1)),
    ))

    # correlated internal measurement
    psi = np.zeros(8, dtype=complex)
    psi[2] = psi[6] = 1 / np.sqrt(2)
    rng = np.random.default_rng(0)
    state = sample_from_wavefunction(psi, spec, 10**4, rng, pid="a",
                                     deterministic=True)
    sb = sample_from_wavefunction(psi, spec, 10**4, rng, pid="b",
                                  deterministic=True)
    state.add_particle("b", sb.fields["b"], sb.scale["b"])
    registry = {}
    cid = glue(state, registry, "a", "b", bell, rng)
    q = AmplitudeQuantum(0.05)
    draws = 10**4
    outcomes = [
        measure_correlated(state.copy(), registry, cid, q, step_rng(11, k))
        for k in range(draws)
    ]
    agree = all(a == b for a, b in outcomes)
    marg = np.mean([a for a, _ in outcomes])
    marg_ok = abs(marg - 0.5) <= 3 * np.sqrt(0.25 / draws)

    # two-path interference of the composite swarm vs the mixture control
    k0 = 2 * np.pi / 8
    xs = np.arange(8)
    sup = np.exp(1j * k0 * xs) + np.exp(-1j * k0 * xs)
    sup = sup / np.linalg.norm(sup)
    rng2 = np.random.default_rng(1)
    st2 = sample_from_wavefunction(sup, spec, 10**5, rng2, pid="a",
                                   deterministic=True)
    s2b = sample_from_wavefunction(sup, spec, 10**5, rng2, pid="b",
                                   deterministic=True)
    st2.add_particle("b", s2b.fields["b"], s2b.scale["b"])
    reg2 = {}
    cid2 = glue(st2, reg2, "a", "b", bell, rng2)

    V = PotentialField.zero(spec)
    p = StepParams(dt=0.2)
    for _ in range(10):
        st2 = step_meanfield(st2, V, p)
    psi_c, _ = reconstruct_wavefunction(st2, cid2)
    d_swarm = np.abs(psi_c) ** 2

    oracle = reference_evolve(ComplexField(spec, sup), V, 10 * 0.2, 0.01)
    err = density_error(d_swarm, oracle)

    def visibility(d):
        return (d.max() - d.min()) / (d.max() + d.min())

    d_mix = 0.5 * (np.abs(np.exp(1j * k0 * xs) / np.sqrt(8)) ** 2
                   + np.abs(np.exp(-1j * k0 * xs) / np.sqrt(8)) ** 2)
    vis_swarm = visibility(d_swarm)
    vis_mix = visibility(d_mix)
    emit(f"  agree={agree} marginal={marg:.3f} vis={vis_swarm:.3f} "
         f"mix={vis_mix:.3f} err={err:.3g}")
    verdict(9, agree and marg_ok and vis_swarm >= 0.8 and vis_mix <= 0.1
            and err <= 0.05)


def test_acceptance_10_fermion_sector():
    rng = np.random.default_rng(0)
    ok = True
    for n in (2, 3):
        for _ in range(1000):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sw = M.copy()
            sw[[0, 1]] = sw[[1, 0]]
            ok &= symmetrized_amplitude(sw, "fermion") == -symmetrized_amplitude(M, "fermion")
        col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        P = np.stack([col] * n, axis=1)
        ok &= symmetrized_amplitude(P, "fermion") == 0.0

    spec = LatticeSpec((8,))
    psi1 = np.zeros(8, dtype=complex)
    psi2 = np.zeros(8, dtype=complex)
    psi1[:4] = [0.1, 0.5, 0.8, 0.3]
    psi2[4:] = [0.4, 0.7, 0.5, 0.2]
    psi1 /= np.linalg.norm(psi1)
    psi2 /= np.linalg.norm(psi2)
    swarms = place_fermion_swarms([psi1, psi2], spec, 10000,
                                  np.random.default_rng(1), deterministic=True)
    union = union_density(swarms)
    brute = fock_diagonal_density([psi1, psi2], "fermion")
    ok &= bool(np.abs(union - brute).max() < 1e-6)
    verdict(10, ok)


def test_acceptance_11_four_field_complex_consistency():
    rng = np.random.default_rng(7)
    spec = LatticeSpec((48,))
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
    ok = np.allclose(out[0] - out[2], re_new, atol=1e-12)
    ok &= np.allclose(out[1] - out[3], im_new, atol=1e-12)
    verdict(11, bool(ok))
