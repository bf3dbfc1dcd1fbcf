"""Property tests of exact invariants (composite translation, pair
cancellation, the four-field split, state reduction and stochastic counts)
and of one statistical one: resampling keeps the expected field."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qswarm import (
    AmplitudeQuantum,
    Branch,
    DiscreteState,
    FieldGrid,
    InternalState,
    LatticeSpec,
    PotentialField,
    StepParams,
    SwarmState,
    TotalReductionError,
    cancel_pairs,
    decay,
    depth_class,
    glue,
    hierarchical_from_amplitudes,
    reduce_state,
    resample,
    swarm_budget,
    step_stochastic,
)
from qswarm.swarm import PhotonCohort, _split

dims = st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple)
finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


def counts_for(shape, top=10**6):
    return hnp.arrays(float, shape, elements=st.integers(0, top).map(float))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_periodic_glue_decay_returns_a_exactly(data):
    """b is a translated by its offset difference; gluing and decaying
    again gives a's field, scale and photon cohorts back bit for bit, and b
    a's samples and cohorts."""
    shape = data.draw(dims)
    spec = LatticeSpec(shape)
    fa = data.draw(counts_for((4, *shape), top=50))
    assume((fa[:2] != fa[2:]).any())
    oa, ob = (tuple(data.draw(st.integers(-7, 7)) for _ in shape) for _ in "ab")
    axes = tuple(range(1, len(shape) + 1))
    fb = np.roll(fa, np.subtract(ob, oa), axis=axes)
    scale = data.draw(st.floats(1e-3, 1e3))
    cohorts = [
        PhotonCohort(data.draw(counts_for((4, *shape), top=50)),
                     data.draw(counts_for((4, *shape), top=50)), age)
        for age in range(data.draw(st.integers(0, 3)))
    ]
    state = SwarmState(spec)
    state.add_particle("a", fa.copy(), scale)
    state.photons["a"] = list(cohorts)
    state.add_particle("b", fb, data.draw(st.floats(1e-3, 1e3)))
    cid = glue(state, "a", "b", InternalState((Branch(1.0 + 0j, (0, 1), (oa, ob)),)))
    assert decay(state, cid, np.random.default_rng(0)) == ("a", "b")
    assert np.array_equal(state.fields["a"], fa) and state.scale["a"] == scale
    assert np.array_equal(state.fields["b"], fb) and state.scale["b"] == scale
    for pid, shift in (("a", 0), ("b", np.subtract(ob, oa))):
        assert len(state.photons[pid]) == len(cohorts)
        for c, c0 in zip(state.photons[pid], cohorts):
            assert np.array_equal(c.counts, np.roll(c0.counts, shift, axis=axes))
            assert np.array_equal(c.pending, np.roll(c0.pending, shift, axis=axes))
            assert c.age == c0.age


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hierarchical_levels_reconstruct_psi(data):
    """The product of the conditional levels is the normalized table, dead
    rows included, and every table is of its maximal depth class."""
    shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple))
    part = hnp.arrays(float, shape, elements=st.floats(-1, 1, allow_subnormal=False))
    psi = data.draw(part) + 1j * data.draw(part)
    for _ in range(data.draw(st.integers(0, 2))):
        psi[tuple(data.draw(st.integers(0, n - 1)) for n in shape[:-1])] = 0
    assume(np.linalg.norm(psi) > 1e-6)
    psi /= np.linalg.norm(psi)
    h = hierarchical_from_amplitudes(psi)
    rebuilt = np.ones(shape, dtype=complex)
    for j, lvl in enumerate(h.levels):
        rebuilt = rebuilt * lvl.reshape(lvl.shape + (1,) * (len(shape) - j - 1))
    assert np.abs(rebuilt - psi).max() <= 1e-12
    assert depth_class(h, len(shape) - 1)


@settings(max_examples=60, deadline=None)
@given(f=dims.flatmap(lambda s: hnp.arrays(
    float, (4, *s), elements=st.floats(0, 1e9, allow_nan=False))))
def test_cancel_pairs_keeps_psi(f):
    """The differences s1-s3 and s2-s4 (psi times scale and norm) are kept
    exactly, and no cell keeps both members of a pair."""
    state = SwarmState(LatticeSpec(f.shape[1:]))
    state.add_particle("p", f, 2.5)
    out = cancel_pairs(state)
    g = out.fields["p"]
    assert np.array_equal(g[:2] - g[2:], f[:2] - f[2:])
    assert (g >= 0).all() and not np.minimum(g[:2], g[2:]).any()
    assert out.scale == state.scale


@settings(max_examples=60, deadline=None)
@given(reim=dims.flatmap(lambda s: hnp.arrays(float, (2, *s), elements=finite)))
def test_split_round_trips(reim):
    f = np.empty((4, *reim.shape[1:]))
    f[:2] = reim
    out = _split(f)
    assert out is f
    assert np.array_equal(out[:2] - out[2:], reim)
    assert (out >= 0).all() and not np.minimum(out[:2], out[2:]).any()


@settings(max_examples=100, deadline=None)
@given(
    amps=hnp.arrays(complex, st.integers(1, 24), elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)),
    eps=st.floats(1e-3, 1.0),
)
def test_reduce_state_is_idempotent(amps, eps):
    n = np.linalg.norm(amps)
    assume(n > 1e-6)
    q = AmplitudeQuantum(eps)
    try:
        once = reduce_state(DiscreteState(list(range(amps.size)), amps / n), q)
    except TotalReductionError:
        assume(False)
    twice = reduce_state(once, q)
    assert np.array_equal(twice.labels, once.labels)
    assert np.array_equal(twice.amplitudes, once.amplitudes)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stochastic_step_keeps_integer_counts(data):
    """From integer counts, a stochastic step (emission, conversion,
    potential events, cancellation, resampling) leaves non-negative
    integer counts."""
    shape = data.draw(dims)
    spec = LatticeSpec(shape, boundary=data.draw(st.sampled_from(
        ["periodic", "reflecting", "absorbing"])))
    f = data.draw(counts_for((4, *shape), top=200))
    assume(f.any())
    v = data.draw(hnp.arrays(float, shape, elements=st.floats(-2, 2)))
    state = SwarmState(spec)
    state.add_particle("p", f, 1.0)
    dt = 0.5 / (4 * len(shape) + 2)  # inside the stability bound
    p = StepParams(dt=dt, dt_phot=2 * dt, A=data.draw(st.sampled_from([None, 50.0])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    for _ in range(3):
        state = step_stochastic(state, PotentialField(FieldGrid(spec, v)), p, rng)
        g = state.fields["p"]
        assert (g >= 0).all() and np.array_equal(g, np.floor(g))


@pytest.mark.parametrize("factor", [0.37, 2.6])
@pytest.mark.parametrize("shape", [(9,), (4, 5)], ids=["1d", "2d"])
def test_resample_keeps_the_expected_field(shape, factor):
    """resample scales the counts by one factor with stochastic rounding and
    the scale by the same factor, so over 2000 seeds the mean unnormalised
    field (s1 - s3 + i(s2 - s4)) / scale stays within three standard errors
    of the input's in every cell."""
    spec = LatticeSpec(shape)
    state = SwarmState(spec)
    state.add_particle("p0", np.random.default_rng(1).integers(0, 40, (4, *shape)), 7.0)
    cancelled = cancel_pairs(state)
    # the budget that makes the population change by ``factor``
    A = factor * cancelled.fields["p0"].sum() / swarm_budget(cancelled, "p0", 1.0)

    def raw(s):
        f = s.fields["p0"]
        return ((f[0] - f[2]) + 1j * (f[1] - f[3])) / s.scale["p0"]

    n = 2000
    runs = np.array([raw(resample(state, A, np.random.default_rng([5, k]))) for k in range(n)])
    target = raw(state)
    for part in (np.real, np.imag):
        mc = part(runs)
        se = mc.std(axis=0, ddof=1) / np.sqrt(n)
        assert se.max() > 0  # the rounding is random
        assert np.all(np.abs(mc.mean(axis=0) - part(target)) <= 3 * np.maximum(se, 1e-12))
