"""Bad input to the library raises DomainError from its own check, not a
numpy error or a wrong result."""

import numpy as np
import pytest

from qswarm import (
    Branch,
    ComplexField,
    DomainError,
    FieldGrid,
    HierarchicalState,
    InternalState,
    LatticeSpec,
    PotentialField,
    StepParams,
    SwarmState,
    cell_index,
    density_error,
    depth_class,
    energy_levels,
    fock_diagonal_density,
    free_gaussian_1d,
    glue,
    hamiltonian,
    reference_evolve,
    relax_to_green,
    resample,
    sample_from_wavefunction,
    step_meanfield,
    step_stochastic,
    symmetrized_amplitude,
)
from qswarm.dynamics import meanfield_update

LINE = LatticeSpec((8,))
SQUARE = LatticeSpec((4, 4))
UNIT = np.eye(8, dtype=complex)[3]


def add(counts, scale=1.0):
    SwarmState(LINE).add_particle("p0", counts, scale)


def glue_branch(labels, offsets):
    """Glue a delta at cell 4 to one at cell 8 of a 16-cell line through one
    branch with these labels and offsets."""
    spec = LatticeSpec((16,))
    state = SwarmState(spec)
    for pid, cell in (("a", 4), ("b", 8)):
        state.add_particle(pid, np.eye(16)[cell] * [[1.0], [0], [0], [0]], 1.0)
    glue(state, "a", "b", InternalState((Branch(1.0, labels, offsets),)))


def evolve(T, dt):
    reference_evolve(ComplexField(LINE, UNIT), PotentialField.zero(LINE), T, dt)


def green(stay_prob=0.5, steps=10, tol=1e-6):
    """Relax a unit source at cell 3 of an absorbing 8-cell line."""
    spec = LatticeSpec((8,), boundary="absorbing")
    relax_to_green(FieldGrid(spec, UNIT.real), FieldGrid(spec), stay_prob, steps, tol)


GRID = LatticeSpec((16, 8))


def potential_on(dims):
    return PotentialField(FieldGrid(LatticeSpec(dims), np.ones(dims)))


def step_grid(step, dims):
    """One step of a 16x8 state through a potential on a ``dims`` lattice."""
    state = sample_from_wavefunction(np.eye(128)[68].reshape(GRID.dims), GRID, 100,
                                     np.random.default_rng(0))
    step(state, potential_on(dims), StepParams(dt=0.05))


CASES = {
    "field-grid-shape": (lambda: FieldGrid(LINE, np.zeros(7)), "does not match lattice"),
    "cell-index-arity": (lambda: cell_index((1, 2), LINE), "expected 1 coordinates"),
    "cell-index-fraction": (lambda: cell_index((1.7,), LINE), "whole numbers"),
    "cell-index-nan": (lambda: cell_index((np.nan,), LINE), "whole numbers"),
    "cell-index-inf": (lambda: cell_index((np.inf,), LINE), "whole numbers"),
    "cell-index-text": (lambda: cell_index(("a",), LINE), "whole numbers"),
    "cell-index-none": (lambda: cell_index((None,), LINE), "whole numbers"),
    "cell-index-numeric-text": (lambda: cell_index(("2",), LINE), "whole numbers"),
    "meanfield-fields-shape": (
        lambda: meanfield_update(np.zeros((4, 7)), PotentialField.zero(LINE), LINE,
                                 StepParams(dt=0.05)),
        "does not match lattice",
    ),
    "meanfield-fields-types": (
        lambda: meanfield_update(np.zeros((3, 8)), PotentialField.zero(LINE), LINE,
                                 StepParams(dt=0.05)),
        "does not match lattice",
    ),
    "potential-per-column-meanfield": (
        lambda: step_grid(step_meanfield, (8,)), "does not match lattice"
    ),
    "potential-per-row-meanfield": (
        lambda: step_grid(step_meanfield, (16,)), "does not match lattice"
    ),
    "potential-per-column-stochastic": (
        lambda: step_grid(lambda *a: step_stochastic(*a, np.random.default_rng(1)), (8,)),
        "does not match lattice",
    ),
    "potential-per-row-stochastic": (
        lambda: step_grid(lambda *a: step_stochastic(*a, np.random.default_rng(1)), (16,)),
        "does not match lattice",
    ),
    "potential-hamiltonian": (
        lambda: hamiltonian(GRID, potential_on((8,))), "does not match lattice"
    ),
    "potential-evolve": (
        lambda: reference_evolve(ComplexField(LINE, UNIT), potential_on((16,)), 1.0, 0.1),
        "does not match lattice",
    ),
    "potential-evolve-no-steps": (
        lambda: reference_evolve(ComplexField(LINE, UNIT), potential_on((16,)), 0.0, 0.1),
        "does not match lattice",
    ),
    "green-lattices-differ": (
        lambda: relax_to_green(FieldGrid(LINE), FieldGrid(LatticeSpec((9,))), 0.5, 10),
        "lattices differ",
    ),
    "green-steps-fraction": (lambda: green(steps=2.5), "steps must be a whole number"),
    "green-steps-inf": (lambda: green(steps=np.inf), "steps must be a whole number"),
    "green-tol-nan": (lambda: green(tol=np.nan), "tol must be > 0"),
    "green-tol-negative": (lambda: green(tol=-1.0), "tol must be > 0"),
    "green-stay-nan": (lambda: green(stay_prob=np.nan), "stay probability must be in"),
    "green-stay-above-one": (lambda: green(stay_prob=1.5), "stay probability must be in"),
    "add-particle-shape": (lambda: add(np.zeros((4, 7))), "counts shape"),
    "add-particle-negative": (lambda: add(-np.ones((4, 8))), "non-negative"),
    "add-particle-nan": (lambda: add(np.full((4, 8), np.nan)), "finite"),
    "add-particle-inf": (lambda: add(np.full((4, 8), np.inf)), "finite"),
    "add-particle-scale": (lambda: add(np.ones((4, 8)), scale=0.0), "scale must be positive"),
    "sample-psi-shape": (
        lambda: sample_from_wavefunction(UNIT[:7], LINE, 10, np.random.default_rng(0)),
        "psi shape",
    ),
    "sample-no-samples": (
        lambda: sample_from_wavefunction(UNIT, LINE, 0, np.random.default_rng(0)),
        "K must be >= 1",
    ),
    "complex-field-shape": (lambda: ComplexField(SQUARE, UNIT), "psi shape"),
    "resample-infinite-budget": (
        lambda: resample(sample_from_wavefunction(UNIT, LINE, 10, np.random.default_rng(0)),
                         np.inf, np.random.default_rng(1)),
        "positive and finite",
    ),
    "evolve-nan-dt": (lambda: evolve(1.0, np.nan), "dt must be positive"),
    "evolve-infinite-duration": (lambda: evolve(np.inf, 0.1), "T finite"),
    "levels-k-zero": (lambda: energy_levels(LINE, PotentialField.zero(LINE), 0), "1 <= k < 8"),
    "levels-k-all": (lambda: energy_levels(LINE, PotentialField.zero(LINE), 8), "1 <= k < 8"),
    "density-error-zero-mass": (
        lambda: density_error(np.zeros(8), UNIT), "positive mass"
    ),
    "density-error-nan": (lambda: density_error([np.nan, 1.0], [1.0, 1.0]), "finite"),
    "density-error-inf": (lambda: density_error([1.0, 1.0], [np.inf, 1.0]), "finite"),
    "free-gaussian-2d": (lambda: free_gaussian_1d(SQUARE, 0.0, 1.0, 0.0), "1D lattice"),
    "hierarchical-rank": (
        lambda: HierarchicalState([np.array([1.0, 0.0]), np.array([0.0, 1.0])]),
        "level 1 must have 2 axes",
    ),
    "hierarchical-unnormalized": (
        lambda: HierarchicalState([np.ones(2)]), "not normalized"
    ),
    "depth-negative": (
        lambda: depth_class(HierarchicalState([np.array([1.0])]), -1), "depth must be >= 0"
    ),
    "statistics-name": (lambda: symmetrized_amplitude(np.eye(2), "anyon"), "statistics"),
    "matrix-not-square": (
        lambda: symmetrized_amplitude(np.ones((2, 3)), "fermion"), "square"
    ),
    "glue-three-labels": (
        lambda: glue_branch((0, 1, 2), ((0,), (4,), (0,))), "needs 2 labels"
    ),
    "glue-one-offset": (lambda: glue_branch((0, 1), ((0,),)), "needs 2 offsets of 1 integers"),
    "glue-offset-past-axes": (
        lambda: glue_branch((0, 1), ((0, 1), (4, 0))), "needs 2 offsets of 1 integers"
    ),
    "glue-offset-extra-axis": (
        lambda: glue_branch((0, 1), ((0, 0), (4, 0))), "needs 2 offsets of 1 integers"
    ),
    "fock-vanishes": (
        lambda: fock_diagonal_density([UNIT, UNIT], "fermion"), "vanishes identically"
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_domain_error(case):
    call, message = CASES[case]
    with pytest.raises(DomainError, match=message) as exc:
        call()
    assert type(exc.value) is DomainError
