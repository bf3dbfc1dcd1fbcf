"""Sample-swarm simulation of lattice quantum dynamics.

Quantum particles are represented by swarms of classical samples of four
types; the expected type differences follow the Schrodinger equation.
The package provides the deterministic mean-field integrator, the
event-level stochastic integrator, amplitude-quantum measurement,
diffusion-built potentials, composite (entangled) particles and an
independent conventional reference integrator for validation.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateStateError,
    DisjointnessError,
    DomainError,
    EmptySwarmError,
    InterferenceConditionError,
    MemoryBudgetError,
    QswarmError,
    TotalReductionError,
)
from .lattice import (
    Boundary,
    FieldGrid,
    GreenResult,
    LatticeSpec,
    PotentialField,
    cell_coords,
    cell_index,
    diffuse_field,
    diffusion_coefficient,
    field_laplacian,
    relax_to_green,
)
from .frames import Frame, read_frame, write_frame
from .swarm import (
    PhotonCohort,
    SwarmState,
    cancel_pairs,
    reconstruct_wavefunction,
    resample,
    sample_from_wavefunction,
    swarm_budget,
)
from .dynamics import (
    StepParams,
    calibrated_emission_rate,
    check_meanfield_stability,
    step_meanfield,
    step_stochastic,
)
from .measure import (
    AmplitudeQuantum,
    DiscreteState,
    born_measure,
    elementary_event_counts,
    measure_swarm,
    reduce_state,
    swarm_discrete_state,
)
from .oracle import (
    ComplexField,
    density_error,
    energy_levels,
    free_gaussian_1d,
    ground_state,
    hamiltonian,
    laplacian_matrix,
    reference_evolve,
)
from .composite import (
    Branch,
    Composite,
    HierarchicalState,
    InternalState,
    com_internal,
    decay,
    depth_class,
    fock_diagonal_density,
    glue,
    hierarchical_from_amplitudes,
    measure_correlated,
    place_fermion_swarms,
    symmetrized_amplitude,
    union_density,
)
from .scenario import (
    Scenario,
    build_initial,
    build_potential,
    load_scenario,
    load_scenario_file,
    parse_config,
)
