"""photonflow: irreversible photon transfer between cavity modes.

Three levels of description of the same process:

* ``photonflow.lindblad`` -- master equation with the transfer jump
  operator, its closed-form long-time map and purity predicates;
* ``photonflow.reservoir`` -- exact single-excitation dynamics over a
  discrete structured reservoir, measurement protocols, interference;
* ``photonflow.diode`` -- the four-port single-photon router with
  discretized input/output continua and its Markov reduction.

``photonflow.scenario`` and ``photonflow.cli`` drive all three from
plain text scenario files with deterministic CSV output.
"""

from .errors import (
    ConfigurationError,
    InvalidInput,
    InvariantViolation,
    PhotonflowError,
    ScenarioError,
)
from .fock import (
    DensityMatrix,
    ModeSpace,
    Operator,
    annihilation,
    creation,
    fock_density,
    fock_state,
    mixed_fock_density,
    tensor_embed,
    trace_distance,
)
from .lindblad import (
    EvolutionResult,
    LindbladModel,
    asymptotic_transfer_map,
    evolve,
    interference_transfer_jump,
    purification_predicate,
    transfer_jump,
)
from .reservoir import (
    ReservoirSpec,
    SingleExcitationState,
    TwoUpperModeState,
    coupling_for_rate,
    evolve_exact,
    fit_decay_rate,
    interference_evolve,
    markov_rate,
    recurrence_time,
    zeno_evolve,
    zeno_scan,
)
from .diode import (
    ContinuumGrid,
    Pulse,
    coupling_for_diode_rate,
    custom_pulse,
    evolve_full,
    evolve_markov,
    exponential_pulse,
    gaussian_pulse,
    impedance_scan,
    loaded_transfer_rate,
    port2_output_decomposition,
    project_pulse,
    reflect_port2,
    simulation_window,
)

__version__ = "0.1.0"
