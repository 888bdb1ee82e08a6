"""dfsim: a two-spin NMR register simulator for decoherence-free-subspace
storage and universal encoded control under engineered and natural noise."""

from .channels import (
    KrausChannel,
    coherence_decay_factors,
    collective_dephasing,
    ensemble_channel,
    natural_relaxation_step,
)
from .ensemble import (
    EnsembleSpec,
    GradientWaveform,
    ensemble_propagators,
    gradient_diffusion_echo,
    member_positions,
    random_walk_waveform,
)
from .errors import ConfigError, DfsimError, NumericalContractError
from .experiments import ExperimentConfig, config_from_dict, run
from .hamiltonians import (
    SpinSystem,
    internal_hamiltonian,
    rf_hamiltonian,
)
from .metrics import (
    FidelityReport,
    coherence_metric,
    entanglement_fidelity,
    gate_fidelity_from_states,
    induced_data_channel,
)
from .operators import (
    basis_ket,
    decoding_unitary,
    encoding_unitary,
    expm_hermitian,
    pauli_embed,
    zq_projectors,
)
from .pulses import (
    Delay,
    IdealRotation,
    PulseSequence,
    RfPulse,
    average_hamiltonian,
    composite_y90,
    dfs_residence_fraction,
    enc_x,
    enc_z,
    propagator,
    xx_train,
    xy_train,
)

__version__ = "0.1.0"
