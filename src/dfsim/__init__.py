"""dfsim: a two-spin NMR register simulator for decoherence-free-subspace
storage and universal encoded control under engineered and natural noise."""

from .channels import collective_dephasing
from .errors import ConfigError, DfsimError, NumericalContractError
from .experiments import ExperimentConfig, config_from_dict, run
from .hamiltonians import SpinSystem
from .metrics import entanglement_fidelity, induced_data_channel
from .pulses import enc_x, propagator

__version__ = "0.1.0"
