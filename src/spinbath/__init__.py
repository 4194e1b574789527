"""Relaxation dynamics of open spin chains coupled site-by-site to thermal baths.

The package builds z-type Ising chain Hamiltonians, attaches an independent
ohmic bath to every site, assembles the golden-rule rate matrix over the
energy eigenstates (and the full Lindblad superoperator as its oracle), and
studies how asymmetric coupling strengths carve the dynamics into decoupled
subspaces: blocking from the ground state, and thermal versus chemical-like
excitation pathways.
"""

from .analysis import (
    SweepResult,
    bath_at,
    count_structural_zeros,
    detailed_balance_audit,
    excitation_curves,
    locate_t_theta,
    predicted_zero_count,
    random_nondegenerate_chain,
    restricted_gibbs_prediction,
    sweep,
    zeros_scaling,
)
from .bath import (
    BathConfig,
    CouplingElements,
    bose_einstein,
    coupling_matrix_elements,
    spectral_density,
)
from .chain import (
    ChainSpec,
    DegeneracyReport,
    SpectralDecomposition,
    build_hamiltonian,
    check_degeneracy,
    check_frustration,
    decompose_chain,
    diagonal_energies,
    spectral_decomposition,
)
from .config import GridSpec, RunConfig, builtin_config_path, parse_config
from .dynamics import (
    BlockPartition,
    DensityTrajectory,
    PopulationState,
    Trajectory,
    connectivity_blocks,
    excitation_probability,
    gibbs_state,
    propagate_density,
    propagate_populations,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateGapError,
    NumericalIntegrityError,
    SpinbathError,
    ValidationError,
)
from .generator import (
    JumpOperator,
    LindbladSuperoperator,
    RateMatrix,
    build_jump_operators,
    build_lindblad_superoperator,
    build_rate_matrix,
    structural_blocks,
    unvectorize,
    vectorize,
)

__version__ = "0.1.0"
