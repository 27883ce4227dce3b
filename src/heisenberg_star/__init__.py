"""Central spin on an isotropic Heisenberg ring: spectrum and dynamics."""

__version__ = "0.1.0"

from .core import BasisSector, ModelParams, StateVector, enumerate_bath_sector, enumerate_sector, make_params, sector_dimension
from .operators import SparseOperator, build_bath_ring
from .spectrum import (
    GroundScanRow,
    LevelTable,
    bethe_levels,
    degeneracy,
    ground_scan,
    level_table,
    single_magnon_energy,
    star_energy,
    state_count,
    sub_ground_energy,
    transition_point,
)
from .states import (
    central_initial,
    coherent_block_state,
    subground_coefficients,
    subground_state,
)
from .dynamics import (
    coherent_experiment,
    evolve,
    first_crossing,
    neel_experiment,
)
