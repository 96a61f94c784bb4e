"""Numerics for arbitrarily sharp localization of positive-energy Dirac states.

The package builds momentum-space sequences of normalized positive-energy
spinor states labelled by a point, a velocity, a spin and a sharpness
index, transforms them to position space, and evaluates the observable
density/current pair together with its moments, convergence diagnostics,
causality bounds and space-time transformation rules.  Everything works
in natural units hbar = c = m = 1 (see :mod:`diracloc.units`).
"""

from .dynamics import (
    EvolutionReport,
    NRPacketParams,
    evolve_free,
    evolve_report,
)
from .observables import (
    MomentSet,
    convolution_Rn,
    current,
    mean_velocity_two_ways,
    moments,
    momentum_moments,
    overlap,
)
from .quadrature import QuadratureError
from .spinor import (
    ALPHA,
    BETA,
    SPIN_DOWN,
    SPIN_UP,
    energy,
    hamiltonian_matrix,
    positive_projector,
    pryce_spin3,
    pryce_u_matrix,
    spin_eigenspinor,
    spinor_derivative_bounds,
)
from .states import (
    LocalizationLabel,
    MomentumProfile,
    MomentumState,
    ProfileError,
    boosted_gaussian_profile,
    check_profile_conditions,
    gaussian_profile,
    make_state,
)
from .symmetry import (
    BoostParams,
    PointDensityLimit,
    boost_label,
    parity,
    rotate,
    time_reverse,
    translate,
    verify_boost_against_field,
)
from .transform import (
    CartesianGrid,
    GridError,
    PositionState,
    density_field,
    position_state_cartesian,
    radial_components,
    radial_curve,
)

__version__ = "0.1.0"
