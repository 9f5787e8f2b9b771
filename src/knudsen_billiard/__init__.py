"""Random billiard on an open triangular cell.

A particle leaving the cell's open side with angle theta in [0, pi] re-enters
uniformly at random and exits at one of four affinely shifted angles with
position-dependent probabilities.  This package implements that angle map and
its Markov kernel, exact and Monte Carlo evolution of angle distributions
toward the sine law (Knudsen's cosine law), the deterministic skew
representation of the random map, and a ray-tracing oracle for the underlying
triangle geometry.
"""

from .core_map import (
    BRANCHES,
    KernelRow,
    MapParams,
    conjugate_index,
    kernel_row,
    m2_region,
    prob_all,
    rotation_beta,
    tau,
    tau_all,
)
from .measures import (
    AtomCapError,
    AtomicMeasure,
    Histogram,
    ParticleEnsemble,
    atomize_density,
    binned_histogram,
    cesaro,
    distance_to_mu,
    ensemble_step,
    evolve,
    kernel_step,
    mu_bin_masses,
    mu_cdf,
    tv_atomic,
    two_bump_density,
    uniform_density,
)
from .oracle import (
    CellGeometry,
    CornerHitError,
    ReturnRecord,
    TracerStuckError,
    first_return,
    liouville_pushforward_check,
    validate_m1_m2,
    validation_grid,
)
from .skew import (
    CylinderWord,
    FiberInterval,
    Theorem1Result,
    cylinder_fiber,
    enumerate_fibers,
    fiber_measure,
    skew_step_many,
    theorem1_check,
)

__version__ = "0.1.0"
