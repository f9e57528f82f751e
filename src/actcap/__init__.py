"""Control capacities of memoryless multiplicative actuation channels.

Capacity computation (Shannon, zero-error, eta-th moment, side information),
Monte Carlo verification of the stability thresholds, and the bit-level
carry-free companion models.
"""

from .capacity import (
    CapacityResult,
    capacity_curve,
    eta_capacity,
    eta_objective,
    maximize_over_d,
    second_moment_closed_form,
    shannon_capacity,
    shannon_objective,
    zero_error_capacity,
)
from .carryfree import (
    BitSeries,
    CarryFreeGain,
    cf_add,
    cf_mul,
    cf_shannon_capacity,
    cf_zero_error_capacity,
    one_step_control,
    simulate_degrees,
)
from .distributions import (
    ActuationDistribution,
    Empirical,
    EmptyCell,
    FiniteMixture,
    Gaussian,
    ScaledBernoulli,
    SupportInfo,
    TruncatedGaussian,
    Uniform,
    make_rng,
    parse_spec,
)
from .sideinfo import (
    SideInformationModel,
    eta_capacity_with_si,
    model_from_boundaries,
    shannon_capacity_with_si,
    si_value_curve,
    uniform_bit_partition,
)
from .simulate import (
    SimulationReport,
    StrategySpec,
    SystemSpec,
    additive_noise_check,
    scaling_equivalence_check,
    simulate,
    strong_converse_experiment,
    threshold_scan,
)

__version__ = "0.1.0"
