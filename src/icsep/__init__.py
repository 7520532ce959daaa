"""Rates, capacity outerbounds and degrees-of-freedom diagnostics for
3-user Gaussian interference channels, single-carrier and parallel."""

from .channel import (
    ChannelFormatError,
    InvalidChannelError,
    ParallelChannel,
    SingleCarrierChannel,
    SingularityWitness,
    ValidationResult,
    all_witnesses,
    load_channel,
    make_counterexample,
    parse_channel,
    per_carrier_dof,
    singularity_check,
    validate,
)
from .dof import DofEstimate, estimate_dof
from .game import GameOutcome, adversary_best_response, play_game
from .outerbounds import (
    GenieParams,
    InfeasibleGenieParamsError,
    MacBoundResult,
    NoSeparateBoundError,
    equal_magnitude_gain,
    example1_bound,
    mac_bound_eval,
    mac_bound_grid_min,
    mac_bound_optimize,
    separate_outerbound,
)
from .rates import (
    AllocationError,
    BeamformingScheme,
    FloatRangeError,
    PowerAllocation,
    RateReport,
    SweepResult,
    allocate_power,
    db_to_linear,
    effective_gains,
    ia_feasibility,
    sweep,
    tdma_rate,
    tin_rate,
)

__version__ = "0.1.0"
