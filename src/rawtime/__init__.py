"""Delivery-time analysis for IEEE 802.11ah restricted access windows.

Computes the probability distribution of the time a group of contending
stations needs to deliver frames inside a RAW slot (for one tagged station
and for the whole group), validates the analytical chains against a built-in
slot-level Monte-Carlo simulator, and applies the distributions to size RAW
slots and optimize station grouping.
"""

__version__ = "0.1.0"

from .params import (
    AH_CW_MAX,
    AH_CW_MIN,
    AH_RETRY_LIMIT,
    AH_SLOT_DURATIONS,
    ConfigurationError,
    ModelParams,
    SlotDurations,
    ah_params,
)
from .chains import ChainDiagnostics, ChainResult, run_chains
from .distribution import (
    TimeDistribution,
    UnsatisfiableQuantileError,
    kolmogorov_distance,
    load_distribution,
    merge_weighted,
    write_distribution,
)
from .simulate import EmpiricalDistribution, SimConfig, simulate
from .planner import (
    MAX_RAW_SLOT_US,
    Conditioning,
    DistributionCache,
    GroupPlan,
    MixtureSpec,
    mixture_pa,
    mixture_pb,
    mixture_weights,
    optimize_groups,
)

__all__ = [
    "AH_CW_MAX",
    "AH_CW_MIN",
    "AH_RETRY_LIMIT",
    "AH_SLOT_DURATIONS",
    "ChainDiagnostics",
    "ChainResult",
    "Conditioning",
    "ConfigurationError",
    "DistributionCache",
    "EmpiricalDistribution",
    "GroupPlan",
    "MAX_RAW_SLOT_US",
    "MixtureSpec",
    "ModelParams",
    "SimConfig",
    "SlotDurations",
    "TimeDistribution",
    "UnsatisfiableQuantileError",
    "ah_params",
    "kolmogorov_distance",
    "load_distribution",
    "merge_weighted",
    "mixture_pa",
    "mixture_pb",
    "mixture_weights",
    "optimize_groups",
    "run_chains",
    "simulate",
    "write_distribution",
    "__version__",
]
