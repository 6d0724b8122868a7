"""Feedback-linearization control with an online-adapting Gaussian RBF
disturbance compensator: benchmark plants, a fixed-step closed-loop simulator,
and a configuration-driven experiment CLI."""

__version__ = "0.1.0"

from .config import BASELINE, COMPENSATED
from .controller import ControllerState, StepLog, control_step
from .dynamics import (
    GainVector,
    StateVector,
    filtered_error,
    hurwitz_check,
    tracking_error,
)
from .errors import ConfigError, ControllabilityFault, DivergenceFault
from .plants import (
    DisturbanceSpec,
    Expression,
    PlantModel,
    constant_disturbance,
    disturbance_sample,
    disturbance_sampler,
    duffing_plant,
    no_disturbance,
    noise_disturbance,
    pendulum_plant,
    sinusoid_disturbance,
    vanderpol_plant,
)
from .rbf import RbfNetwork, activations, default_network
from .simulation import (
    Metrics,
    ReferenceSpec,
    Trajectory,
    compute_metrics,
    constant_reference,
    reference_at,
    rk4_step,
    run_closed_loop,
    sinusoid_reference,
    sum_of_sinusoids_reference,
)
