"""Inertial Kuramoto simulation with closed-form phase-locking certificates
and simulation cross-checks."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    SystemParams,
    PhaseState,
    MeanTrajectory,
    ExactUncoupledTrajectory,
    diameter,
    rhs_inertial,
    rhs_first_order,
    galilean_transform,
    dilate_transform,
    mean_closed_form,
    nonsync_exact,
)
from .integrate import (  # noqa: F401
    IntegrationError,
    IntegratorConfig,
    TrajectoryRecord,
    CollisionEvent,
    integrate,
    record_trajectory,
    detect_collisions,
)
from .diagnostics import (  # noqa: F401
    OrderState,
    ClusterReport,
    LockReport,
    LockTolerances,
    order_state,
    diameters,
    potential,
    energy_value,
    energy_dissipation_residual,
    find_majority_cluster,
    arrangement_check,
    detect_locking,
)
from .certify import (  # noqa: F401
    FreeParams,
    CertificateReport,
    RootRangeError,
    zeta,
    xi,
    xi_inf,
    f_lambda,
    theta_star,
    f_max,
    phi_roots,
    check_framework,
    check_simple,
    check_partial_locking,
    check_partial_locking_initial,
    check_n3,
    check_first_order,
    sturm_picone_Tstar,
    lemma_numeric_suite,
)
from .experiments import (  # noqa: F401
    ScenarioConfig,
    RunRecord,
    run_scenario,
    figure_sweep,
    CampaignConfig,
    certify_campaign,
    collision_census,
)
