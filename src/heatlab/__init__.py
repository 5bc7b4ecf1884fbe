"""heatlab: heat semigroups, Gamma-calculus and curvature-dimension
inequality checks on discretized 1-D model metric measure spaces."""

__version__ = "0.1.0"

from .space import (
    CurvatureDimension,
    ModelSpace,
    build_circle,
    build_hyperbolic_model,
    build_interval,
    build_sphere_model,
)
from .calculus import (
    EdgeField,
    ScalarField,
    be_check,
    bochner_margin,
    carre_du_champ,
    carre_du_champ_edge,
    cheeger_energy,
    field,
    gamma2,
    integration_by_parts_defect,
    laplacian,
    upper_gradient_check,
    weighted_gradient_log,
)
from .heat import (
    SpectralSolver,
    build_solver,
    gaussian_kernel_oracle,
    heat_apply,
    heat_kernel,
    heat_time_derivative,
)
from .transport import (
    DiscreteMeasure,
    InterpolationPath,
    TransportPlan,
    cd_star_check,
    cd_star_report,
    compression_bound,
    displacement_interpolation,
    harnack_transport_check,
    measure_from_density,
    measure_from_masses,
    plan_action,
    point_mass,
    sigma_coefficient,
    w2_lp,
    w2_quantile,
)
from .inequalities import (
    InequalityReport,
    VProfile,
    bakry_qian_check,
    baudoin_garofalo_check,
    be_flow_check,
    bg_bound,
    bochner_check,
    eks_check,
    harnack_check,
    harnack_scan,
    kernel_corollary_suite,
    li_yau_check,
    oracle_error_check,
    phi,
    phi_derivative_check,
    phi_derivative_report,
    pre_li_yau_check,
    prop2_check,
    v_bg,
    v_linear,
)

__all__ = [name for name in dir() if not name.startswith("_")]
