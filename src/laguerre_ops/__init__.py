"""Numerics for Laguerre semigroups, fractional operators, and Lipschitz
seminorms, with every operator realized through two independent routes."""

from .errors import (
    ConfigError,
    DomainError,
    LaguerreOpsError,
    NonzeroMeanError,
    OverflowGuardError,
    PoleError,
    QuadratureError,
)
from .expansion import (
    LaguerreExpansion,
    MultiIndexParams,
    SpectralMultiplier,
    analyze,
    basis_norm_sq,
    bessel_derivative,
    bessel_potential,
    enumerate_indices,
    expansion_from_json,
    expansion_to_json,
    fractional_derivative,
    fractional_integral,
    heat,
    pi0,
    poisson,
    random_expansion,
    spectral_apply,
    synthesize,
    synthesize_many,
)
from .fractional import (
    FracOpConfig,
    bessel_derivative_apply,
    bessel_derivative_expansion,
    bessel_potential_apply,
    bessel_potential_expansion,
    c_lambda,
    forward_difference,
    fractional_derivative_apply,
    fractional_derivative_expansion,
    fractional_integral_apply,
    fractional_integral_expansion,
    smallest_integer_above,
)
from .harness import (
    SCENARIOS,
    ScenarioConfig,
    check_approximation,
    check_equivalence,
    check_pminusI_power,
    main,
    run_scenario,
)
from .kernels import (
    KernelQuery,
    heat_apply_kernel,
    heat_kernel,
    l1_kernel_derivative,
    poisson_apply,
    poisson_dt_apply,
    poisson_kernel,
    poisson_kernel_dt,
    stable_density,
    stable_density_dt,
    stable_tail_mass,
)
from .lipschitz import (
    LipschitzEstimate,
    default_t_grid,
    default_x_grid,
    lipschitz_seminorm,
    sup_norm,
)
from .report import BoundReport, ReportRow, emit_report, parse_report
from .specfun import (
    QuadratureRule,
    gauss_laguerre_rule,
    laguerre_poly,
    log_bessel_i_scaled,
)

__version__ = "0.1.0"
