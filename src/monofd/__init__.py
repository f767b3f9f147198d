"""Monotone finite-difference schemes for anisotropic diffusion on the unit square."""

from .assembly import (
    MatrixAudit,
    Problem,
    SparseSystem,
    assemble,
    audit_m_matrix,
    directional_term_row,
    export_matrix,
    export_rhs,
)
from .errors import (
    AssemblyError,
    AuditError,
    ConfigError,
    FieldValidationError,
    GridError,
    MonofdError,
    PlanError,
    PlanningError,
    SolverError,
)
from .expressions import Expression, parse_expression
from .field import DiffusionField, ProbeTable, SplittingConstants
from .grid import Grid, build_grid
from .problems import built_in_problem, manufactured_problem
from .solver import SolveReport, residual, solve
from .splitting import AngleIntervals, slope_bounds
from .stencil import (
    GridPlan,
    check_mesh_condition,
    plan_grid,
    stencil_upper_bound,
)
from .verification import (
    ConvergenceRow,
    DmpRow,
    convergence_study,
    dmp_table,
    prepare,
    run_case,
    sign_pattern_summary,
    solution_on_grid,
)

__version__ = "0.1.0"
