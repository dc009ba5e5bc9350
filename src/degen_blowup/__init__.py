"""Solver toolkit for degenerate/singular semilinear radial problems.

Penalized Newton solves between explicit two-sided bounds, nested-domain
approximation of boundary blow-up solutions, blow-up rate recovery, and a
local-integrability surrogate for boundary-distance weights.
"""

__version__ = "0.1.0"

from .assembly import (
    CallableNonlinearity,
    PowerNonlinearity,
    Problem,
    assemble_jacobian,
    assemble_residual,
    assemble_stiffness,
    cell_volumes,
    grid_terms,
    radial_blowup_problem,
    volume_weights,
)
from .asymptotics import (
    EpsilonBoundsReport,
    RateFit,
    check_epsilon_bounds,
    fit_blowup_rate,
    oracle_exact_1d,
)
from .errors import CertificationError, ConfigError, ParameterError, SolverError
from .exhaustion import (
    ExhaustionRun,
    residual_on_monitor,
    solve_in_slab,
    solve_large_solution,
)
from .grids import build_graded_grid, nested_margin
from .penalty_solver import (
    SandwichReport,
    SolveOptions,
    SolveReport,
    VerificationReport,
    check_sandwich,
    solve_penalized,
    verify_subsupersolution,
)
from .subsuper import (
    BlowupParams,
    Envelope,
    InequalityReport,
    SubInequalityReport,
    blowup_exponent,
    build_subsolution,
    build_supersolution,
    find_min_A,
    verify_sub_inequality,
    verify_super_inequality,
)
from .tridiag import Tridiagonal, thomas_solve
from .weights import (
    A2Report,
    B2Report,
    Domain,
    InteriorVanishingWeight,
    QuadWork,
    WeightFamily,
    catalogue_families,
    check_a2,
    check_b2,
    eval_weight,
)
