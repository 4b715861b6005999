"""Product-integration collocation for weakly singular nonlocal operators.

Piecewise linear (PLC) and piecewise quadratic (PQC) schemes for
I(a,b,x) = int_a^b u(y) |x-y|^(-gamma) dy, 0 <= gamma < 1, and for the
nonlocal equation int_a^b (u(x) - u(y)) |x-y|^(-gamma) dy = f(x) with
Dirichlet boundary data.
"""

from .grid import KernelParams, UniformGrid
from .coeffs import (PlcCoeffs, PqcCoeffs, eta_scaling, plc_weights,
                     pqc_weights, sigma_scaling)
from .oracle import (ManufacturedProblem, OracleError, TestFunction, constant,
                     exact_nonlocal_rhs, exponential, kernel_row_integral,
                     monomial, singular_integral, singular_integrals)
from .plc import assemble_plc_system, truncation_error
from .pqc import assemble_pqc_system, pqc_truncation_at
from .solver import (CollocationSystem, SingularSystemError, StructureReport,
                     check_structure, solve_dense)
from .study import (StudyConfig, StudyReport, StudyRow, emit_table,
                    fit_orders, run_global_study, run_truncation_study)

__version__ = "0.1.0"

__all__ = [
    "KernelParams", "UniformGrid",
    "PlcCoeffs", "PqcCoeffs", "sigma_scaling", "eta_scaling",
    "plc_weights", "pqc_weights",
    "TestFunction", "constant", "monomial", "exponential",
    "ManufacturedProblem", "OracleError", "singular_integral",
    "singular_integrals",
    "kernel_row_integral", "exact_nonlocal_rhs",
    "assemble_plc_system", "truncation_error",
    "assemble_pqc_system", "pqc_truncation_at",
    "CollocationSystem", "StructureReport", "SingularSystemError",
    "solve_dense", "check_structure",
    "StudyConfig", "StudyReport", "StudyRow", "run_truncation_study",
    "run_global_study", "emit_table", "fit_orders",
]
