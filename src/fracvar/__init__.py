"""fracvar: generalized fractional operators and variational checks on grids.

The package implements the two-sided, kernel-weighted fractional operators
K (integral), A (Riemann-Liouville-type derivative) and B (Caputo-type
derivative), their partial versions on rectangular grids, and the machinery
built on top of them: integration-by-parts checks, Euler-Lagrange and wave
residuals, Dirichlet-energy minimization, and Noether-identity verification.
"""

from .config import COMMANDS, ExperimentConfig, load_config
from .dirichlet import (DirichletSpec, MinimizeResult, bvp_residual, energy,
                        minimize_energy, transfinite_init)
from .exprs import parse_function
from .ibp import (IbpReport, boundary_integral, check_K_duality, check_ibp,
                  volume_integral)
from .model import (Field, Grid1D, GridND, KernelFamily, KernelSpec, ParamSet,
                    constant_kernel, dual, grid_1d, interior_max_abs,
                    make_uniform_grid, rl_kernel, tabulated_kernel)
from .noether import (SymmetryGenerator, bracket_D, bracket_I,
                      chain_identity_residual, invariance_residual,
                      noether_residual)
from .operators import (FracOpPlan, OpKind, adjoint_apply, apply_op_1d,
                        apply_op_nd, make_plan)
from .variational import (BUILTIN_LAGRANGIANS, Lagrangian, ProblemSpec,
                          dirichlet_energy_lagrangian, el_residual,
                          el_residual_mixed, evaluate_functional,
                          frac_wave_lagrangian, integral_coupling_lagrangian,
                          wave_lagrangian, wave_residual)

__all__ = [
    "Field", "Grid1D", "GridND", "KernelFamily", "KernelSpec", "ParamSet",
    "constant_kernel", "dual", "grid_1d", "interior_max_abs",
    "make_uniform_grid", "rl_kernel", "tabulated_kernel",
    "FracOpPlan", "OpKind", "adjoint_apply", "apply_op_1d", "apply_op_nd",
    "make_plan",
    "IbpReport", "boundary_integral", "check_K_duality", "check_ibp",
    "volume_integral",
    "BUILTIN_LAGRANGIANS", "Lagrangian", "ProblemSpec",
    "dirichlet_energy_lagrangian", "el_residual", "el_residual_mixed",
    "evaluate_functional", "frac_wave_lagrangian",
    "integral_coupling_lagrangian", "wave_lagrangian", "wave_residual",
    "DirichletSpec", "MinimizeResult", "bvp_residual", "energy",
    "minimize_energy", "transfinite_init",
    "SymmetryGenerator", "bracket_D", "bracket_I", "chain_identity_residual",
    "invariance_residual", "noether_residual",
    "parse_function",
    "COMMANDS", "ExperimentConfig", "load_config",
]

__version__ = "0.1.0"
