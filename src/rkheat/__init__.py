"""Meshfree kernel collocation for distributed control of the 1-D heat
equation.

The package solves the coupled first-order optimality system of

    minimize  1/2 ||y - y_d||^2 + nu/2 ||u||^2
    subject to  -y_t + y_xx = u  on (a,b) x (0,T),

with Dirichlet boundary and initial data, by collocating the state and the
adjoint in tensor reproducing-kernel spaces whose members satisfy the
homogeneous side conditions exactly.  A Crank-Nicolson finite-difference
solver of the same coupled system serves as an independent cross-check.
"""

from .collocation import (ADJOINT, FORWARD, CollocationSystem, NodeSet,
                          PicardInfo, Solution, assemble, error_norms,
                          evaluate, generate_nodes, solve, solve_picard,
                          standard_kernels)
from .errors import (KernelDomainMismatch, NonDifferentiableData,
                     NumericallySingular, OutOfDomain, RKHeatError,
                     SingularConditionSystem, SingularDiscretization,
                     UnknownExample)
from .fd_reference import (FDReferenceSolution, error_vs_exact,
                           self_convergence, solve_coupled_fd)
from .fields import ScalarField
from .grids import GridField, SpaceTimeGrid
from .kernels import (Kernel1D, SpaceSpec, TensorKernel, build_kernel,
                      kernel_matrix)
from .optimality import apply_operator, residual_adjoint, residual_forward
from .problems import (ControlProblem, ExactSolution, HomogenizedProblem,
                       builtin_example, cost_functional, derive_yd,
                       homogenize)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "SpaceSpec", "Kernel1D", "TensorKernel", "build_kernel", "kernel_matrix",
    # fields and grids
    "ScalarField", "GridField", "SpaceTimeGrid",
    # problems
    "ControlProblem", "ExactSolution", "HomogenizedProblem",
    "builtin_example", "derive_yd", "homogenize", "cost_functional",
    # optimality system
    "FORWARD", "ADJOINT", "apply_operator", "residual_forward",
    "residual_adjoint",
    # collocation solver
    "NodeSet", "CollocationSystem", "PicardInfo", "Solution", "standard_kernels",
    "generate_nodes", "assemble", "solve", "solve_picard", "evaluate",
    "error_norms",
    # finite-difference reference
    "FDReferenceSolution", "solve_coupled_fd", "error_vs_exact",
    "self_convergence",
    # errors
    "RKHeatError", "SingularConditionSystem", "OutOfDomain",
    "UnknownExample", "NonDifferentiableData",
    "KernelDomainMismatch", "NumericallySingular", "SingularDiscretization",
]
