"""Multiscale solver for the strongly damped wave equation with rough coefficients."""

from .assembly import (CoefficientField, DiscreteForms, assemble_load,
                       assemble_mass, assemble_stiffness)
from .evolution import (TimeGrid, Trajectory, aux_fine_solve, aux_gfem_solve,
                        fine_fem_solve, galerkin_wave_solve, ideal_gfem_solve,
                        localized_gfem_solve)
from .harness import ExperimentConfig, random_field, run_exp_H, run_exp_k, run_exp_rb
from .interpolation import build_interpolator, kernel_constraints
from .linalg import (ConstraintViolationError, DegenerateConstraintError,
                     Factorization, InaccurateSolveError, SingularSystemError,
                     factor_saddle)
from .lod import (CorrectorConfig, CorrectorSet, Patch, TransientCorrectors,
                  build_corrector_set, compute_element_correctors,
                  compute_transient_correctors, decay_profile,
                  transients_for_all_nodes)
from .mesh import Mesh, NestedMeshPair, element_patch, node_patch, prolongation
from .rb import (ReducedBasis, build_rb, rb_gfem_solve, rb_step,
                 snapshot_singular_values)

__version__ = "0.1.0"
