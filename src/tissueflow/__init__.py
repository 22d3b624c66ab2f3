"""Finite-volume toolkit for two viscous proliferating tissues in contact."""

from .grid import (BoundaryKind, GridError, GridSpec, ScalarField, VectorField,
                   curl2d, divergence, gradient, laplacian)
from .constitutive import (ClampCounter, CoercivityReport, ModelParams,
                           coercivity_check, growth, pressure_congestion,
                           pressure_repulsion, repulsion_scalar,
                           total_pressures)
from .brinkman import (SolverConfig, SolverFailure, solve_brinkman,
                       solve_brinkman_gradient_form, solve_brinkman_rhs,
                       solve_screened_potential)
from .dynamics import (InitialDataError, SimState, StepControl, StepFailure,
                       init_state, run, step_esvm, step_vm)
from .diagnostics import (CurlSignature, DiagnosticRecord,
                          complementarity_residual, curl_signature,
                          limit_sweep, mixedness, observe, segregation_metric)
from .stationary import (DomainPartition, InterfaceFace, JumpTable,
                         PartitionError, StationarySolution,
                         TransmissionReport, concentric_partition,
                         interface_force_residuals, measure_jump,
                         solve_stationary, verify_transmission)
from .freeboundary import (LimitState, VanishingSubdomain,
                           complementarity_closure, init_limit_state,
                           overlap_cells, rethreshold, run_limit, step_limit,
                           transport_q)
from .harness import (PRESETS, ConfigError, Rect, RunConfig, parse_config,
                      run_cli, serialize_config)

__version__ = "0.1.0"
