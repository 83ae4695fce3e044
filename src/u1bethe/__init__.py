"""Numerical algebraic Bethe ansatz engine for U(1)-invariant vertex models.

For any N-state weight matrix obeying the ice rule, the package builds
inhomogeneous transfer matrices on finite chains, constructs n-particle
Bethe vectors by the spin-channel recurrence, solves the Bethe equations
by Newton iteration, and verifies every ingredient (commutation rules,
weight identities, off-shell expansions) against dense brute-force
oracles.
"""

from .amplitudes import (F2_closed, F_offshell, H_function, P_a, Pbar_a,
                         det_D2, det_D3, det_D4, det_D4_cont, det_D5,
                         det_D5_cont, g_coefficient, theta, theta_less)
from .bethe import (BetheState, OffshellTerm, RootSet, bae_residual,
                    build_bethe_vector, eigenvalue, expansion_for_diagonal,
                    offshell_expansion, solve_bae)
from .chain import (ChainContext, ChainOperator, StateVector,
                    monodromy_element, reference_state, spin_z_total,
                    transfer_matrix, vacuum_weight)
from .errors import (ConfigError, DegenerateParameters, DimensionTooLarge,
                     EmptySector, IndexOutOfRange, InvalidOption,
                     NoConvergence, ParameterDomain, Singularity,
                     SingularJacobian, U1BetheError, UnknownGridPoint)
from .verify import (IdentityReport, RuleCoefficients, RuleTerm,
                     amplitude_property_suite, appendix_operator_checks,
                     check_rule_on_lattice, exact_spectrum,
                     generate_annihilation_creation_rule,
                     generate_creation_creation_rule,
                     generate_diag_creation_rule, identity_suite,
                     relative_residual)
from .weights import (ModelSpec, WeightMatrix, charge_block, check_ice_rule,
                      check_regularity, check_unitarity, check_yang_baxter,
                      custom_model, eval_r, higher_spin_xxz, load_table_file,
                      permutation_model, six_vertex, table_model,
                      write_table_file)

__version__ = "0.1.0"
