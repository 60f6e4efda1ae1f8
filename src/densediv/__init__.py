"""densediv: densely divisible integer families and their counting asymptotics.

Public surface re-exports the main operations of each submodule.
"""

from ._constants import EULER_GAMMA, EXP_NEG_GAMMA, ZETA2
from .errors import (
    BoundaryZeroError,
    DenseDivError,
    DomainError,
    NumericalConsistencyError,
    ResourceLimitError,
    SearchFailureError,
)
from .families import (
    CountReport,
    FamilySpec,
    check_factorization_lemma,
    check_partial_density_sum,
    check_phi_identity_range,
    check_ssf_identity_range,
    count_family,
    count_members,
    enumerate_members,
    is_member,
    member_mask,
    membership_tables,
)
from .gzero import (
    ZeroCertificate,
    count_zeros_rect,
    dgda_identity_check,
    find_lambda,
    g_eval_integral,
    g_eval_neg_int,
    g_eval_series,
    h_bound,
    lambda_asymptote_report,
    locate_zero_in_rect,
    residue_C,
)
from .integers import FactoredInteger, divisors, factorize, primes_upto, sieve_spf
from .rho import RhoTable, build_rho_table, cached_rho_table, rho_asymptotic, rho_closed_form_12
from .specfun import (
    OmegaTable,
    b_coefficients,
    buchstab_omega,
    build_omega_table,
    k_oscillatory,
    k_zeros,
    loggamma,
)

__version__ = "0.1.0"
