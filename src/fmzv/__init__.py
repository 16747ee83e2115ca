"""fmzv: exact arithmetic for finite multiple zeta values of level one and two.

Evaluation of truncated harmonic-type sums mod p, closed-form and identity
verification suites, and integer-relation experiments over many primes.
"""

__version__ = "0.1.0"

from .bernoulli import L2, Zk, bernoulli_mod
from .evaluator import (
    ResidueCache,
    eval_euler,
    eval_even_form,
    eval_odd_form,
    eval_zeta,
    eval_zeta2,
    eval_zeta2_star,
    value_of,
)
from .harmonic import (
    IndexCombination,
    all_compositions,
    antipode_sum,
    compositions,
    star_expand,
    stuffle,
)
from .identities import SUITES, Report, coeff_C, ppt_constants
from .modmath import (
    batch_inv,
    crt_combine,
    is_prime,
    mod_inv,
    rat_reconstruct,
    sieve_primes,
)
from .relations import (
    AmbiguousRelationError,
    build_matrix,
    dimension_estimate,
    dseq,
    express_in_basis,
    fib,
    relation_lattice,
)

__all__ = [
    "__version__",
    "is_prime",
    "sieve_primes",
    "mod_inv",
    "batch_inv",
    "crt_combine",
    "rat_reconstruct",
    "bernoulli_mod",
    "Zk",
    "L2",
    "eval_zeta",
    "eval_zeta2",
    "eval_zeta2_star",
    "eval_euler",
    "eval_even_form",
    "eval_odd_form",
    "value_of",
    "ResidueCache",
    "IndexCombination",
    "stuffle",
    "star_expand",
    "antipode_sum",
    "compositions",
    "all_compositions",
    "SUITES",
    "Report",
    "coeff_C",
    "ppt_constants",
    "AmbiguousRelationError",
    "build_matrix",
    "relation_lattice",
    "express_in_basis",
    "dimension_estimate",
    "fib",
    "dseq",
]
