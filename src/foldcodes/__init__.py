"""Shift-register sequence families, folded arrays, and array codes.

The package is arranged bottom up: gf2poly holds the GF(2) polynomial
arithmetic, arraycode cyclic arrays and the window-code oracles, lfsr
turns polynomials into cyclic sequences and factors, folding maps
sequences onto 2D tori, constructions builds the named code families, and
cli wires everything to a command line (entry point ``foldcodes``).
"""

from foldcodes.arraycode import (
    ArrayCode,
    CyclicArray,
    add2d,
    canonical2d,
    min_distance,
    shift2d,
    verify,
)
from foldcodes.constructions import (
    ConstructionReport,
    NonexistenceError,
    PreconditionError,
    SearchExhausted,
    construct_db_pmc_direct,
    construct_pmc_odd,
    construct_pmc_sd,
    construct_prac_fold,
    experiment_exponent_family,
    experiment_product_fold,
    perfect_factor,
)
from foldcodes.folding import fold, positions_independent, set_polynomial, unfold
from foldcodes.gf2poly import (
    Gf2Poly,
    enumerate_irreducible,
    euler_phi,
    exponent,
    is_irreducible,
    is_primitive,
    mul,
    pow_x_mod,
)
from foldcodes.lfsr import (
    CyclicSequence,
    PerfectFactor,
    SequenceFamily,
    generate_cycles,
    m_sequence,
    shift,
    verify_perfect_factor,
    verify_zero_factor,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayCode",
    "ConstructionReport",
    "CyclicArray",
    "CyclicSequence",
    "Gf2Poly",
    "NonexistenceError",
    "PerfectFactor",
    "PreconditionError",
    "SearchExhausted",
    "SequenceFamily",
    "add2d",
    "canonical2d",
    "construct_db_pmc_direct",
    "construct_pmc_odd",
    "construct_pmc_sd",
    "construct_prac_fold",
    "enumerate_irreducible",
    "euler_phi",
    "experiment_exponent_family",
    "experiment_product_fold",
    "exponent",
    "fold",
    "generate_cycles",
    "is_irreducible",
    "is_primitive",
    "m_sequence",
    "min_distance",
    "mul",
    "perfect_factor",
    "positions_independent",
    "pow_x_mod",
    "set_polynomial",
    "shift",
    "shift2d",
    "unfold",
    "verify",
    "verify_perfect_factor",
    "verify_zero_factor",
]
