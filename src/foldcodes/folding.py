"""Diagonal folding between cyclic sequences and doubly periodic arrays.

A length rt sequence with gcd(r,t) = 1 folds into an r x t array down the
diagonal: position p lands in cell (p mod r, p mod t), a bijection by the
Chinese remainder theorem. A position set is any collection of
nonnegative integers.
"""

from __future__ import annotations

import warnings
from math import gcd

from .arraycode import CyclicArray, _gather, _scatter
from .gf2poly import Gf2Poly, _independent, is_irreducible, mul, pow_x_mod
from .lfsr import CyclicSequence


# Largest r*t that fold builds.  The longest register cycle has 2^24 - 1
# states, so a larger array would only repeat its sequence.
_MAX_CELLS = 1 << 24


def _check_coprime(r: int, t: int) -> None:
    if r < 1 or t < 1:
        raise ValueError("dimensions must be positive")
    if gcd(r, t) != 1:
        raise ValueError(f"dimensions {r} and {t} are not coprime")


def fold(s: CyclicSequence, r: int, t: int) -> CyclicArray:
    """Write s down the diagonals of an r x t array of at most 2^24 cells.

    The period of s must divide rt; a shorter period is extended
    periodically.
    """
    _check_coprime(r, t)
    if r * t > _MAX_CELLS:
        raise ValueError(f"{r}x{t} array exceeds the cap of 2^24 cells")
    L = len(s)
    if r * t % L != 0:
        raise ValueError(f"period {L} does not divide {r}x{t}")
    return CyclicArray._wrap(_scatter(s.packed(), L, r, t), r, t)


def unfold(a: CyclicArray) -> CyclicSequence:
    """The unique sequence folding to a; inverse of fold."""
    _check_coprime(a.rows, a.cols)
    return CyclicSequence._reduced(_gather(a), a.rows * a.cols)


def positions_independent(f: Gf2Poly, R) -> bool:
    """Whether the residues x^p mod f for p in R are linearly independent
    over GF(2). Equivalently, f divides no nonempty subset sum of the
    x^p, i.e. f does not divide the set polynomial of R."""
    if not is_irreducible(f):
        raise ValueError(f"{f} is reducible")
    positions = sorted(set(R))
    if any(p < 0 for p in positions):
        raise ValueError("positions must be nonnegative")
    n = f.degree
    if len(positions) > n:
        warnings.warn(
            f"{len(positions)} positions exceed degree {n}; "
            "residues are always dependent"
        )
        return False
    return _independent(pow_x_mod(p, f).mask for p in positions)


def set_polynomial(R) -> Gf2Poly:
    """The product over all nonempty subsets Q of R of the subset sum
    polynomial sum of x^p for p in Q. Oracle scale: at most 4 positions."""
    positions = sorted(set(R))
    if len(positions) > 4:
        raise ValueError("set polynomial limited to 4 positions")
    if any(p < 0 for p in positions):
        raise ValueError("positions must be nonnegative")
    k = len(positions)
    acc = Gf2Poly(1)
    for q in range(1, 1 << k):
        mask = 0
        for idx in range(k):
            if (q >> idx) & 1:
                mask ^= 1 << positions[idx]
        acc = mul(acc, Gf2Poly(mask))
    return acc
