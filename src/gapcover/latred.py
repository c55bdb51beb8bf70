"""Lattice basis reduction on a Gram matrix, in integers.

The integral LLL of de Weger (Cohen, Alg. 2.6.7) reads a basis only through
its Gram matrix, so no basis vector is formed and none need be rational: the
pipeline reduces the dual form of an ellipsoid, A^-1 = R / p, whose basis
would take square roots.  Given the integer Gram matrix, it returns the
unimodular transform T, whose rows are the coordinates of the reduced basis,
with T^-1 built beside it; its Gram determinants prove the form positive
definite.  No floating point enters.  The certificate of a reduction is the
exact squared lengths t_j R t_j^T / p of the reduced vectors: their product
over det(R / p) is the squared orthogonality defect.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, RankError
from .exactalg import (
    UnimodularMat,
    det,  # not called here; perfbench/tracing.py wraps latred.det
    inverse,  # not called here; perfbench/tracing.py wraps latred.inverse
)

LLL_DEFAULT_DELTA = Fraction(99, 100)


def _round_half_up(num: int, den: int) -> int:
    """Nearest integer to num / den (den > 0), halves rounded up."""
    return (2 * num + den) // (2 * den)


def lll_reduce(gram: Sequence[Sequence[int]], delta=LLL_DEFAULT_DELTA) -> UnimodularMat:
    """LLL reduction in integers of a basis given by its d x d integer Gram
    matrix (symmetric; only its lower triangle is read).

    Returns the unimodular T, held with T^-1, for which the rows of T B are
    reduced, B any basis with B B^T = gram: size-reduced (|mu_ij| <= 1/2),
    with the Lovasz condition for the given delta at every index.  A Gram
    matrix scaled by c > 0 gives the same T, so a rational one is passed as
    its numerators over a common denominator.  The Gram pass below computes
    dd[i] = det(gram[j][l])_(j,l < i), and RankError is raised at the first
    dd[i] <= 0, where gram is not positive definite.

    The integral LLL of de Weger (Cohen, Alg. 2.6.7) keeps the Gram
    determinants dd[i] = B_0 ... B_(i-1), B_i = ||b*_i||^2, and
    lam[i][j] = dd[j+1] * mu_ij, all integers: one integral Gram-Schmidt
    pass over the Gram entries sets them up, and size reduction and swaps
    update them with exact divisions, and T and the columns of T^-1
    alongside (t_k -= q t_j is col_j += q col_k; a swap of two rows swaps
    the same two columns).  Size reduction rounds mu_kj = lam[k][j] / dd[j+1]
    for j = k-1 down to 0, and the Lovasz test is
    B_k >= (delta - mu^2) B_(k-1) times dd[k] dd[k-1] and delta's
    denominator.  Every decision is that of a rational LLL that recomputes
    Gram-Schmidt after each swap.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise DimensionError("delta must lie in (1/4, 1)")
    d = len(gram)
    if any(len(row) != d for row in gram):
        raise DimensionError(f"need a d x d Gram matrix, got row lengths {[len(row) for row in gram]}")
    num, den = delta.numerator, delta.denominator
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    cols = [row[:] for row in t]  # the columns of T^-1

    dd = [1] * (d + 1)
    lam = [[0] * d for _ in range(d)]
    for k in range(d):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (dd[i + 1] * u - lam[k][i] * lam[j][i]) // dd[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise RankError("Gram matrix is not positive definite")
            else:
                dd[k + 1] = u

    k = 1
    while k < d:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_up(lam_k[j], dd[j + 1])
            if q:
                t[k] = [x - q * y for x, y in zip(t[k], t[j])]
                cols[j] = [x + q * y for x, y in zip(cols[j], cols[k])]
                # size reduction leaves the orthogonalization unchanged
                lam_j = lam[j]
                for i in range(j):
                    lam_k[i] -= q * lam_j[i]
                lam_k[j] -= q * dd[j + 1]
        m = lam_k[k - 1]
        if den * dd[k + 1] * dd[k - 1] >= num * dd[k] ** 2 - den * m * m:
            k += 1
        else:
            t[k], t[k - 1] = t[k - 1], t[k]
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b_new = (dd[k - 1] * dd[k + 1] + m * m) // dd[k]
            for i in range(k + 1, d):
                s = lam[i][k]
                lam[i][k] = (dd[k + 1] * lam[i][k - 1] - m * s) // dd[k]
                lam[i][k - 1] = (b_new * s + m * lam[i][k]) // dd[k + 1]
            dd[k] = b_new
            k = max(k - 1, 1)
    return UnimodularMat(t, zip(*cols))


def certify_reduction(t: UnimodularMat, gram: Sequence[Sequence[int]], p: int) -> tuple[Fraction, ...]:
    """The squared lengths t_j (gram / p) t_j^T of the basis that T reduces,
    t_j the rows of T and p > 0, exactly.  For gram / p = A^-1 they are the
    squared widths h_E(t_j)^2 of the ellipsoid x^T A x <= 1 along t_j."""
    return tuple(
        Fraction(sum(x * sum(map(operator.mul, row, tj)) for x, row in zip(tj, gram)), p) for tj in t.int_rows
    )
