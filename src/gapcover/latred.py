"""Lattice basis reduction with exact certificates.

LLL in integers (no floating point anywhere): a basis is given as integer
rows, a rational basis being those rows over one common denominator, which
changes no decision of the reduction.  The integral LLL of de Weger works on
integer Gram determinants, which also prove the rows independent; it returns
the reduced rows with the unimodular transform.  A norm-product /
determinant certificate of the rows over their denominator says how far the
reduced basis is from orthogonal; its determinant, taken on the integer
rows, is the one computed on the pipeline's path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificationError, DimensionError, RankError
from .exactalg import (
    UnimodularMat,
    _int_det,
    det,  # not called here; perfbench/tracing.py wraps latred.det
    int_matmul,
    inverse,  # not called here; perfbench/tracing.py wraps latred.inverse
    sqrt_upper,
)

LLL_DEFAULT_DELTA = Fraction(99, 100)


@dataclass(frozen=True)
class ReductionCert:
    """Norm-product certificate for a basis.

    ``norm_product`` is a rational upper bound on prod ||v_j||_2 (the exact
    squared product is kept in ``norm_product_sq``; the bound rounds the
    square root up by at most 2^-48 relative).  ``ratio`` therefore upper
    bounds prod ||v_j|| / |det|, and is >= 1 by Hadamard's inequality.
    """

    norm_product: Fraction
    norm_product_sq: Fraction
    det_abs: Fraction
    ratio: Fraction


def _round_half_up(num: int, den: int) -> int:
    """Nearest integer to num / den (den > 0), halves rounded up."""
    return (2 * num + den) // (2 * den)


def lll_reduce(basis: Sequence[Sequence[int]], delta=LLL_DEFAULT_DELTA) -> tuple[list[list[int]], UnimodularMat]:
    """LLL reduction in integers of d integer rows of length d.

    Returns (reduced, t) with t unimodular and t @ basis == reduced, exactly;
    that identity is checked on the integer rows and CertificationError is
    raised if it fails.  The rows must be independent: the Gram pass below
    computes dd[i] = det(b_j . b_l)_(j,l < i), and RankError is raised at the
    first dd[i] = 0; no separate determinant is taken.
    On exit the basis is size-reduced (|mu_ij| <= 1/2) and satisfies the
    Lovasz condition with the given delta at every index.

    A rational basis is passed as its rows over a common denominator: that
    scaling changes no mu_ij and scales every B_i = ||b*_i||^2 alike, so the
    same t reduces it to reduced over the same denominator.  The
    integral LLL of de Weger (Cohen, Alg. 2.6.7) keeps the Gram
    determinants dd[i] = B_0 ... B_(i-1) and lam[i][j] = dd[j+1] * mu_ij,
    all integers: one integral Gram-Schmidt pass sets them up, and size
    reduction and swaps update them with exact divisions.  Size reduction
    rounds mu_kj = lam[k][j] / dd[j+1] for j = k-1 down to 0, and the
    Lovasz test is B_k >= (delta - mu^2) B_(k-1) times dd[k] dd[k-1] and
    delta's denominator.  Every decision is that of a rational LLL that
    recomputes Gram-Schmidt after each swap.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise DimensionError("delta must lie in (1/4, 1)")
    d = len(basis)
    if any(len(row) != d for row in basis):
        raise DimensionError(f"need d vectors of dimension d, got lengths {[len(row) for row in basis]}")
    num, den = delta.numerator, delta.denominator
    b = [list(row) for row in basis]
    t = [[int(i == j) for j in range(d)] for i in range(d)]

    dd = [1] * (d + 1)
    lam = [[0] * d for _ in range(d)]
    for k in range(d):
        for j in range(k + 1):
            u = sum(map(operator.mul, b[k], b[j]))
            for i in range(j):
                u = (dd[i + 1] * u - lam[k][i] * lam[j][i]) // dd[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise RankError("basis vectors are dependent")
            else:
                dd[k + 1] = u

    k = 1
    while k < d:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_up(lam_k[j], dd[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                t[k] = [x - q * y for x, y in zip(t[k], t[j])]
                # size reduction leaves the orthogonalization unchanged
                lam_j = lam[j]
                for i in range(j):
                    lam_k[i] -= q * lam_j[i]
                lam_k[j] -= q * dd[j + 1]
        m = lam_k[k - 1]
        if den * dd[k + 1] * dd[k - 1] >= num * dd[k] ** 2 - den * m * m:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            t[k], t[k - 1] = t[k - 1], t[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b_new = (dd[k - 1] * dd[k + 1] + m * m) // dd[k]
            for i in range(k + 1, d):
                s = lam[i][k]
                lam[i][k] = (dd[k + 1] * lam[i][k - 1] - m * s) // dd[k]
                lam[i][k - 1] = (b_new * s + m * lam[i][k]) // dd[k + 1]
            dd[k] = b_new
            k = max(k - 1, 1)

    if int_matmul(t, basis) != b:
        raise CertificationError("reduction transform does not map the basis to the reduced one")
    return b, UnimodularMat(t)


def certify_reduction(rows: Sequence[Sequence[int]], den: int) -> ReductionCert:
    """Exact norm-product/determinant certificate (see ReductionCert) of the
    basis rows / den, d integer rows of length d and den > 0: prod ||n_j||^2
    / den^(2d) and |det(rows)| / den^d."""
    d = len(rows)
    prod_sq = Fraction(math.prod(sum(x * x for x in row) for row in rows), den ** (2 * d))
    det_abs = Fraction(abs(_int_det(rows)), den**d)
    upper = sqrt_upper(prod_sq)
    return ReductionCert(
        norm_product=upper,
        norm_product_sq=prod_sq,
        det_abs=det_abs,
        ratio=upper / det_abs,
    )
