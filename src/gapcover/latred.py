"""Lattice basis reduction with exact certificates.

LLL over exact rationals (no floating point anywhere), returning the
unimodular transform alongside the reduced basis, and a norm-product /
determinant certificate of how far the reduced basis is from orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, RankError
from .exactalg import (
    Mat,
    UnimodularMat,
    as_vector,
    det,
    inverse,  # not called here; perfbench/tracing.py wraps latred.inverse
    norm_sq,
    sqrt_upper,
    vec_dot,
)

LLL_DEFAULT_DELTA = Fraction(99, 100)


class LatticeBasis:
    """d independent rational row vectors generating a full-rank lattice."""

    __slots__ = ("vectors", "_mat")

    def __init__(self, vectors: Iterable[Iterable]):
        vecs = tuple(as_vector(v) for v in vectors)
        d = len(vecs)
        if d == 0 or any(len(v) != d for v in vecs):
            raise DimensionError("need d vectors of dimension d")
        m = Mat(vecs)
        if det(m) == 0:
            raise RankError("basis vectors are dependent")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeBasis is immutable")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def mat(self) -> Mat:
        return self._mat

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeBasis) and self.vectors == other.vectors

    def __repr__(self):
        return f"LatticeBasis({[tuple(map(str, v)) for v in self.vectors]})"


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


def _gram_schmidt(rows: list[list[Fraction]]):
    d = len(rows)
    ortho: list[list[Fraction]] = []
    mu = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        v = list(rows[i])
        for j in range(i):
            denom = vec_dot(ortho[j], ortho[j])
            mu[i][j] = vec_dot(rows[i], ortho[j]) / denom
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
    return ortho, mu


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def lll_reduce(basis: LatticeBasis, delta=LLL_DEFAULT_DELTA) -> tuple[LatticeBasis, UnimodularMat]:
    """LLL reduction over exact rationals.

    Returns (reduced, t) with t unimodular and t @ input == reduced, exactly.
    On exit the basis is size-reduced (|mu_ij| <= 1/2) and satisfies the
    Lovasz condition with the given delta at every index.

    Gram-Schmidt runs once; a swap of b_(k-1) and b_k then updates mu and
    B_i = ||b*_i||^2 in place with the exact formulas of Cohen, Alg. 2.6.3.
    Those values equal a full recomputation, so every decision and the
    output are those of recomputing after each swap.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise DimensionError("delta must lie in (1/4, 1)")
    d = basis.dim
    rows = [list(v) for v in basis.vectors]
    t = [[int(i == j) for j in range(d)] for i in range(d)]

    ortho, mu = _gram_schmidt(rows)
    b_sq = [vec_dot(v, v) for v in ortho]
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            q = _round_half_up(mu[k][j])
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
                # size reduction leaves the orthogonalization unchanged
                for jj in range(j):
                    mu[k][jj] -= q * mu[j][jj]
                mu[k][j] -= q
        m = mu[k][k - 1]
        if b_sq[k] >= (delta - m**2) * b_sq[k - 1]:
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            t[k], t[k - 1] = t[k - 1], t[k]
            b_new = b_sq[k] + m**2 * b_sq[k - 1]
            mu[k][k - 1] = m * b_sq[k - 1] / b_new
            b_sq[k] = b_sq[k - 1] * b_sq[k] / b_new
            b_sq[k - 1] = b_new
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, d):
                s = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * s
                mu[i][k - 1] = s + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)

    reduced = LatticeBasis(rows)
    transform = UnimodularMat(t)
    assert transform.mat @ basis.mat == reduced.mat
    return reduced, transform


def certify_reduction(basis: LatticeBasis) -> ReductionCert:
    """Exact norm-product/determinant certificate (see ReductionCert)."""
    prod_sq = Fraction(1)
    for v in basis.vectors:
        prod_sq *= norm_sq(v)
    det_abs = abs(det(basis.mat))
    upper = sqrt_upper(prod_sq)
    return ReductionCert(
        norm_product=upper,
        norm_product_sq=prod_sq,
        det_abs=det_abs,
        ratio=upper / det_abs,
    )
