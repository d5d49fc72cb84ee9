"""Linear algebra over indefinite scalar-product spaces.

Everything downstream (framed structures, curvature, Jacobi operators,
fibration models) is built on the primitives in this module: a nondegenerate
symmetric bilinear form with explicit signature, causal classification of
vectors, orthogonal complements, and Gram-Schmidt orthonormalization that
tolerates sign-indefinite pivots.

Conventions
-----------
- Vectors are plain 1-d ``numpy`` coordinate arrays in the ambient standard
  basis; there is no wrapper class.
- A ``SubspaceBasis`` stores its basis vectors as the *rows* of a ``(k, m)``
  array together with the ``(k, k)`` Gram matrix of the restricted form.
- Rank decisions use a relative tolerance (``RANK_RTOL`` times the matrix
  max-norm); the causal-character cutoff is relative too (``NULL_ATOL`` times
  max |G| |x|^2), as are Gram-Schmidt pivots (``NULL_ATOL`` times their size).
- Complements are computed from the nullspace of the Gram map via SVD, not by
  pivoted elimination, so they behave uniformly across signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

RANK_RTOL = 1e-9
NULL_ATOL = 1e-10
ORTHONORMAL_ATOL = 1e-10
UNIT_ATOL = 1e-8  # a unit vector: |g(x, x) - 1|, or |g(x, x) + 1| if timelike
MEMBERSHIP_RTOL = 1e-8  # a vector in a subspace: its part off the subspace against max(|x|, 1)


class GeometryError(Exception):
    """Base class for all geometric failures raised by this package."""


class DegenerateSubspaceError(GeometryError):
    """A restriction of the scalar product is degenerate (null pivot, flat plane)."""


class CausalCharacterError(GeometryError):
    """A vector does not have the causal character an operation requires."""


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"
    ZERO = "zero"


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"vector has length {v.shape[0]}, expected {dim}")
    return v


@dataclass(frozen=True, eq=False)
class ScalarProduct:
    """A nondegenerate symmetric bilinear form with explicit signature.

    ``components`` is stored symmetrized; ``signature`` is the pair
    ``(n_plus, n_minus)`` of positive/negative inertia indices.
    """

    components: np.ndarray
    signature: tuple[int, int]

    @classmethod
    def from_matrix(cls, matrix) -> "ScalarProduct":
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"scalar product needs a square matrix, got shape {mat.shape}")
        sym = 0.5 * (mat + mat.T)
        scale = float(np.abs(sym).max()) if sym.size else 0.0
        eigvals = np.linalg.eigvalsh(sym)
        tol = RANK_RTOL * max(scale, 1.0)
        if np.any(np.abs(eigvals) <= tol):
            raise DegenerateSubspaceError(
                f"scalar product is degenerate: eigenvalue of magnitude "
                f"{float(np.min(np.abs(eigvals))):.3e} below tolerance {tol:.3e}"
            )
        n_plus = int(np.sum(eigvals > 0.0))
        n_minus = int(np.sum(eigvals < 0.0))
        sym.setflags(write=False)
        return cls(components=sym, signature=(n_plus, n_minus))

    @classmethod
    def diagonal(cls, entries) -> "ScalarProduct":
        return cls.from_matrix(np.diag(np.asarray(entries, dtype=float)))

    @classmethod
    def minkowski(cls, dim: int) -> "ScalarProduct":
        """diag(-1, +1, ..., +1) on ``dim`` coordinates."""
        return cls.diagonal([-1.0] + [1.0] * (dim - 1))

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @property
    def is_lorentzian(self) -> bool:
        return self.signature[1] == 1

    @cached_property
    def max_norm(self) -> float:
        """max |G|, the scale of the causal-character and pivot cutoffs, taken once per metric."""
        return float(np.abs(self.components).max())


def inner(g: ScalarProduct, x, y) -> float:
    """Evaluate g(x, y).

    The two contraction orders are averaged so that ``inner(g, x, y)`` and
    ``inner(g, y, x)`` are bitwise equal, not merely equal up to roundoff.
    """
    xv = _as_vector(x, g.dim)
    yv = _as_vector(y, g.dim)
    return 0.5 * (float(xv @ (g.components @ yv)) + float(yv @ (g.components @ xv)))


def self_products(g: ScalarProduct, xs: np.ndarray) -> np.ndarray:
    """g(x, x) per row x of a float array, bitwise ``inner(g, x, x)``: stacked matmuls run one
    gemv and one dot a row, as 1-d products do (``einsum`` rounds differently)."""
    return np.matmul(xs[:, None, :], np.matmul(g.components, xs[:, :, None]))[:, 0, 0]


def orthonormal_frame(g: ScalarProduct) -> tuple[np.ndarray, np.ndarray]:
    """A g-orthonormal frame from ``eigh(G)``: its rows ``evecs[:, i] / sqrt(|lambda_i|)``, the
    timelike ones first, and their signs g(e_i, e_i) = sign(lambda_i)."""
    evals, evecs = np.linalg.eigh(g.components)
    return (evecs / np.sqrt(np.abs(evals))).T, np.sign(evals)


_CHARACTERS = tuple(CausalCharacter)  # by code: 0 spacelike, 1 timelike, 2 null, 3 zero


def causal_characters(g: ScalarProduct, xs) -> list[CausalCharacter]:
    """Classify each row x of xs as spacelike / timelike / null / zero under g: null when
    |g(x, x)| is within ``NULL_ATOL`` of max |G| |x|^2, so a rescaling of x keeps its character.
    Each row is judged scaled by the power of two that puts its largest |entry| in [0.5, 1), an
    exact scaling, so that neither g(x, x) nor |x|^2 overflows or underflows."""
    X = np.asarray(xs, dtype=float)
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=1))[1][:, None])
    q = self_products(g, X)
    null = np.abs(q) <= NULL_ATOL * g.max_norm * (X * X).sum(axis=1)
    codes = np.select([~X.any(axis=1), null, q < 0.0], [3, 2, 1], 0)
    return [_CHARACTERS[code] for code in codes.tolist()]


def causal_character(g: ScalarProduct, x) -> CausalCharacter:
    """Classify x as spacelike / timelike / null / zero under g."""
    return causal_characters(g, _as_vector(x, g.dim)[None])[0]


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An ordered, linearly independent set of vectors with its Gram matrix.

    ``vectors`` has shape ``(k, m)`` (rows are basis vectors); ``gram`` is the
    ``(k, k)`` matrix of pairwise scalar products, recomputable bit-for-bit as
    ``vectors @ g.components @ vectors.T``.
    """

    vectors: np.ndarray
    gram: np.ndarray

    @classmethod
    def from_vectors(cls, g: ScalarProduct, vectors) -> "SubspaceBasis":
        rows = np.atleast_2d(np.asarray(vectors, dtype=float))
        if rows.shape[1] != g.dim:
            raise ValueError(f"basis vectors have length {rows.shape[1]}, expected {g.dim}")
        if matrix_rank(rows) != rows.shape[0]:
            raise ValueError("basis vectors are linearly dependent")
        gram = rows @ g.components @ rows.T
        rows = rows.copy()
        rows.setflags(write=False)
        gram.setflags(write=False)
        return cls(vectors=rows, gram=gram)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def recompute_gram(self, g: ScalarProduct) -> np.ndarray:
        return self.vectors @ g.components @ self.vectors.T

    def coordinates(self, g: ScalarProduct, vectors) -> np.ndarray:
        """Coordinates of an ambient vector (or columns, for rows of vectors) in this basis."""
        return np.linalg.solve(self.gram, self.vectors @ g.components @ np.asarray(vectors, dtype=float).T)


def matrix_rank(matrix: np.ndarray) -> int:
    """Rank with the package-wide relative tolerance (vs. the max-norm)."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    tol = RANK_RTOL * max(float(np.abs(mat).max()), 1.0)
    return int(np.sum(svals > tol))


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal (Euclidean) basis of the nullspace, rows of shape (dim_null, m)."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, svals, vh = np.linalg.svd(mat)
    tol = RANK_RTOL * max(float(np.abs(mat).max()), 1.0)
    rank = int(np.sum(svals > tol))
    return vh[rank:]


def orthogonal_complement(g: ScalarProduct, vectors) -> SubspaceBasis:
    """Basis of {y : g(y, v) = 0 for all given v}.

    For nondegenerate g and k independent inputs the result has dimension
    m - k. A null vector's complement contains the vector itself.
    """
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.shape[1] != g.dim:
        raise ValueError(f"vectors have length {rows.shape[1]}, expected {g.dim}")
    if matrix_rank(rows) != rows.shape[0]:
        raise ValueError("input vectors are linearly dependent")
    return SubspaceBasis.from_vectors(g, nullspace(rows @ g.components))


def orthonormalize(g: ScalarProduct, basis: SubspaceBasis) -> SubspaceBasis:
    """Indefinite Gram-Schmidt: output Gram is diag(+-1), same span.

    Raises ``DegenerateSubspaceError`` when a pivot's self-product falls below
    ``NULL_ATOL`` times its size -- the same obstruction as a degenerate plane.
    No pivoting is attempted: a null leading vector is an error even when the
    span itself is nondegenerate.
    """
    G, gmax = g.components, max(g.max_norm, 1.0)
    accepted: list[tuple] = []  # (u, G u, the sign of g(u, u)) per accepted vector
    for row in basis.vectors:
        v = row.astype(float).copy()
        for u, Gu, sign in accepted:  # inner(g, v, u): its two products in its order
            v -= sign * (0.5 * (float(v @ Gu) + float(u @ (G @ v)))) * u
        q = float(v @ (G @ v))  # inner(g, v, v)
        if abs(q) <= NULL_ATOL * (gmax * max(float(v @ v), 1.0)):
            raise DegenerateSubspaceError(
                f"degenerate pivot at position {len(accepted)}: |g(v,v)| = {abs(q):.3e}"
            )
        u = v / np.sqrt(abs(q))
        accepted.append((u, G @ u, 1.0 if q > 0.0 else -1.0))
    return SubspaceBasis.from_vectors(g, np.array([u for u, _, _ in accepted]))


def sample_unit_sphere(
    g: ScalarProduct,
    frame: SubspaceBasis,
    count: int,
    seed: int,
) -> np.ndarray:
    """Uniform samples from the unit sphere of a spacelike subspace.

    ``frame`` must be g-orthonormal with all signs +1 (positive definite
    restriction); draws are standard normals pushed through the frame, which
    is the uniform sphere measure. Deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k = frame.dim
    if not np.abs(frame.gram - np.eye(k)).max(initial=0.0) <= ORTHONORMAL_ATOL:
        raise DegenerateSubspaceError(
            "sphere sampling requires a positive definite, orthonormal frame"
        )
    draw = np.random.default_rng(seed).standard_normal((count, k))
    return (draw / np.linalg.norm(draw, axis=1, keepdims=True)) @ frame.vectors
