"""Algebraic curvature tensors at a point.

Sign convention
---------------
Components are stored as the fully covariant array

    R[a, b, c, d] = g(R(e_c, e_d) e_b, e_a),

i.e. the last two slots form the operator pair, the second slot is the
operator's argument and the first slot is paired through the metric. In this
convention the tensor is skew in (1,2) and in (3,4), symmetric under pair
exchange, and satisfies the first Bianchi identity cyclically over slots
(2,3,4). With the builders below, the Jacobi operator of a unit spacelike
vector on a constant-curvature tensor has the curvature constant itself as
its sole eigenvalue, which is the anchor test pinning the convention.

A mapping to the two common alternative conventions is tabulated in the
project README.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gff import VALIDATE_ATOL, GffStructure
from .linalg import DegenerateSubspaceError, ScalarProduct, self_products
from .reports import ValidationReport

PLANE_RTOL = 1e-9
# The engine squares sums of up to m^3 products of a component with four vector entries: below 1.5e6
# components at m <= 24 and vector norms <= 3.2 (the boost window); 1e8 keeps each square finite.
MAX_COMPONENT = np.sqrt(np.finfo(float).max) * 1e-8


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Rank-4 component array in the convention documented in the module docstring."""

    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components)
        if comps.ndim != 4 or len(set(comps.shape)) != 1:
            raise ValueError(f"curvature components must be (m,m,m,m), got {comps.shape}")

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def value(self, X, Y, Z, W) -> float:
        """The scalar R(X, Y, Z, W)."""
        vectors = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
        return float(np.einsum("abcd,a,b,c,d->", self.components, *vectors))


def operator_apply(R: CurvatureTensor, g: ScalarProduct, y, pair_a, pair_b) -> np.ndarray:
    """The vector R(pair_a, pair_b) y.

    The covector a -> R[a, y, pair_a, pair_b] is raised through the inverse
    metric. The classical Jacobi operator of z applied to y is
    ``operator_apply(R, g, z, y, z)`` (operator pair (y, z), argument z).
    """
    vectors = (np.asarray(v, dtype=float) for v in (y, pair_a, pair_b))
    covector = np.einsum("abcd,b,c,d->a", R.components, *vectors)
    return np.linalg.solve(g.components, covector)


def validate_curvature(R: CurvatureTensor, g: ScalarProduct) -> ValidationReport:
    """Residual report for the four curvature symmetries; pass iff all < VALIDATE_ATOL."""
    if R.dim != g.dim:
        raise ValueError(f"curvature dim {R.dim} != metric dim {g.dim}")
    comps = R.components
    report = ValidationReport(subject="curvature")

    def _add(name: str, deviation: np.ndarray) -> None:
        size = np.abs(deviation)
        worst = int(size.argmax())  # the first NaN if there is one, which is then also the max
        idx = tuple(int(i) for i in np.unravel_index(worst, deviation.shape))
        report.add(name, size.flat[worst], VALIDATE_ATOL, detail=f"worst at indices {idx}")

    _add("skew_first_pair", comps + comps.transpose(1, 0, 2, 3))
    _add("skew_second_pair", comps + comps.transpose(0, 1, 3, 2))
    _add("pair_exchange", comps - comps.transpose(2, 3, 0, 1))
    bianchi = comps + comps.transpose(0, 2, 3, 1) + comps.transpose(0, 3, 1, 2)
    _add("first_bianchi", bianchi)
    report.add("component_magnitude", np.abs(comps).max(), MAX_COMPONENT, detail="largest |component|")
    return report


def symmetrize_curvature(array: np.ndarray) -> np.ndarray:
    """Project a rank-4 array onto the curvature-symmetry subspace.

    Antisymmetrizes both index pairs, symmetrizes pair exchange, then removes
    the first-Bianchi violation by subtracting the cyclic average (which, on
    the pair-symmetric class, is the projection onto fully antisymmetric
    4-tensors). Idempotent; fixes every valid curvature tensor.
    """
    T = np.asarray(array, dtype=float)
    T = 0.5 * (T - T.transpose(1, 0, 2, 3))
    T = 0.5 * (T - T.transpose(0, 1, 3, 2))
    T = 0.5 * (T + T.transpose(2, 3, 0, 1))
    cyclic = (T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)) / 3.0
    return T - cyclic


def constant_curvature(g: ScalarProduct, c: float) -> CurvatureTensor:
    """The space-form tensor R(Z, W)Y = c (g(Y, W) Z - g(Y, Z) W)."""
    G = g.components
    comps = c * (np.einsum("ac,bd->abcd", G, G) - np.einsum("ad,bc->abcd", G, G))
    return CurvatureTensor(components=comps)


def random_algebraic_curvature(g: ScalarProduct, seed: int, scale: float = 1.0) -> CurvatureTensor:
    """A generic curvature tensor: i.i.d. normal entries projected onto the symmetry class."""
    rng = np.random.default_rng(seed)
    raw = scale * rng.standard_normal((g.dim,) * 4)
    return CurvatureTensor(components=symmetrize_curvature(raw))


def phi_model_family(S: GffStructure, a: float, b: float) -> CurvatureTensor:
    """Curvature family adapted to a framed structure.

    R(Z,W)Y = a (g(Y,W) Z - g(Y,Z) W)
            + b (g(phi W, Y) phi Z - g(phi Z, Y) phi W - 2 g(phi Z, W) phi Y).

    For every unit x in the phi-celestial sphere the Jacobi operator acts as
    a*y + 3b*g(y, phi x) phi x on x-perp, so phi x is an eigenvector with
    eigenvalue a + 3b and everything orthogonal to {x, phi x} gets a. With
    b = 0 this is the constant-curvature tensor. This is the engine's stock
    source of genuinely phi-null Osserman test instances; it is validated
    against a brute-force contraction oracle in the test suite and is not
    claimed to be the curvature of any particular manifold.
    """
    G = S.g.components
    P = G @ S.phi  # two-form components: P[i, j] = g(e_i, phi e_j)
    comps = a * (np.einsum("ac,bd->abcd", G, G) - np.einsum("ad,bc->abcd", G, G))
    comps += b * (
        np.einsum("ac,bd->abcd", P, P)
        - np.einsum("ad,bc->abcd", P, P)
        + 2.0 * np.einsum("ab,cd->abcd", P, P)
    )
    return CurvatureTensor(components=comps)


def sectional_curvatures(R: CurvatureTensor, g: ScalarProduct, xs, ys) -> np.ndarray:
    """R(x, y, x, y) / delta per row pair (x, y), delta = g(x,x) g(y,y) - g(x,y)^2 from products
    bitwise ``inner``'s; the numerator comes straight from the components.

    Raises ``DegenerateSubspaceError`` at the first |delta| at or below PLANE_RTOL times the
    pair's size (|g| |x|^2)(|g| |y|^2) -- dependent vectors and degenerate (null-containing)
    planes alike. The size, not the products, is the yardstick: they collapse near a null plane.
    """
    X, Y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    G = g.components
    q_xy = 0.5 * (np.matmul(X[:, None, :], G @ Y[:, :, None]) + np.matmul(Y[:, None, :], G @ X[:, :, None]))
    delta = self_products(g, X) * self_products(g, Y) - q_xy[:, 0, 0] ** 2
    gmax = np.abs(G).max()
    size = (gmax * np.einsum("ni,ni->n", X, X)) * (gmax * np.einsum("ni,ni->n", Y, Y))
    threshold = PLANE_RTOL * np.maximum(size, 1e-300)
    degenerate = np.flatnonzero(np.abs(delta) <= threshold)
    if degenerate.size:
        n = degenerate[0]
        raise DegenerateSubspaceError(
            f"plane is degenerate: |delta| = {abs(delta[n]):.3e} <= {threshold[n]:.3e}"
        )
    XY = (X[:, :, None] * Y[:, None, :]).reshape(len(X), -1)  # rows x (x) y: R(x, y, x, y) = XY R XY^T
    return np.einsum("ni,ni->n", XY @ R.components.reshape(XY.shape[1], -1), XY) / delta

