"""Pointwise Lorentzian metric framed f-structures.

A structure here is the linear-algebra shadow of a metric g.f.f-structure at
a single point: a tensor ``phi`` with ``phi^3 + phi = 0``, frame vectors
``xi`` spanning ker(phi), dual covectors ``eta``, signs ``epsilon`` with
``epsilon[a] = g(xi_a, xi_a)``, and a compatible indefinite metric

    g(phi X, phi Y) = g(X, Y) - sum_a epsilon_a eta^a(X) eta^a(Y).

The Lorentzian case requires exactly one timelike frame vector, which is
normalized to be ``xi[0]``. The module also provides the celestial-sphere
samplers and the shift maps between the null congruence of the timelike frame
vector and its celestial sphere (``psi``/``psi_inverse``). The engine's deciders
draw and shift through the same two private expressions as the public names:
``_celestial`` is the one draw of a celestial sphere and ``_shift`` the one map
x -> z + x onto the null congruence, each batched over rows.

The covectors ``eta`` are stored explicitly rather than being derived from
``g`` and ``xi``; the compatibility equation interlocks all five pieces, so
keeping the redundancy makes validation discriminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    NULL_ATOL,
    RANK_RTOL,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    inner,
    matrix_rank,
    orthogonal_complement,
    orthonormalize,
    sample_unit_sphere,
)
from .reports import ValidationReport

VALIDATE_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class GffStructure:
    """The tuple (phi, xi_1..xi_s, eta^1..eta^s, g) at a point.

    ``n`` is the half-rank of Im(phi), ``s = dim ker(phi)``; the ambient
    dimension is ``2n + s``. ``xi`` and ``eta`` are stored as ``(s, m)``
    arrays (rows are vectors / covectors), ``epsilon`` as a length-s array
    of signs. Construction only checks shapes; run :func:`validate_gff` for
    the structure equations.
    """

    n: int
    s: int
    g: ScalarProduct
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            # s = 0 would be an almost complex structure; the null-congruence
            # constructions need a timelike frame vector, so it is refused.
            raise ValueError("require n >= 1 and s >= 1")
        m = 2 * self.n + self.s
        if self.g.dim != m:
            raise ValueError(f"metric dimension {self.g.dim} != 2n+s = {m}")
        for name, arr, shape in (
            ("phi", self.phi, (m, m)),
            ("xi", self.xi, (self.s, m)),
            ("eta", self.eta, (self.s, m)),
            ("epsilon", self.epsilon, (self.s,)),
        ):
            if np.asarray(arr).shape != shape:
                raise ValueError(f"{name} has shape {np.asarray(arr).shape}, expected {shape}")

    @property
    def dim(self) -> int:
        return 2 * self.n + self.s

    @property
    def timelike_frame_vector(self) -> np.ndarray:
        return self.xi[0]

    @property
    def is_lorentzian_frame(self) -> bool:
        """Exactly one epsilon is -1 and it is the first."""
        return int(np.sum(self.epsilon < 0)) == 1 and self.epsilon[0] < 0

    @cached_property
    def image_frame(self) -> SubspaceBasis:
        """A g-orthonormal frame of Im(phi), computed once: the samplers, the fibrations and the
        sentinel of every command read the same frame. The column space of phi is extracted by
        SVD and orthonormalized; for a valid Lorentzian structure the restriction is positive
        definite, so all frame signs come out +1."""
        u, svals, _ = np.linalg.svd(self.phi)
        tol = RANK_RTOL * max(float(np.abs(self.phi).max()), 1.0)
        rank = int(np.sum(svals > tol))
        columns = u[:, :rank].T
        return orthonormalize(self.g, SubspaceBasis.from_vectors(self.g, columns))


def canonical_structure(n: int, s: int) -> GffStructure:
    """The block model on R^(2n+s).

    Metric ``I_2n (+) diag(-1, +1, ..., +1)``, phi the standard complex
    rotation ``[[0, -I_n], [I_n, 0]]`` on the first 2n coordinates and zero
    on the kernel, frame vectors the last s standard basis vectors.
    """
    if n < 1 or s < 1:
        raise ValueError("require n >= 1 and s >= 1")
    m = 2 * n + s
    metric = np.eye(m)
    metric[2 * n, 2 * n] = -1.0
    g = ScalarProduct.from_matrix(metric)

    phi = np.zeros((m, m))
    phi[:n, n : 2 * n] = -np.eye(n)
    phi[n : 2 * n, :n] = np.eye(n)

    epsilon = np.ones(s)
    epsilon[0] = -1.0
    xi = np.zeros((s, m))
    for a in range(s):
        xi[a, 2 * n + a] = 1.0
    eta = epsilon[:, None] * (xi @ g.components)
    return GffStructure(n=n, s=s, g=g, phi=phi, xi=xi, eta=eta, epsilon=epsilon)


@np.errstate(over="ignore", invalid="ignore")
def validate_gff(S: GffStructure) -> ValidationReport:
    """Residual report for every structure equation; pass iff all < VALIDATE_ATOL. A finite entry
    whose products overflow gives an inf or NaN residual, which fails its check, with no warning."""
    tol = VALIDATE_ATOL
    report = ValidationReport(subject="gff-structure")
    m = S.dim
    G = S.g.components
    phi = S.phi

    report.add("phi_cubed_plus_phi", np.abs(phi @ phi @ phi + phi).max(), tol)

    correction = sum(np.outer(S.xi[a], S.eta[a]) for a in range(S.s))
    report.add("phi_squared_identity", np.abs(phi @ phi + np.eye(m) - correction).max(), tol)

    duality = S.eta @ S.xi.T
    report.add("eta_xi_duality", np.abs(duality - np.eye(S.s)).max(), tol)

    compat = phi.T @ G @ phi
    target = G - sum(S.epsilon[a] * np.outer(S.eta[a], S.eta[a]) for a in range(S.s))
    report.add("metric_compatibility", np.abs(compat - target).max(), tol)

    report.add("phi_kills_xi", np.abs(phi @ S.xi.T).max(), tol)
    report.add("eta_kills_phi", np.abs(S.eta @ phi).max(), tol)

    # g(X, xi_a) = epsilon_a eta^a(X) as covector identities.
    report.add("metric_frame_duality", np.abs(S.xi @ G - S.epsilon[:, None] * S.eta).max(), tol)

    report.add("phi_skew_adjoint", np.abs(G @ phi + phi.T @ G).max(), tol)

    rank = matrix_rank(phi)
    report.add("phi_rank", float(abs(rank - 2 * S.n)), 0.5, detail=f"rank(phi) = {rank}")

    report.add("image_kernel_orthogonal", np.abs(S.xi @ G @ phi).max(), tol)

    frame_gram = S.xi @ G @ S.xi.T
    report.add("frame_gram_diagonal", np.abs(frame_gram - np.diag(S.epsilon)).max(), tol)

    lorentz_ok = S.is_lorentzian_frame and S.g.is_lorentzian
    report.add(
        "lorentzian_frame",
        0.0 if lorentz_ok else 1.0,
        0.5,
        detail=f"epsilon = {S.epsilon.tolist()}, metric signature = {S.g.signature}",
    )
    return report


def _require_lorentzian(S: GffStructure) -> None:
    if not S.is_lorentzian_frame:
        raise CausalCharacterError(
            "operation requires the Lorentzian normalization: exactly one "
            "timelike frame vector, placed first"
        )


def sample_phi_celestial(S: GffStructure, count: int, seed: int) -> np.ndarray:
    """Uniform sample of unit vectors in Im(phi) orthogonal to the timelike frame, as rows."""
    _require_lorentzian(S)
    points = sample_unit_sphere(S.g, S.image_frame, count, seed)
    _check_sample(S, points, in_image=True)
    return points


def sample_celestial(S: GffStructure, count: int, seed: int) -> np.ndarray:
    """Uniform sample of the full celestial sphere of the timelike frame vector, as rows."""
    _require_lorentzian(S)
    points = _celestial(S.g, S.timelike_frame_vector, count, seed)
    _check_sample(S, points, in_image=False)
    return points


def _celestial(g: ScalarProduct, z: np.ndarray, count: int, seed: int) -> np.ndarray:
    """The one draw of the celestial sphere of a unit timelike z: uniform unit vectors of z-perp,
    through the g-orthonormalized complement of z. Outside Lorentzian signature z-perp is not
    spacelike and the sphere sampler's frame check refuses it."""
    return sample_unit_sphere(g, orthonormalize(g, orthogonal_complement(g, [z])), count, seed)


def _shift(z: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The shift psi^-1 of the unit timelike z, x -> z + x for every row x of xs: the celestial
    sphere of z onto its null congruence."""
    return z + xs


def _validated_bound(S: GffStructure, points: np.ndarray) -> np.ndarray:
    """Per row x of ``points``, VALIDATE_ATOL (1 + |x|_1 + |phi x|_1)^2: the bound of a constraint at x
    that combines validated identities, such as g(z, z) = -1, g(x, z) = 0 and eta(x) = 0 (through
    x = -phi(phi x) on Im(phi)). Each identity M is good to VALIDATE_ATOL per entry, so a^T M b to
    VALIDATE_ATOL |a|_1 |b|_1, and the coefficients are those of a frame vector (1), of x and of phi x."""
    return VALIDATE_ATOL * (1.0 + np.abs(points).sum(axis=1) + np.abs(points @ S.phi.T).sum(axis=1)) ** 2


def _check_sample(S: GffStructure, points: np.ndarray, in_image: bool) -> None:
    """Verify the defining constraints of sphere points x, each within ``_validated_bound``:
    g(x, x) = 1, g(x, z) = 0, and eta(x) = 0 for Im(phi) points."""
    z = S.timelike_frame_vector
    q = np.einsum("nm,mk,nk->n", points, S.g.components, points)
    zp = points @ S.g.components @ z
    tol = _validated_bound(S, points)
    ok = (np.abs(q - 1.0) <= tol) & (np.abs(zp) <= tol)
    if in_image:
        ok &= np.abs(points @ S.eta.T).max(axis=1) <= tol
    if not ok.all():
        kind = "S_phi" if in_image else "S_of_z"
        raise GeometryError(f"sampled point violates {kind} constraints")


def psi(S: GffStructure, u) -> np.ndarray:
    """Map a null-congruence vector u to the celestial sphere: u - xi_1."""
    _require_lorentzian(S)
    uv = np.asarray(u, dtype=float).reshape(-1)
    q = inner(S.g, uv, uv)
    if abs(q) > NULL_ATOL:
        raise CausalCharacterError(f"psi requires a null vector: g(u,u) = {q:.3e}")
    zp = inner(S.g, uv, S.timelike_frame_vector)
    if abs(zp + 1.0) > NULL_ATOL:
        raise CausalCharacterError(f"psi requires g(u, xi_1) = -1: got {zp:.6e}")
    return uv - S.timelike_frame_vector


def psi_inverse(S: GffStructure, x) -> np.ndarray:
    """Map a celestial-sphere vector x to the null congruence: xi_1 + x."""
    _require_lorentzian(S)
    xv = np.asarray(x, dtype=float).reshape(-1)
    q = inner(S.g, xv, xv)
    if abs(q - 1.0) > NULL_ATOL:
        raise CausalCharacterError(f"psi_inverse requires a unit vector: g(x,x) = {q:.6e}")
    zp = inner(S.g, xv, S.timelike_frame_vector)
    if abs(zp) > NULL_ATOL:
        raise CausalCharacterError(f"psi_inverse requires g(x, xi_1) = 0: got {zp:.3e}")
    return _shift(S.timelike_frame_vector, xv[None])[0]
