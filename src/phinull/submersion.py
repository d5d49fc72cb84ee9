"""Pointwise models of the torus-bundle projections and their curvature transfer.

A ``FibrationModel`` is a g-orthogonal splitting of the ambient space into a
horizontal and a vertical subspace, one per bundle projection:

- ``pi_full``: horizontal = Im(phi), vertical = all frame vectors (base is
  complex-type); shift coefficient sigma = s - 2.
- ``tau``: horizontal = Im(phi) + timelike frame vector, vertical = the
  spacelike frame vectors (base is Lorentz-contact-type); sigma = s - 1.
- ``pi_prime``: the s = 1 specialization of ``pi_full``; sigma = -1.
- ``remark_sasaki``: horizontal = Im(phi) + last (spacelike) frame vector,
  vertical includes the timelike one (base is Riemannian-contact-type);
  vertical sign sum s - 3.

The integrability tensor of each projection is implemented purely through its
closed form in the structure tensors (never through a covariant derivative,
which pointwise data cannot supply): for horizontal X, Y

    A_X Y = c(X, Y) V,    c(X, Y) = -g(X, phi Y),

with V the sum of the vertical frame vectors (``c(X, Y) = +g(Y, phi X)`` is
kept verbatim for the ``remark_sasaki`` kind), and ``A_X xi_a = -epsilon_a
phi X`` for vertical frame directions. The keystone composition law is
``A_x A_x y = -sigma g(y, phi x) phi x``, sigma the vertical sign sum. The
horizontal curvature transfer

    g(Rstar_x(y), z) = R(x, y, x, z) + 2 g(A_x y, A_x z) - g(A_y x, A_x z)

is, on a domain with basis rows D, one matrix B[i, j] = g(Rstar_x(d_j), d_i):

    B = D Q_x D^T + 2 g(V, V) a a^T - g(V, V) a b^T,
    Q_x = R(x, ., x, .),   a_i = c(x, d_i),   b_j = c(d_j, x).

``transfer_forms`` builds it for a whole stack of samples at once, its first
term as ``D C`` from ``jacobi.jacobi_covectors``; the base operators
(``r_star_stack``, ``base_null_stack``) become operators through
``jacobi.operator_stack`` like every other operator, and the shift-identity
sentinel and the remark identity are read off the same form. ``oneill_A`` and
``r_star_form`` stay as the per-vector definitions it is tested against.

A theorem report samples one phi-celestial sphere and contracts curvature
with two stacks of bases only: the sphere and the null bases xi_1 + x. Each
public decider samples its sphere and calls the private body the report
calls with those shared pieces, so a decider run alone and its block of the
report are the same computation.

On V = x-perp within Im(phi) the transfer equals g(R_x(y), z) +
3 sigma g(y, phi x) g(phi x, z). The identity is algebraic, so it doubles as
the internal-consistency sentinel, comparing two independent routes: the
transfer form with the actual g(V, V), against R_x raised through g^-1 plus
the rank-one term with the fibration's recorded sigma. A violation means a
bug (or a tampered sigma), never a property of the instance. V, its Grams,
the covectors on V and the right side's pieces are built once per report
once per report; only a, b, g(V, V) and sigma are the fibration's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curvature import CurvatureTensor, operator_apply, sectional_curvature
from .gff import GffStructure, sample_phi_celestial, validate_gff
from .jacobi import (
    DEFAULT_CONSTANCY_TOL,
    DEFAULT_GROUPING_TOL,
    DEFAULT_SAMPLES,
    DecisionReport,
    JacobiOperator,
    OperatorStack,
    PhiNullReport,
    _error_free,
    _phi_null_direct,
    _phi_null_quotient,
    decide_constancy,
    jacobi_covectors,
    operator_stack,
    perp_within,
    quotient_representatives,
    slot4_contraction,
)
from .linalg import (
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    inner,
)

IDENTITY_ATOL = 1e-9
SPLIT_ATOL = 1e-10
HORIZONTAL_RTOL = 1e-8


class FibrationKind(Enum):
    PI_FULL = "pi_full"
    TAU = "tau"
    PI_PRIME = "pi_prime"
    REMARK_SASAKI = "remark_sasaki"


class RemarkKind(Enum):
    SASAKI_BASE = "sasaki_base"
    LORENTZ_SASAKI_BASE = "lorentz_sasaki_base"


@dataclass(frozen=True, eq=False)
class FibrationModel:
    """A horizontal/vertical splitting with its vertical sign sum ``sigma``."""

    kind: FibrationKind
    structure: GffStructure
    horizontal: SubspaceBasis
    vertical: SubspaceBasis
    vertical_indices: tuple[int, ...]
    sigma: float

    @property
    def vertical_sum(self) -> np.ndarray:
        """Sum of the vertical frame vectors (the closed forms' vertical factor)."""
        return self.vertical.vectors.sum(axis=0)


def make_fibration(S: GffStructure, kind: FibrationKind) -> FibrationModel:
    """Assemble the splitting for one projection kind and check its invariants."""
    if kind is FibrationKind.PI_PRIME:
        if S.s != 1:
            raise ValueError(f"{kind.value} requires s = 1, got s = {S.s}")
    elif S.s < 2:
        raise ValueError(f"{kind.value} requires s >= 2, got s = {S.s}")

    image = S.image_frame
    if kind in (FibrationKind.PI_FULL, FibrationKind.PI_PRIME):
        horizontal_rows = image.vectors
        vertical_indices = tuple(range(S.s))
        sigma = float(S.s - 2) if kind is FibrationKind.PI_FULL else -1.0
    elif kind is FibrationKind.TAU:
        horizontal_rows = np.vstack([image.vectors, S.xi[0]])
        vertical_indices = tuple(range(1, S.s))
        sigma = float(S.s - 1)
    else:  # REMARK_SASAKI
        horizontal_rows = np.vstack([image.vectors, S.xi[S.s - 1]])
        vertical_indices = tuple(range(S.s - 1))
        sigma = float(S.s - 3)

    horizontal = SubspaceBasis.from_vectors(S.g, horizontal_rows)
    vertical = SubspaceBasis.from_vectors(S.g, S.xi[list(vertical_indices)])

    cross = horizontal.vectors @ S.g.components @ vertical.vectors.T
    if np.abs(cross).max() > SPLIT_ATOL:
        raise GeometryError(
            f"horizontal/vertical splitting is not g-orthogonal: residual {np.abs(cross).max():.3e}"
        )
    if horizontal.dim + vertical.dim != S.dim:
        raise GeometryError("splitting does not fill the ambient space")
    sign_sum = float(np.sum(S.epsilon[list(vertical_indices)]))
    if abs(sign_sum - sigma) > 1e-12:
        raise GeometryError(
            f"shift coefficient {sigma} disagrees with the vertical sign sum {sign_sum}"
        )
    return FibrationModel(
        kind=kind,
        structure=S,
        horizontal=horizontal,
        vertical=vertical,
        vertical_indices=vertical_indices,
        sigma=sigma,
    )


def vertical_part(F: FibrationModel, X) -> np.ndarray:
    """The vertical component of X, or of every row of a stack of vectors."""
    return F.vertical.coordinates(F.structure.g, X).T @ F.vertical.vectors


def _horizontal_errors(F: FibrationModel, xs: np.ndarray, what: str) -> list:
    """Per row of ``xs``: a GeometryError if it leaks into the vertical space, else None."""
    leaks = np.linalg.norm(vertical_part(F, xs), axis=-1)
    scales = np.maximum(np.linalg.norm(xs, axis=-1), 1.0)
    return [
        GeometryError(f"{what} must be horizontal: vertical component {leak:.3e}")
        if leak > HORIZONTAL_RTOL * scale else None
        for leak, scale in zip(leaks, scales)
    ]


def _require_horizontal(F: FibrationModel, X, what: str) -> np.ndarray:
    """X (a vector, or rows of vectors) once all of it is checked horizontal."""
    Xv = np.asarray(X, dtype=float)
    for error in _horizontal_errors(F, np.atleast_2d(Xv), what):
        if error is not None:
            raise error
    return Xv


def oneill_A(F: FibrationModel, X, Y) -> np.ndarray:
    """The integrability tensor A_X Y in closed form, one pair of vectors at a time.

    ``X`` must be horizontal; ``Y`` may be horizontal (result is vertical) or
    vertical (result is horizontal, ``-epsilon_a phi X`` extended linearly).
    The batched transfer form is checked against this definition.
    """
    S = F.structure
    Xv = _require_horizontal(F, X, "first argument of A")
    Yv = np.asarray(Y, dtype=float).reshape(-1)
    vpart = vertical_part(F, Yv)
    hpart = Yv - vpart
    scale = max(float(np.linalg.norm(Yv)), 1.0)
    if np.linalg.norm(vpart) <= HORIZONTAL_RTOL * scale:
        if F.kind is FibrationKind.REMARK_SASAKI:
            coeff = inner(S.g, Yv, S.phi @ Xv)
        else:
            coeff = -inner(S.g, Xv, S.phi @ Yv)
        return coeff * F.vertical_sum
    if np.linalg.norm(hpart) <= HORIZONTAL_RTOL * scale:
        coords = F.vertical.coordinates(S.g, Yv)
        signed = float(np.sum(coords * S.epsilon[list(F.vertical_indices)]))
        return -signed * (S.phi @ Xv)
    raise GeometryError("second argument of A must be horizontal or vertical")


def r_star_form(R: CurvatureTensor, g: ScalarProduct, F: FibrationModel, x, y, z) -> float:
    """The transferred curvature pairing g(Rstar_x(y), z) for horizontal x, y, z, per vector."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    zv = np.asarray(z, dtype=float).reshape(-1)
    value = R.value(xv, yv, xv, zv)
    a_xy = oneill_A(F, xv, yv)
    a_xz = oneill_A(F, xv, zv)
    a_yx = oneill_A(F, yv, xv)
    return value + 2.0 * inner(g, a_xy, a_xz) - inner(g, a_yx, a_xz)


def _a_coefficients(F: FibrationModel, xs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with A_x d = a V and A_d x = b V for x = xs[n], d = rows[n, i], V the vertical sum."""
    P = F.structure.g.components @ F.structure.phi  # P[i, j] = g(e_i, phi e_j)
    x_phi_d = np.einsum("nim,nm->ni", rows, xs @ P)
    d_phi_x = np.einsum("nim,nm->ni", rows, xs @ P.T)
    if F.kind is FibrationKind.REMARK_SASAKI:
        return d_phi_x, x_phi_d
    return -x_phi_d, -d_phi_x


def transfer_forms(g: ScalarProduct, F: FibrationModel, xs, domains, C) -> np.ndarray:
    """B[n, i, j] = g(Rstar_x(d_j), d_i) for x = xs[n] and the horizontal rows d of domains[n].

    ``D Q_x D^T + 2 g(V,V) a a^T - g(V,V) a b^T`` with the actual g(V, V), its first term as
    ``D C`` from ``C = jacobi_covectors(RX, xs, domains)``.
    """
    v = F.vertical_sum
    a, b = _a_coefficients(F, xs, domains)
    return domains @ C + (v @ g.components @ v) * a[:, :, None] * (2.0 * a - b)[:, None, :]


def r_star_stack(R: CurvatureTensor, g: ScalarProduct, F: FibrationModel, xs) -> OperatorStack:
    """Base-space Jacobi operators of unit spacelike horizontal bases, each on x-perp in H."""
    xs = np.asarray(xs, dtype=float)
    return _r_star_stack(slot4_contraction(R, xs), g, F, xs)


def _r_star_stack(RX: np.ndarray, g: ScalarProduct, F: FibrationModel, xs: np.ndarray) -> OperatorStack:
    """``r_star_stack`` of the bases xs from their slot-4 contraction RX."""
    errors = _horizontal_errors(F, xs, "base of Rstar")
    for n, q in enumerate(np.einsum("nm,mk,nk->n", xs, g.components, xs)):
        if errors[n] is None and abs(q - 1.0) > 1e-8:
            errors[n] = CausalCharacterError(f"Rstar base must be unit spacelike: g(x,x) = {q:.6e}")
    ok = _error_free(errors)
    domains = perp_within(g, F.horizontal.vectors, xs[ok])
    C = jacobi_covectors(RX[ok], xs[ok], domains)
    return operator_stack(xs, errors, g, domains, transfer_forms(g, F, xs[ok], domains, C))


def r_star(R: CurvatureTensor, g: ScalarProduct, F: FibrationModel, x) -> JacobiOperator:
    """Base-space Jacobi operator of a unit spacelike horizontal x, on x-perp in H."""
    return r_star_stack(R, g, F, np.asarray(x, dtype=float).reshape(1, -1)).operator()


def _sentinel_frame(RX: np.ndarray, S: GffStructure, xs: np.ndarray) -> tuple:
    """What the sentinel shares between fibrations on the bases xs, from their slot-4 contraction
    RX: V = x-perp in Im(phi), its Grams, ``C = jacobi_covectors`` on V, and the right side's R_x
    raised through g^-1 and rank-one term ``g(., phi x) phi x``, both in V-coordinates."""
    G = S.g.components
    V = perp_within(S.g, S.image_frame.vectors, xs)
    grams = V @ G @ V.transpose(0, 2, 1)
    C = jacobi_covectors(RX, xs, V)
    raised = np.linalg.solve(grams, V @ G @ np.linalg.solve(G, C))
    weights = np.einsum("nkm,nm->nk", V @ G, xs @ S.phi.T)  # g(v_k, phi x)
    rank_one = np.linalg.solve(grams, weights[:, :, None]) * weights[:, None, :]
    return V, grams, C, raised, rank_one


def _shift_identity_defects(g: ScalarProduct, F: FibrationModel, xs: np.ndarray, frame: tuple) -> tuple:
    """The defects proj_V Rstar|_V - proj_V R_x|_V - 3 sigma g(., phi x) phi x in V-coordinates,
    and the scales of the right sides. Only a, b, g(V, V) and sigma are the fibration's."""
    _require_horizontal(F, xs, "first argument of A")
    V, grams, C, raised, rank_one = frame
    lhs = np.linalg.solve(grams, transfer_forms(g, F, xs, V, C))
    scales = np.maximum(np.abs(raised).max(axis=(1, 2)), max(1.0, abs(3.0 * F.sigma)))
    return lhs - raised - 3.0 * F.sigma * rank_one, scales


@dataclass(frozen=True)
class ShiftCheck:
    """Residual of the rank-one shift identity, with the invariance defect of R_x on V."""

    residual: float
    v_leak: float
    sigma: float


def shift_identity_residual(R: CurvatureTensor, S: GffStructure, F: FibrationModel, x, y) -> ShiftCheck:
    """Check Rstar_x(y) = R_x(y)|_V + 3 sigma g(y, phi x) phi x on V = x-perp in Im(phi).

    Both sides are projected onto V (the transfer operator can leak into the
    extra horizontal directions of the tau kind, and a generic algebraic
    curvature tensor does not leave V invariant); the defect of R_x(y)
    against V is returned separately, not folded into the residual.
    """
    g = S.g
    xs = _require_horizontal(F, x, "base of the shift identity").reshape(1, -1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    frame = _sentinel_frame(slot4_contraction(R, xs), S, xs)
    defects, _ = _shift_identity_defects(g, F, xs, frame)
    xv, V, gram = xs[0], frame[0][0], frame[1][0]
    y_coords = np.linalg.solve(gram, V @ g.components @ yv)
    if np.linalg.norm(yv - y_coords @ V) > 1e-8 * max(np.linalg.norm(yv), 1.0):
        raise ValueError("y must lie in x-perp within Im(phi)")
    jac = operator_apply(R, g, xv, yv, xv)
    jac_coords = np.linalg.solve(gram, V @ g.components @ jac)
    v_leak = float(np.linalg.norm(jac - jac_coords @ V))
    diff = defects[0] @ y_coords
    residual = float(np.sqrt(abs(diff @ gram @ diff)))
    return ShiftCheck(residual=residual, v_leak=v_leak, sigma=F.sigma)


def base_osserman_check(
    R: CurvatureTensor,
    S: GffStructure,
    F: FibrationModel,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> DecisionReport:
    """Pointwise Osserman condition of the complex-type base, through the transfer operator."""
    sphere = sample_phi_celestial(S, samples, seed).points
    return _base_osserman(slot4_contraction(R, sphere), S.g, F, sphere, seed, tol, grouping_tol)


def _base_osserman(
    RX: np.ndarray, g: ScalarProduct, F: FibrationModel, sphere, seed: int, tol: float, grouping_tol: float
) -> DecisionReport:
    """``base_osserman_check`` on the sampled sphere, from its slot-4 contraction RX."""
    if F.kind not in (FibrationKind.PI_FULL, FibrationKind.PI_PRIME):
        raise ValueError(f"base Osserman check applies to pi_full/pi_prime, got {F.kind.value}")
    return decide_constancy(
        f"base-osserman[{F.kind.value}]", _r_star_stack(RX, g, F, sphere).records(grouping_tol),
        seed, tol, grouping_tol, notes={"sigma": F.sigma},
    )


def base_null_stack(R: CurvatureTensor, g: ScalarProduct, F: FibrationModel, xs) -> OperatorStack:
    """Null Jacobi operators of u = xi_1 + x on the quotient of u-perp in H, via the transfer form."""
    us = F.structure.xi[0] + np.asarray(xs, dtype=float)
    return _base_null_stack(slot4_contraction(R, us), g, F, us)


def _base_null_stack(RU: np.ndarray, g: ScalarProduct, F: FibrationModel, us: np.ndarray) -> OperatorStack:
    """``base_null_stack`` of the null bases us from their slot-4 contraction RU."""
    reps, kernel_dims = quotient_representatives(g, F.horizontal.vectors, us)
    errors = _horizontal_errors(F, us, "first argument of A")
    for n in np.flatnonzero(kernel_dims != 1):
        errors[n] = GeometryError("base null quotient: restricted Gram kernel is not one-dimensional")
    ok = _error_free(errors)
    C = jacobi_covectors(RU[ok], us[ok], reps[ok])
    return operator_stack(us, errors, g, reps[ok], transfer_forms(g, F, us[ok], reps[ok], C))


def base_null_osserman_check(
    R: CurvatureTensor,
    S: GffStructure,
    F: FibrationModel,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> DecisionReport:
    """Null Osserman condition of the Lorentz-contact base w.r.t. its timelike direction.

    The base is modeled on the horizontal space of the tau splitting, where
    the celestial sphere of the projected timelike direction coincides with
    the phi-celestial sphere upstairs; null directions are xi_1 + x and their
    quotient operators are assembled from the transfer form.
    """
    us = F.structure.xi[0] + sample_phi_celestial(S, samples, seed).points
    return _base_null_osserman(slot4_contraction(R, us), S.g, F, us, seed, tol, grouping_tol)


def _base_null_osserman(
    RU: np.ndarray, g: ScalarProduct, F: FibrationModel, us, seed: int, tol: float, grouping_tol: float
) -> DecisionReport:
    """``base_null_osserman_check`` on the null bases us = xi_1 + x, from their slot-4 contraction RU."""
    if F.kind is not FibrationKind.TAU:
        raise ValueError(f"base null Osserman check applies to the tau kind, got {F.kind.value}")
    return decide_constancy(
        "base-null-osserman[tau]", _base_null_stack(RU, g, F, us).records(grouping_tol),
        seed, tol, grouping_tol, notes={"sigma": F.sigma},
    )


def _hypothesis_residuals(RX: np.ndarray, S: GffStructure, xs: np.ndarray) -> np.ndarray:
    """Relative misalignment of R_x(phi x) against phi x per sample (0 for an eigenvector),
    from the slot-4 contraction RX of the samples."""
    G = S.g.components
    phix = xs @ S.phi.T
    w = np.linalg.solve(G, jacobi_covectors(RX, xs, phix[:, None, :])[:, :, 0].T).T
    lam = np.einsum("nm,mk,nk->n", w, G, phix) / np.einsum("nm,mk,nk->n", phix, G, phix)
    return np.linalg.norm(w - lam[:, None] * phix, axis=1) / np.maximum(np.linalg.norm(w, axis=1), 1.0)


@dataclass
class TheoremReport:
    """Three-way equivalence report: phi-null, base Osserman, base null Osserman."""

    phi_null: PhiNullReport
    base: DecisionReport
    base_null: DecisionReport
    hypothesis_holds: bool
    hypothesis_residual: float
    sigma_identity_residual: float
    internal_consistency_ok: bool
    agreement_required: bool
    agreement_scope: str | None
    agreement_holds: bool | None
    s: int
    samples: int
    seed: int
    tol: float
    grouping_tol: float
    sigma: dict

    @property
    def verdicts(self) -> dict:
        return {
            "phi_null_osserman": self.phi_null.direct.passed,
            "base_osserman": self.base.passed,
            "base_null_osserman": self.base_null.passed,
        }

    def to_dict(self) -> dict:
        return {
            "verdicts": self.verdicts,
            "hypothesis_flag": self.hypothesis_holds,
            "per_sample_spectra": {
                "phi_null_direct": [r.to_dict() for r in self.phi_null.direct.records],
                "phi_null_quotient": [r.to_dict() for r in self.phi_null.quotient.records],
                "base_osserman": [r.to_dict() for r in self.base.records],
                "base_null_osserman": [r.to_dict() for r in self.base_null.records],
            },
            "residual_maxima": {
                "hypothesis": self.hypothesis_residual,
                "shift_identity": self.sigma_identity_residual,
            },
            "seeds": {"sampling": self.seed},
            "tolerances": {
                "constancy": self.tol,
                "grouping": self.grouping_tol,
                "identity": IDENTITY_ATOL,
            },
            "agreement": {
                "required": self.agreement_required,
                "scope": self.agreement_scope,
                "holds": self.agreement_holds,
            },
            "sigma": self.sigma,
            "samples": self.samples,
            "s": self.s,
            "internal_consistency": "ok" if self.internal_consistency_ok else "failed",
        }


def theorem_equivalence_report(
    R: CurvatureTensor,
    S: GffStructure,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
    pi_fibration: FibrationModel | None = None,
    tau_fibration: FibrationModel | None = None,
) -> TheoremReport:
    """Evaluate the three transfer verdicts and their agreement contract.

    When the eigenvector hypothesis holds (phi x is an eigenvector of R_x at
    every sample) the three verdicts must agree. At s = 2 the phi-null and
    base-Osserman verdicts are expected to agree even without the hypothesis;
    that expectation is recorded in the agreement scope, but it presumes
    structure-compatible curvature -- an arbitrary algebraic tensor can break
    it (with n = 1 the transfer domain is one-dimensional and its spectrum is
    trivially constant), so a violation there is reported, not escalated.
    Outside those regimes the verdicts are reported without an agreement
    claim.

    The rank-one shift identity is the internal-consistency sentinel, checked
    for both projections at every sample as matrices on V = x-perp in Im(phi).
    It compares two independent routes: the transfer form
    ``D Q_x D^T + 2 g(V,V) a a^T - g(V,V) a b^T`` on the rows D of V, with the
    actual g(V, V) of the vertical sum, against R_x = R(., x) x raised
    through g^-1 plus ``3 sigma g(., phi x) phi x`` with the fibration's
    sigma. Their largest scaled difference over all samples must stay below
    ``IDENTITY_ATOL``.
    """
    if S.s < 2:
        raise ValueError(f"theorem report requires s >= 2, got s = {S.s}")
    F_pi = pi_fibration if pi_fibration is not None else make_fibration(S, FibrationKind.PI_FULL)
    F_tau = tau_fibration if tau_fibration is not None else make_fibration(S, FibrationKind.TAU)
    if F_pi.structure is not S or F_tau.structure is not S:
        raise ValueError("the theorem report needs fibrations of its own structure")
    g = S.g

    # One sphere and one slot-4 contraction per stack of bases: RX for the sphere, freed once
    # its last form is built, then RU for u = xi_1 + x.
    sphere = sample_phi_celestial(S, samples, seed).points
    RX = slot4_contraction(R, sphere)
    hyp_residual = float(_hypothesis_residuals(RX, S, sphere).max())
    hypothesis_holds = hyp_residual <= tol
    direct = _phi_null_direct(RX, g, sphere, seed, tol, grouping_tol)
    base = _base_osserman(RX, g, F_pi, sphere, seed, tol, grouping_tol)
    frame = _sentinel_frame(RX, S, sphere)
    del RX
    sigma_residual = 0.0
    for F in (F_pi, F_tau):
        defects, scales = _shift_identity_defects(g, F, sphere, frame)
        sigma_residual = max(sigma_residual, float((np.abs(defects).max(axis=(1, 2)) / scales).max()))
    consistency_ok = sigma_residual < IDENTITY_ATOL
    del frame

    us = S.timelike_frame_vector + sphere
    RU = slot4_contraction(R, us)
    phi_null = PhiNullReport(
        quotient=_phi_null_quotient(RU, g, us, sphere, seed, tol, grouping_tol), direct=direct
    )
    base_null = _base_null_osserman(RU, g, F_tau, us, seed, tol, grouping_tol)

    a, b, c = phi_null.direct.passed, base.passed, base_null.passed
    if hypothesis_holds:
        required, scope, holds = True, "all-three", (a == b == c)
    elif S.s == 2:
        required, scope, holds = True, "phi-null-vs-base", (a == b)
    else:
        required, scope, holds = False, None, None

    return TheoremReport(
        phi_null=phi_null,
        base=base,
        base_null=base_null,
        hypothesis_holds=hypothesis_holds,
        hypothesis_residual=hyp_residual,
        sigma_identity_residual=sigma_residual,
        internal_consistency_ok=consistency_ok,
        agreement_required=required,
        agreement_scope=scope,
        agreement_holds=holds,
        s=S.s,
        samples=samples,
        seed=seed,
        tol=tol,
        grouping_tol=grouping_tol,
        sigma={"pi_full": F_pi.sigma, "tau": F_tau.sigma},
    )


@dataclass
class RemarkSample:
    base: list
    phi_sectional: float
    base_sectional: float
    a_norm_sq: float
    identity_residual: float
    necessary_ok: bool

    def to_dict(self) -> dict:
        return {**vars(self), "base": list(self.base)}


@dataclass
class RemarkReport:
    """Sectional-curvature transfer identity and the necessary-condition flags."""

    kind: RemarkKind
    fibration_kind: FibrationKind
    target: float
    samples: list[RemarkSample]
    identity_residual_max: float
    identity_passed: bool
    necessary_all: bool
    seed: int
    tol: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "fibration": self.fibration_kind.value,
            "target": self.target,
            "identity_residual_max": self.identity_residual_max,
            "identity_passed": self.identity_passed,
            "necessary_condition_all": self.necessary_all,
            "tolerances": {"identity": IDENTITY_ATOL, "necessary": self.tol},
            "seeds": {"sampling": self.seed},
            "per_sample": [s.to_dict() for s in self.samples],
        }


def remark_sectional_conditions(
    R: CurvatureTensor,
    S: GffStructure,
    kind: RemarkKind,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
) -> RemarkReport:
    """Check k(x, phi x) = k_base(x, phi x) - 3 g(A_x phi x, A_x phi x) on sampled x.

    Also flags, per sample, the necessary condition for the base to be the
    relevant contact space form: phi-sectional curvature 1 - 3(s-3) for a
    Riemannian contact base, -1 - 3(s-1) for a Lorentzian one.
    """
    if S.s < 2:
        raise ValueError("remark conditions require s >= 2")
    if kind is RemarkKind.SASAKI_BASE:
        F = make_fibration(S, FibrationKind.REMARK_SASAKI)
        target = 1.0 - 3.0 * (S.s - 3)
    else:
        F = make_fibration(S, FibrationKind.TAU)
        target = -1.0 - 3.0 * (S.s - 1)

    g = S.g
    G = g.components
    xs = sample_phi_celestial(S, samples, seed).points
    phix = xs @ S.phi.T
    k_total = [sectional_curvature(R, g, x, px) for x, px in zip(xs, phix)]
    _require_horizontal(F, xs, "first argument of A")
    pairs = ((xs, xs), (phix, phix), (xs, phix))
    q_x, q_phix, q_mixed = (np.einsum("nm,mk,nk->n", u, G, w) for u, w in pairs)
    delta = q_x * q_phix - q_mixed**2
    C = jacobi_covectors(slot4_contraction(R, xs), xs, phix[:, None, :])
    k_base = transfer_forms(g, F, xs, phix[:, None, :], C)[:, 0, 0] / delta
    a_sq = inner(g, F.vertical_sum, F.vertical_sum) * _a_coefficients(F, xs, phix[:, None, :])[0][:, 0] ** 2
    out = [
        RemarkSample(
            base=x.tolist(),
            phi_sectional=float(kt),
            base_sectional=float(kb),
            a_norm_sq=float(asq),
            identity_residual=float(abs(kt - (kb - 3.0 * asq))),
            necessary_ok=bool(abs(kt - target) < tol),
        )
        for x, kt, kb, asq in zip(xs, k_total, k_base, a_sq)
    ]
    worst = max(s.identity_residual for s in out)
    return RemarkReport(
        kind=kind,
        fibration_kind=F.kind,
        target=target,
        samples=out,
        identity_residual_max=worst,
        identity_passed=worst < IDENTITY_ATOL,
        necessary_all=all(s.necessary_ok for s in out),
        seed=seed,
        tol=tol,
    )


@dataclass(frozen=True, eq=False)
class BaseStructure:
    """The pointwise shadow of the base space: the horizontal carrier with restricted data."""

    carrier: SubspaceBasis
    metric: np.ndarray
    complex_structure: np.ndarray | None
    contact: GffStructure | None


def base_structure(F: FibrationModel) -> BaseStructure:
    """Restrict the structure tensors to the horizontal carrier.

    For the complex-type kinds the restricted phi must square to -identity;
    for tau the restricted tuple must be a valid s = 1 Lorentzian structure.
    A failed assertion indicates a corrupted input structure.
    """
    S = F.structure
    g = S.g
    carrier = F.horizontal
    metric = carrier.gram
    if F.kind in (FibrationKind.PI_FULL, FibrationKind.PI_PRIME):
        # columns of J are the carrier coordinates of phi(h_i)
        J = carrier.coordinates(g, (S.phi @ carrier.vectors.T).T)
        defect = float(np.abs(J @ J + np.eye(carrier.dim)).max())
        if defect > 1e-10:
            raise GeometryError(
                f"restricted tensor does not square to -identity (defect {defect:.3e}); "
                "input structure is corrupted"
            )
        return BaseStructure(carrier=carrier, metric=metric, complex_structure=J, contact=None)
    if F.kind is FibrationKind.TAU:
        phi_restricted = carrier.coordinates(g, (S.phi @ carrier.vectors.T).T)
        xi_coords = carrier.coordinates(g, S.xi[0])
        eta_row = carrier.vectors @ S.eta[0]
        contact = GffStructure(
            n=S.n,
            s=1,
            g=ScalarProduct.from_matrix(metric),
            phi=phi_restricted,
            xi=xi_coords[None, :],
            eta=eta_row[None, :],
            epsilon=np.array([S.epsilon[0]]),
        )
        report = validate_gff(contact)
        if not report.passed:
            raise GeometryError(
                "restricted tuple fails the s = 1 structure validation:\n" + report.summary()
            )
        return BaseStructure(carrier=carrier, metric=metric, complex_structure=None, contact=contact)
    raise ValueError(f"base structure is not defined for the {F.kind.value} kind")
