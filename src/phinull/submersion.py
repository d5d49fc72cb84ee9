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

with V the sum of the vertical frame vectors, for every kind, and ``A_X xi_a =
-epsilon_a phi X`` for vertical frame directions. The paper writes the
``remark_sasaki`` rule as ``c(X, Y) = +g(Y, phi X)``: the same number, since a
valid phi is skew-adjoint for g, and the tests hold the two to round-off. The
keystone composition law is ``A_x A_x y = -sigma g(y, phi x) phi x``, sigma the
vertical sign sum. The horizontal curvature transfer

    g(Rstar_x(y), z) = R(x, y, x, z) + 2 g(A_x y, A_x z) - g(A_y x, A_x z)

is, on a domain with basis rows D, one matrix B[i, j] = g(Rstar_x(d_j), d_i):

    B = D Q_x D^T + 2 g(V, V) a a^T - g(V, V) a b^T,
    Q_x = R(x, ., x, .),   a_i = c(x, d_i),   b_j = c(d_j, x).

This is the Jacobi form of the base curvature Rstar of O'Neill ("The
fundamental equations of a submersion", Michigan Math. J. 13, 1966), read off
the ambient contraction, so Rstar is never built as a tensor (each Rstar would
need its own slot-4 contraction). ``transfer_forms`` builds it for a whole
stack of samples at once, its first term as ``D C`` from
``jacobi.jacobi_covectors``. The base operator builders (``r_star_stack``,
``base_null_stack``, which take the slot-4 contraction of their bases like the
builders of ``jacobi``) check their bases and pass ``transfer_forms``, bound to
their fibration, to ``jacobi.operator_stack``, the one assembly of every
operator; the shift-identity sentinel and the remark identity are read off the
same form. The per-vector names run these routes on one row: ``oneill_A`` takes
the coefficient of a horizontal Y from ``_a_coefficients`` (only its vertical
branch, ``A_X xi_a = -epsilon_a phi X``, is its own), ``r_star_form`` is one
entry of ``transfer_forms`` on a one-row contraction, and ``r_star`` and
``shift_identity_residual`` build one-row stacks and frames. A test of a
per-vector name is thus a test of the code the CLI runs.

A theorem report samples one phi-celestial sphere and contracts curvature
with two stacks of bases only: the sphere and the null bases xi_1 + x (the
shift ``gff._shift``, which ``psi_inverse`` takes too). Each
public decider is its draw, the slot-4 contraction of its bases, a builder and
the decision the report takes on the same stack (``_base``, ``jacobi._phi_null``,
each ending in ``jacobi._decide``, where each report name is written once), so a
decider run alone and its block of the report are the same computation.

On V = x-perp within Im(phi) the transfer equals g(R_x(y), z) +
3 sigma g(y, phi x) g(phi x, z). The identity is algebraic, so it doubles as
the internal-consistency sentinel, comparing two independent routes: the
transfer form with the actual g(V, V), against R_x raised through g^-1 plus
the rank-one term with the fibration's recorded sigma. A violation means a
bug (or a tampered sigma), never a property of the instance. V (orthonormal:
no Gram is solved), the covectors on V and the right side's pieces are built
once per report; only a, b, g(V, V) and sigma are the fibration's.

For the pi kinds the horizontal space is Im(phi) and its frame is
``GffStructure.image_frame`` itself, so the pi Rstar stack of a report is
built on the sentinel's pieces: its domains are V, its covectors are C and its
forms are the pi transfer forms that the sentinel's left side reads, bit for
bit what ``r_star_stack`` would compute, handed to ``operator_stack``'s last
step (``jacobi._assembled``). The pi horizontal check runs once, as the
sentinel's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .curvature import CurvatureTensor, operator_apply, sectional_curvatures
from .gff import GffStructure, _shift, _validated_bound, sample_phi_celestial
from .jacobi import (
    DecisionReport,
    JacobiOperator,
    OperatorStack,
    PhiNullReport,
    _assembled,
    _decide,
    _error_free,
    _null_domains,
    _phi_null,
    _rowwise,
    jacobi_covectors,
    jacobi_stack,
    null_jacobi_stack,
    operator_stack,
    reflected_domains,
    slot4_contraction,
)
from .linalg import (
    MEMBERSHIP_RTOL,
    UNIT_ATOL,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    inner,
)
from .reports import DEFAULT_CONSTANCY_TOL, DEFAULT_GROUPING_TOL, DEFAULT_SAMPLES, RemarkKind, Table

IDENTITY_ATOL = 1e-9


class FibrationKind(Enum):
    PI_FULL = "pi_full"
    TAU = "tau"
    PI_PRIME = "pi_prime"
    REMARK_SASAKI = "remark_sasaki"


_PI_KINDS = (FibrationKind.PI_FULL, FibrationKind.PI_PRIME)  # the complex-type bases


@dataclass(frozen=True, eq=False)
class FibrationModel:
    """A horizontal/vertical splitting with its vertical sign sum ``sigma``."""

    kind: FibrationKind
    structure: GffStructure
    horizontal: SubspaceBasis
    vertical: SubspaceBasis
    vertical_indices: tuple[int, ...]
    sigma: float
    frame: tuple  # the g-orthonormal horizontal rows (Im(phi)'s frame and unit xi) and their signs

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

    # each kind's horizontal basis, its vertical frame vectors and their sign sum sigma
    if kind in _PI_KINDS:  # Im(phi)'s frame itself, so that its stacks share the sentinel's V
        horizontal = S.image_frame
        vertical_indices, sigma = tuple(range(S.s)), float(S.s - 2) if kind is FibrationKind.PI_FULL else -1.0
    elif kind is FibrationKind.TAU:
        horizontal = SubspaceBasis.from_vectors(S.g, np.vstack([S.image_frame.vectors, S.xi[0]]))
        vertical_indices, sigma = tuple(range(1, S.s)), float(S.s - 1)
    else:  # REMARK_SASAKI
        horizontal = SubspaceBasis.from_vectors(S.g, np.vstack([S.image_frame.vectors, S.xi[S.s - 1]]))
        vertical_indices, sigma = tuple(range(S.s - 1)), float(S.s - 3)

    vertical = SubspaceBasis.from_vectors(S.g, S.xi[list(vertical_indices)])

    # each horizontal row's pairings with the vertical frame, judged as the samplers judge theirs
    cross = np.abs(horizontal.vectors @ S.g.components @ vertical.vectors.T).max(axis=1)
    if np.any(cross > _validated_bound(S, horizontal.vectors)):
        raise GeometryError(
            f"horizontal/vertical splitting is not g-orthogonal: residual {cross.max():.3e}"
        )
    if horizontal.dim + vertical.dim != S.dim:
        raise GeometryError("splitting does not fill the ambient space")
    sign_sum = float(np.sum(np.sign(S.epsilon[list(vertical_indices)])))  # a count: sigma is exact
    if sign_sum != sigma:
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
        frame=(horizontal.vectors, np.sign(horizontal.gram.diagonal())),
    )


def vertical_part(F: FibrationModel, X) -> np.ndarray:
    """The vertical component sum_a epsilon_a g(X, xi_a) xi_a of X, or of every row of a stack."""
    S, xi = F.structure, F.vertical.vectors
    return ((np.asarray(X, dtype=float) @ S.g.components @ xi.T) * S.epsilon[list(F.vertical_indices)]) @ xi


def _horizontal_errors(F: FibrationModel, xs: np.ndarray, what: str) -> list:
    """Per row of ``xs``: a GeometryError if it leaks into the vertical space, else None."""
    leaks = np.linalg.norm(vertical_part(F, xs), axis=-1)
    errors: list = [None] * len(xs)
    for n in np.flatnonzero(leaks > MEMBERSHIP_RTOL * np.maximum(np.linalg.norm(xs, axis=-1), 1.0)):
        errors[n] = GeometryError(f"{what} must be horizontal: vertical component {leaks[n]:.3e}")
    return errors


def _require_horizontal(F: FibrationModel, X, what: str) -> np.ndarray:
    """X (a vector, or rows of vectors) once all of it is checked horizontal."""
    Xv = np.asarray(X, dtype=float)
    for error in filter(None, _horizontal_errors(F, np.atleast_2d(Xv), what)):  # the first one
        raise error
    return Xv


def oneill_A(F: FibrationModel, X, Y) -> np.ndarray:
    """The integrability tensor A_X Y in closed form, one pair of vectors at a time.

    ``X`` must be horizontal; ``Y`` may be horizontal (result is vertical: ``c(X, Y) V``, the
    coefficient a one-row ``_a_coefficients``, the rule the transfer forms use) or vertical (result
    is horizontal, ``-epsilon_a phi X`` extended linearly).
    """
    S = F.structure
    Xv = _require_horizontal(F, X, "first argument of A").reshape(-1)
    Yv = np.asarray(Y, dtype=float).reshape(-1)
    vpart = vertical_part(F, Yv)
    hpart = Yv - vpart
    scale = max(float(np.linalg.norm(Yv)), 1.0)
    if np.linalg.norm(vpart) <= MEMBERSHIP_RTOL * scale:
        return _a_coefficients(F, Xv[None], Yv[None, None])[0][0, 0] * F.vertical_sum
    if np.linalg.norm(hpart) <= MEMBERSHIP_RTOL * scale:
        coords = F.vertical.coordinates(S.g, Yv)
        signed = float(np.sum(coords * S.epsilon[list(F.vertical_indices)]))
        return -signed * (S.phi @ Xv)
    raise GeometryError("second argument of A must be horizontal or vertical")


def r_star_form(R: CurvatureTensor, g: ScalarProduct, F: FibrationModel, x, y, z) -> float:
    """The transferred curvature pairing g(Rstar_x(y), z) for horizontal x, y, z: entry (0, 1) of
    the one-row ``transfer_forms`` on the domain rows (z, y)."""
    xs = _require_horizontal(F, np.reshape(x, (1, -1)), "first argument of A")
    rows = _require_horizontal(F, np.array([z, y], dtype=float), "second argument of A")[None]
    C = jacobi_covectors(slot4_contraction(R, xs), xs, rows)
    return float(transfer_forms(g, F, xs, rows, C)[0, 0, 1])


def _a_coefficients(F: FibrationModel, xs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with A_x d = a V and A_d x = b V for x = xs[n], d = rows[n, i], V the vertical sum:
    ``a = -g(x, phi d)``, ``b = -g(d, phi x)``."""
    P = F.structure.g.components @ F.structure.phi  # P[i, j] = g(e_i, phi e_j)
    return tuple(-np.einsum("nim,nm->ni", rows, _rowwise(xs, M)) for M in (P, P.T))


def transfer_forms(g: ScalarProduct, F: FibrationModel, xs, domains, C) -> np.ndarray:
    """B[n, i, j] = g(Rstar_x(d_j), d_i) for x = xs[n] and the horizontal rows d of domains[n].

    ``D Q_x D^T + 2 g(V,V) a a^T - g(V,V) a b^T`` with the actual g(V, V), its first term as
    ``D C`` from ``C = jacobi_covectors(RX, xs, domains)``.
    """
    v = F.vertical_sum
    a, b = _a_coefficients(F, xs, domains)
    return domains @ C + (v @ g.components @ v) * a[:, :, None] * (2.0 * a - b)[:, None, :]


def _unit_errors(g: ScalarProduct, xs: np.ndarray, errors: list) -> list:
    """``errors`` with a CausalCharacterError for each base not unit spacelike that has none yet."""
    q = np.einsum("nm,mk,nk->n", xs, g.components, xs)
    for n in np.flatnonzero(np.abs(q - 1.0) > UNIT_ATOL):
        errors[n] = errors[n] or CausalCharacterError(f"Rstar base must be unit spacelike: g(x,x) = {q[n]:.6e}")
    return errors


def r_star_stack(RX: np.ndarray, g: ScalarProduct, F: FibrationModel, xs: np.ndarray) -> OperatorStack:
    """Base-space Jacobi operators of unit spacelike horizontal bases, each on x-perp in H, from
    RX = ``slot4_contraction(R, xs)``."""
    errors = _unit_errors(g, xs, _horizontal_errors(F, xs, "base of Rstar"))
    domains, signs = reflected_domains(g, F.frame, xs[_error_free(errors)])
    return operator_stack(RX, xs, errors, domains, signs, partial(transfer_forms, g, F))


def r_star(R: CurvatureTensor, g: ScalarProduct, F: FibrationModel, x) -> JacobiOperator:
    """Base-space Jacobi operator of a unit spacelike horizontal x, on x-perp in H."""
    xs = np.asarray(x, dtype=float).reshape(1, -1)
    return r_star_stack(slot4_contraction(R, xs), g, F, xs).operator(g)


def _sentinel_frame(RX: np.ndarray, S: GffStructure, xs: np.ndarray) -> tuple:
    """What the sentinel shares between fibrations on the bases xs, from their slot-4 contraction
    RX: V = x-perp in Im(phi), g-orthonormal, with its signs (all +1), ``C = jacobi_covectors`` on
    V, and the right side's R_x raised through g^-1 and rank-one term ``g(., phi x) phi x``, both in
    V-coordinates g(v_k, .). On a pi kind's frame, Im(phi)'s, V and C are its Rstar stack's too."""
    V, signs = reflected_domains(S.g, (S.image_frame.vectors, np.ones(S.image_frame.dim)), xs)
    C = jacobi_covectors(RX, xs, V)
    VG = V @ S.g.components
    raised = VG @ np.linalg.solve(S.g.components, C)
    weights = np.einsum("nkm,nm->nk", VG, xs @ S.phi.T)  # g(v_k, phi x)
    return V, signs, C, raised, weights[:, :, None] * weights[:, None, :]


def _shift_identity_defects(g: ScalarProduct, F: FibrationModel, xs: np.ndarray, frame: tuple) -> tuple:
    """The defects proj_V Rstar|_V - proj_V R_x|_V - 3 sigma g(., phi x) phi x in V-coordinates,
    and the scales of the right sides, on horizontal bases xs. Only a, b, g(V, V) and sigma are the
    fibration's."""
    return _defects(F, transfer_forms(g, F, xs, frame[0], frame[2]), frame)


def _defects(F: FibrationModel, lhs: np.ndarray, frame: tuple) -> tuple:
    """``_shift_identity_defects`` from F's transfer forms ``lhs`` on the sentinel's V."""
    raised, rank_one = frame[3:]
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
    xv, V = xs[0], frame[0][0]
    VG = V @ g.components  # V is g-orthonormal: coordinates are g(v_k, .)
    y_coords = VG @ yv
    if np.linalg.norm(yv - y_coords @ V) > MEMBERSHIP_RTOL * max(np.linalg.norm(yv), 1.0):
        raise ValueError("y must lie in x-perp within Im(phi)")
    jac = operator_apply(R, g, xv, yv, xv)
    v_leak = float(np.linalg.norm(jac - (VG @ jac) @ V))
    return ShiftCheck(residual=float(np.linalg.norm(defects[0] @ y_coords)), v_leak=v_leak, sigma=F.sigma)


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
    if F.kind not in _PI_KINDS:
        raise ValueError(f"base Osserman check applies to pi_full/pi_prime, got {F.kind.value}")
    if F.structure is not S:
        raise ValueError("base Osserman check needs a fibration of its own structure")
    sphere = sample_phi_celestial(S, samples, seed)
    return _base(F, r_star_stack(slot4_contraction(R, sphere), S.g, F, sphere), seed, tol, grouping_tol)


def _base(F: FibrationModel, stack: OperatorStack, seed: int, tol: float, grouping_tol: float) -> DecisionReport:
    """The base decision on F's stack: Osserman of a pi base, null Osserman of the tau base."""
    name = "base-null-osserman[tau]" if F.kind is FibrationKind.TAU else f"base-osserman[{F.kind.value}]"
    return _decide(name, stack, seed, tol, grouping_tol, notes={"sigma": F.sigma})


def base_null_stack(RU: np.ndarray, g: ScalarProduct, F: FibrationModel, us: np.ndarray) -> OperatorStack:
    """Null Jacobi operators of the null bases u = xi_1 + x on the quotient of u-perp in H, via the
    transfer form, from RU = ``slot4_contraction(R, us)``."""
    errors = _horizontal_errors(F, us, "first argument of A")
    message = "base null quotient: restricted Gram kernel is not one-dimensional"
    reps, signs = _null_domains(g, F.frame, us, errors, message)
    return operator_stack(RU, us, errors, reps, signs, partial(transfer_forms, g, F))


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
    if F.kind is not FibrationKind.TAU:
        raise ValueError(f"base null Osserman check applies to the tau kind, got {F.kind.value}")
    if F.structure is not S:
        raise ValueError("base null Osserman check needs a fibration of its own structure")
    us = _shift(F.structure.timelike_frame_vector, sample_phi_celestial(S, samples, seed))
    return _base(F, base_null_stack(slot4_contraction(R, us), S.g, F, us), seed, tol, grouping_tol)


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
    """Three-way equivalence report: phi-null, base Osserman, base null Osserman. It keeps what the
    report measured; the flags and the agreement contract are read off those."""

    phi_null: PhiNullReport
    base: DecisionReport
    base_null: DecisionReport
    hypothesis_residual: float
    sigma_identity_residual: float
    s: int

    @property
    def hypothesis_holds(self) -> bool:
        """phi x is an eigenvector of R_x at every sample, within the constancy tolerance."""
        return self.hypothesis_residual <= self.base.tol

    @property
    def internal_consistency_ok(self) -> bool:
        return self.sigma_identity_residual < IDENTITY_ATOL

    @property
    def agreement_scope(self) -> str | None:
        """The verdicts that must agree: all three under the eigenvector hypothesis, else at s = 2
        the phi-null and base ones, else none."""
        if self.hypothesis_holds:
            return "all-three"
        return "phi-null-vs-base" if self.s == 2 else None

    @property
    def agreement_required(self) -> bool:
        return self.agreement_scope is not None

    @property
    def agreement_holds(self) -> bool | None:
        """Whether the verdicts in scope agree; None when none are required to."""
        a, b, c = self.phi_null.direct.passed, self.base.passed, self.base_null.passed
        return {"all-three": a == b == c, "phi-null-vs-base": a == b}.get(self.agreement_scope)

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
                "phi_null_direct": self.phi_null.direct.spectra,
                "phi_null_quotient": self.phi_null.quotient.spectra,
                "base_osserman": self.base.spectra,
                "base_null_osserman": self.base_null.spectra,
            },
            "residual_maxima": {
                "hypothesis": self.hypothesis_residual,
                "shift_identity": self.sigma_identity_residual,
            },
            "seeds": {"sampling": self.base.seed},
            "tolerances": {
                "constancy": self.base.tol,
                "grouping": self.base.grouping_tol,
                "identity": IDENTITY_ATOL,
            },
            "agreement": {
                "required": self.agreement_required,
                "scope": self.agreement_scope,
                "holds": self.agreement_holds,
            },
            "sigma": {"pi_full": self.base.notes["sigma"], "tau": self.base_null.notes["sigma"]},
            "samples": len(self.base.spectra),
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
    sigma. Their largest scaled difference over all samples and both projections
    must stay below ``IDENTITY_ATOL``; a NaN one fails. A sample off either projection's
    horizontal space stops the report with the sentinel's GeometryError.

    Each per-sample piece is computed once: the sphere and its slot-4 contraction feed the
    direct stack, the hypothesis residual and one x-perp frame, whose V, C and pi transfer forms
    are both the pi base stack (on the unit bases; a base that is not unit gets its error) and
    the pi side of the sentinel; the null bases xi_1 + x get the other contraction.
    """
    if S.s < 2:
        raise ValueError(f"theorem report requires s >= 2, got s = {S.s}")
    F_pi = pi_fibration if pi_fibration is not None else make_fibration(S, FibrationKind.PI_FULL)
    if F_pi.structure is not S or F_pi.kind not in _PI_KINDS:
        raise ValueError("the theorem report needs fibrations of its own structure, pi_fibration of a pi kind")
    F_tau = make_fibration(S, FibrationKind.TAU)
    g = S.g

    # One sphere and one slot-4 contraction per stack of bases: RX for the sphere, freed once
    # its last form is built, then RU for u = xi_1 + x.
    sphere = sample_phi_celestial(S, samples, seed)
    RX = slot4_contraction(R, sphere)
    hyp_residual = float(_hypothesis_residuals(RX, S, sphere).max())
    direct = jacobi_stack(RX, g, sphere)
    # One x-perp frame for the pi stack and the sentinel. Both horizontal checks run first, once
    # each; V, C and the pi transfer forms are then the Rstar stack's domains, covectors and forms,
    # which ``operator_stack``'s last step assembles on the unit bases.
    for F in (F_pi, F_tau):
        _require_horizontal(F, sphere, "first argument of A")
    frame = _sentinel_frame(RX, S, sphere)
    del RX
    V, signs, C = frame[:3]
    lhs = transfer_forms(g, F_pi, sphere, V, C)
    errors = _unit_errors(g, sphere, [None] * len(sphere))
    ok = _error_free(errors)
    base = _base(F_pi, _assembled(sphere, errors, V[ok], lhs[ok], signs[ok]), seed, tol, grouping_tol)
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite sigma gives NaN, not a warning
        pairs = (_defects(F_pi, lhs, frame), _shift_identity_defects(g, F_tau, sphere, frame))
        scaled = [np.abs(defects).max(axis=(1, 2)) / scales for defects, scales in pairs]
    sigma_residual = float(np.max(scaled))  # keeps a NaN, which fails the sentinel; Python's max drops it
    del frame, lhs

    us = _shift(S.timelike_frame_vector, sphere)
    RU = slot4_contraction(R, us)
    phi_null = _phi_null(null_jacobi_stack(RU, g, us), direct, sphere, seed, tol, grouping_tol)
    base_null = _base(F_tau, base_null_stack(RU, g, F_tau, us), seed, tol, grouping_tol)
    return TheoremReport(phi_null, base, base_null, hyp_residual, sigma_residual, S.s)


@dataclass
class RemarkReport:
    """Sectional-curvature transfer identity and the necessary-condition flags, one array entry
    per sampled base."""

    kind: RemarkKind
    fibration_kind: FibrationKind
    target: float
    bases: np.ndarray
    phi_sectional: np.ndarray
    base_sectional: np.ndarray
    a_norm_sq: np.ndarray
    identity_residual: np.ndarray
    necessary_ok: np.ndarray
    seed: int
    tol: float

    @property
    def identity_residual_max(self) -> float:
        return float(self.identity_residual.max())  # a NaN residual makes a NaN maximum

    @property
    def identity_passed(self) -> bool:
        return self.identity_residual_max < IDENTITY_ATOL

    @property
    def necessary_all(self) -> bool:
        return bool(self.necessary_ok.all())

    def to_dict(self) -> dict:
        columns = {"base": self.bases, "phi_sectional": self.phi_sectional,
                   "base_sectional": self.base_sectional, "a_norm_sq": self.a_norm_sq,
                   "identity_residual": self.identity_residual, "necessary_ok": self.necessary_ok}
        samples = len(self.bases)
        return {
            "kind": self.kind.value,
            "fibration": self.fibration_kind.value,
            "target": self.target,
            "identity_residual_max": self.identity_residual_max,
            "identity_passed": self.identity_passed,
            "necessary_condition_all": self.necessary_all,
            "tolerances": {"identity": IDENTITY_ATOL, "necessary": self.tol},
            "seeds": {"sampling": self.seed},
            "per_sample": Table(samples, ((np.arange(samples), columns),)),
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
    xs = sample_phi_celestial(S, samples, seed)
    phix = xs @ S.phi.T
    k_total = sectional_curvatures(R, g, xs, phix)
    _require_horizontal(F, xs, "first argument of A")
    pairs = ((xs, xs), (phix, phix), (xs, phix))
    q_x, q_phix, q_mixed = (np.einsum("nm,mk,nk->n", u, G, w) for u, w in pairs)
    delta = q_x * q_phix - q_mixed**2
    C = jacobi_covectors(slot4_contraction(R, xs), xs, phix[:, None, :])
    k_base = transfer_forms(g, F, xs, phix[:, None, :], C)[:, 0, 0] / delta
    a_sq = inner(g, F.vertical_sum, F.vertical_sum) * _a_coefficients(F, xs, phix[:, None, :])[0][:, 0] ** 2
    return RemarkReport(
        kind=kind,
        fibration_kind=F.kind,
        target=target,
        bases=xs,
        phi_sectional=k_total,
        base_sectional=k_base,
        a_norm_sq=a_sq,
        identity_residual=np.abs(k_total - (k_base - 3.0 * a_sq)),
        necessary_ok=np.abs(k_total - target) < tol,
        seed=seed,
        tol=tol,
    )
