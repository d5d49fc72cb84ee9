"""Jacobi operators and Osserman-type condition deciders.

Three operator constructions live here:

- the classical Jacobi operator of a non-null vector z, acting on z-perp as
  ``y -> R(y, z) z``;
- the null quotient: for a null u, the degenerate direction of u-perp is
  span(u) itself, and the quotient u-perp/span(u) carries a positive definite
  inner product in Lorentzian signature;
- the null Jacobi operator on that quotient, ``x -> proj(R(x, u) u)``.

Every operator, these and the transfer operators of ``submersion``, takes
one path over all samples at once: bases -> domain rows D, g-orthonormal by one
reflection per sample (``reflected_domains``; null bases through ``_null_domains``, the one
null-quotient builder of this module and ``submersion``) -> a curvature form -> its
symmetrization F -> ``OperatorStack._table``, whose spectra
are ``eigvalsh(F)`` on a positive definite domain and ``eigvals(eta F)`` on one of
signs eta, no Gram solved or factored -> ``decide_constancy``, which passes iff
the grouped eigenvalues of all samples agree within a tolerance. Every domain is
g-orthonormal and carries its signs: the one other way in, the given representatives of
``null_jacobi(quotient=)``, is made g-orthonormal where it enters, by their coordinates in
u's own quotient frame, and a domain's Gram is measured only for a one-base operator
(``OperatorStack.operator``). Spectra and decision
are one step, ``_decide``, taken by every decider here and in ``submersion``: a decider
is its draw, a contraction per stack of bases, a builder and that step. The Jacobi forms are
``D C`` with ``C[n, a, k] = R(e_a, x, d_k, x)``, contracted x in slot 4, then
d in slot 3 and x in slot 2: forming ``K_x = R(., x, ., x)`` first loses more
to cancellation on large-norm timelike x. The slot-4 contraction
(``slot4_contraction``) is made once per stack of bases and every form on
those bases is built from it (``jacobi_covectors``). ``operator_stack`` is the one
assembly from a contraction to operators (C, the form ``D C`` or one built from C,
then F); each operator-stack builder is its per-base checks and one call to it, and
takes the contraction first, so a decider that shares its bases with another, as
the theorem report's do, contracts them once. Its last step, ``_assembled`` (symmetrize,
then sign), is also how the theorem report's pi base stack, built on the sentinel's
domains, covectors and forms, becomes operators.
Each contraction is a stack of BLAS products, one per sample. Under OpenBLAS
(0.3.31, 2 cores) these per-sample products ran on one thread at every
dimension measured, 11 to 24; one product over the whole stack goes threaded
there and can stall for milliseconds on a busy core.

Spectra are taken for the whole stack at once. The sorted eigenvalues are one
array; one ``np.diff`` along it splits every row into groups, and the rows that
share a split pattern get their group means together, ``np.add.reduce`` along
each row being ``np.mean``'s sum bit for bit. ``SpectralData.from_values`` is
the same grouping for a single row. A stack's spectra stay arrays up to the
report bytes: one ``reports.Table`` (``_spectra_table``) holds the bases, each
pattern's group means and each error string, ``decide_constancy`` reduces over
it, the reports carry it as it is and ``io.dump_json`` writes it in one pass.
``OperatorStack.records`` and ``DecisionReport.records`` are views of it, one
``SampleRecord`` per base, built on access.

Operator-argument ordering: the Jacobi operator of z applied to y is fixed as
R(y, z) z, the curvature operator with pair (y, z) acting on z. With the
package's sign convention this gives eigenvalue c on z-perp for a unit
spacelike z on a constant-curvature-c tensor, which is the anchor test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import CurvatureTensor
from .gff import GffStructure, _celestial, _shift, sample_phi_celestial
from .linalg import (
    MEMBERSHIP_RTOL,
    RANK_RTOL,
    UNIT_ATOL,
    CausalCharacter,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    causal_characters,
    inner,
    orthonormal_frame,
)
from .reports import DEFAULT_CONSTANCY_TOL, DEFAULT_GROUPING_TOL, DEFAULT_SAMPLES, Table

REALNESS_RTOL = 1e-8
BOOST_WINDOW = 1.5  # T: sample_unit_causal draws rapidities uniform on [-T, T]


class SpectrumError(GeometryError):
    """Eigenvalues are not real beyond tolerance (possible for indefinite domains)."""


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigenvalues grouped into multiplicities at a tolerance."""

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @classmethod
    def from_values(cls, values, grouping_tol: float = DEFAULT_GROUPING_TOL) -> "SpectralData":
        _, multiplicities, means = _grouped(np.asarray(values, dtype=float).reshape(1, -1), grouping_tol)[0]
        return cls(tuple(means[0].tolist()), multiplicities)

    @property
    def dimension(self) -> int:
        return int(sum(self.multiplicities))

    def to_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "multiplicities": list(self.multiplicities),
        }


@dataclass(frozen=True, eq=False)
class JacobiOperator:
    """An operator on a g-orthonormal domain in base-perp, of the given ``signs``, self-adjoint
    w.r.t. the domain Gram, which is measured under g so that the residual is a real check."""

    base: np.ndarray
    domain: SubspaceBasis
    matrix: np.ndarray
    signs: np.ndarray

    @property
    def self_adjointness_residual(self) -> float:
        G, M = self.domain.gram, self.matrix
        return float(np.abs(G @ M - M.T @ G).max())


@dataclass(frozen=True, eq=False)
class NullQuotient:
    """Representatives of u-perp/span(u) with the induced inner product gbar.

    ``rep_basis.gram`` is gbar. In Lorentzian signature gbar is positive
    definite; for other signatures ``gbar_signature`` records the inertia so
    callers can report indefiniteness instead of crashing.
    """

    u: np.ndarray
    rep_basis: SubspaceBasis
    gbar_signature: tuple[int, int]

    @property
    def gbar(self) -> np.ndarray:
        return self.rep_basis.gram

    @property
    def gbar_positive_definite(self) -> bool:
        return self.gbar_signature == (self.rep_basis.dim, 0)


def slot4_contraction(R: CurvatureTensor, xs) -> np.ndarray:
    """RX[n, a, b, c] = R(e_a, e_b, e_c, x) for x = xs[n]: the first contraction of every form
    built on the bases xs, made once per stack of bases, one matrix-vector product per sample."""
    xs = np.asarray(xs, dtype=float)
    m = R.dim
    return (R.components.reshape(m**3, m) @ xs[:, :, None]).reshape(len(xs), m, m, m)


def jacobi_covectors(RX: np.ndarray, xs, D) -> np.ndarray:
    """C[n, a, k] = R(e_a, x, d_k, x) for x = xs[n], RX = ``slot4_contraction(R, xs)`` and the
    rows d_k of D[n].

    x went into slot 4; d goes into slot 3 and x into slot 2 (see the module docstring), each a
    stack of per-sample products: one product over the whole stack runs threaded, and stalls."""
    n, m, _, _ = RX.shape
    k = D.shape[1]
    T = RX.reshape(n, m * m, m) @ D.transpose(0, 2, 1)  # R(e_a, e_b, d_k, x)
    return (xs[:, None, None, :] @ T.reshape(n, m, m, k)).reshape(n, m, k)


def _error_free(errors: list):
    """The index of the bases with no error: every row (a slice, no copy) or a list of rows."""
    ok = [n for n, error in enumerate(errors) if error is None]
    return slice(None) if len(ok) == len(errors) else ok


def _rowwise(xs: np.ndarray, M: np.ndarray) -> np.ndarray:
    """xs @ M as one product per row, so a row's result does not depend on the rows stacked with it
    (one product over the stack takes another BLAS kernel, and other round-off, as its rows grow)."""
    return (xs[:, None, :] @ M)[:, 0]


def reflected_domains(g: ScalarProduct, frame: tuple, xs, null: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal domains of the bases xs, and their signs, from a g-orthonormal frame (E, eta).

    With a = (x g E^T) eta scaled to <a, a>_eta = eps = +-1 and k the axis of sign eps of largest
    |a_k|, the eta-reflection ``I - 2 w (eta w)^T / <w, w>_eta`` of ``w = a + sign(a_k) e_k``
    (``<w, w>_eta = 2 eps |w_k|`` never cancels) maps e_k to -sign(a_k) a; its other columns, through
    E, span x-perp with signs eta_j (Golub & Van Loan, 5.1). A null u (``null``) has its unit timelike
    and unit spacelike parts reflected, leaving p - 1 and q - 1 representatives of u-perp/span(u).
    Every product and sum runs one base at a time, so a base's domain is the same in any stack."""
    E, eta = frame
    a = _rowwise(_rowwise(xs, g.components), E.T) * eta
    rows, keep, D = np.arange(len(a)), np.ones(a.shape, dtype=bool), E
    for part in (a * (eta < 0), a * (eta > 0)) if null else (a,):
        q = (part * part * eta).sum(axis=1)
        w = part / np.sqrt(np.abs(q))[:, None]
        k = np.argmax(np.where(eta == np.sign(q)[:, None], np.abs(w), -1.0), axis=1)
        w[rows, k] += np.where(w[rows, k] < 0, -1.0, 1.0)
        half = np.sign(q) * np.abs(w[rows, k])  # <w, w>_eta / 2
        D = D - (eta * w / half[:, None])[:, :, None] * (w[:, None, :] @ E)
        keep[rows, k] = False
    shape = (len(a), a.shape[1] - 1 - null)
    return D[keep].reshape(shape + (E.shape[1],)), np.broadcast_to(eta, a.shape)[keep].reshape(shape)


def operator_stack(RX, bases, errors: list, domains, signs, form=None) -> OperatorStack:
    """The operators of the error-free bases on their g-orthonormal domains of the given signs,
    from RX = ``slot4_contraction`` of all the bases: with ``C = jacobi_covectors`` their forms
    are the Jacobi forms ``D C``, or ``form(bases, D, C)``; symmetrized to F, the operators are
    ``signs F``. Every operator stack is assembled here."""
    ok = _error_free(errors)
    C = jacobi_covectors(RX[ok], bases[ok], domains)
    forms = domains @ C if form is None else form(bases[ok], domains, C)
    return _assembled(bases, errors, domains, forms, signs)


def _assembled(bases, errors: list, domains, forms, signs) -> OperatorStack:
    """The last step of ``operator_stack``: the forms of the error-free bases, symmetrized to F,
    become the operators ``signs F``."""
    forms = 0.5 * (forms + forms.transpose(0, 2, 1))
    return OperatorStack(bases, errors, domains, signs[:, :, None] * forms, signs)


def _causal_errors(g: ScalarProduct, bases, kinds, message: str) -> list:
    """Per base: None if its causal character is in ``kinds``, else a CausalCharacterError of ``message``."""
    found = causal_characters(g, bases)
    return [None if kind in kinds else CausalCharacterError(message.format(kind.value)) for kind in found]


_NON_NULL = (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE)  # the bases of a classical Jacobi operator
_NULL_BASE = "classical Jacobi operator needs a non-null base, got {}"


def jacobi_stack(RX: np.ndarray, g: ScalarProduct, zs: np.ndarray) -> OperatorStack:
    """Classical Jacobi operators y -> R(y, z) z of the bases z, each on z-perp, from
    RX = ``slot4_contraction(R, zs)``; a null or zero base gets an error instead of an operator."""
    errors = _causal_errors(g, zs, _NON_NULL, _NULL_BASE)
    domains, signs = reflected_domains(g, orthonormal_frame(g), zs[_error_free(errors)])
    return operator_stack(RX, zs, errors, domains, signs)


def jacobi(R: CurvatureTensor, g: ScalarProduct, z) -> JacobiOperator:
    """Classical Jacobi operator y -> R(y, z) z on z-perp, the operator of z's one-base stack.

    ``z`` must be spacelike or timelike; for a null base use :func:`null_jacobi`. The domain of a
    multiple of z is z's own, row for row, since the reflection scales its base to unit length.
    """
    zs = np.asarray(z, dtype=float).reshape(1, -1)
    return jacobi_stack(slot4_contraction(R, zs), g, zs).operator(g)


def _null_domains(
    g: ScalarProduct, frame: tuple, us, errors: list, message: str
) -> tuple[np.ndarray, np.ndarray]:
    """Representatives of u-perp/span(u), and their signs, of the error-free u in us whose part in
    the frame's span is nonzero and null against its size; each other error-free u gets a
    GeometryError of ``message`` in ``errors``."""
    ok = np.flatnonzero([error is None for error in errors])
    a2 = _rowwise(_rowwise(us[ok], g.components), frame[0].T) ** 2
    null = (np.abs((a2 * frame[1]).sum(axis=1)) <= RANK_RTOL * a2.sum(axis=1)) & a2.any(axis=1)
    for n in ok[~null]:
        errors[n] = GeometryError(message)
    return reflected_domains(g, frame, us[ok[null]], null=True)


def _null_quotients(g: ScalarProduct, us) -> tuple[list, np.ndarray, np.ndarray]:
    """Per u in us, None or why it has no quotient; and the others' representatives and their signs.
    A u null against NULL_ATOL but not in its frame coordinates has a nondegenerate u-perp."""
    errors = _causal_errors(g, us, (CausalCharacter.NULL,), "null quotient requires a null vector")
    message = "restricted Gram on u-perp has kernel dimension 0, expected 1"
    return (errors, *_null_domains(g, orthonormal_frame(g), us, errors, message))


def null_quotient(g: ScalarProduct, u) -> NullQuotient:
    """Quotient of u-perp by span(u) for a null vector u.

    The representatives are the frame vectors one reflection per signature
    block leaves (``reflected_domains``): g-orthonormal, deterministic, in any
    signature; the kernel of g restricted to u-perp is exactly span(u).
    """
    uv = np.asarray(u, dtype=float).reshape(-1)
    errors, reps, _ = _null_quotients(g, uv[None])
    if errors[0] is not None:
        raise errors[0]
    return null_quotient_from_representatives(g, uv, reps[0])


def null_quotient_from_representatives(g: ScalarProduct, u, representatives) -> NullQuotient:
    """Build a quotient from explicit representatives, each in u-perp: max |g(rep, u)| within
    ``MEMBERSHIP_RTOL`` of their size."""
    uv = np.asarray(u, dtype=float).reshape(-1)
    reps = np.atleast_2d(np.asarray(representatives, dtype=float))
    if reps.shape[0] != g.dim - 2:
        raise ValueError(f"expected {g.dim - 2} representatives, got {reps.shape[0]}")
    if np.abs(reps @ g.components @ uv).max() > MEMBERSHIP_RTOL * max(float(np.abs(reps).max()), 1.0):
        raise ValueError("representatives must be orthogonal to u")
    basis = SubspaceBasis.from_vectors(g, reps)
    evals = np.linalg.eigvalsh(basis.gram)
    tol = RANK_RTOL * max(float(np.abs(evals).max()), 1.0)
    if np.any(np.abs(evals) <= tol):
        raise ValueError("representatives are degenerate modulo span(u)")
    signature = (int(np.sum(evals > 0)), int(np.sum(evals < 0)))
    return NullQuotient(u=uv, rep_basis=basis, gbar_signature=signature)


def null_jacobi_stack(RU: np.ndarray, g: ScalarProduct, us: np.ndarray) -> OperatorStack:
    """Null Jacobi operators x -> proj(R(x, u) u) of the bases u, each on the quotient of u-perp,
    from RU = ``slot4_contraction(R, us)``; a base that is not null, or whose restricted Gram has
    a kernel other than span(u), gets an error instead of an operator."""
    return operator_stack(RU, us, *_null_quotients(g, us))


def null_jacobi(
    R: CurvatureTensor, g: ScalarProduct, u, quotient: NullQuotient | None = None
) -> JacobiOperator:
    """Null Jacobi operator x -> proj(R(x, u) u) on the quotient of u-perp.

    The matrix is independent of the choice of representatives because
    R(x, u) u lands in u-perp and g(., u) vanishes there. A ``quotient`` must be
    one of u itself (``quotient.u`` within ``MEMBERSHIP_RTOL`` of u, relative to
    its norm), else ValueError. Its representatives are made g-orthonormal where
    they enter: with ``reps = K D0`` modulo u, D0 the frame of u's own quotient of
    signs eta (so ``gbar = K eta K^T``, of any signature), the domain is ``K^-1 reps``;
    a shift of the representatives along u leaves K as it is.
    """
    us = np.asarray(u, dtype=float).reshape(1, -1)
    if quotient is None:
        return null_jacobi_stack(slot4_contraction(R, us), g, us).operator(g)
    if us.shape[1:] != quotient.u.shape or (
        np.linalg.norm(us[0] - quotient.u) > MEMBERSHIP_RTOL * np.linalg.norm(us[0])
    ):
        raise ValueError("u differs from the quotient's null vector")
    us, reps = quotient.u[None], quotient.rep_basis.vectors
    errors, frames, signs = _null_quotients(g, us)
    K = reps @ g.components @ frames.transpose(0, 2, 1) * signs[:, None]
    return operator_stack(slot4_contraction(R, us), us, errors, np.linalg.solve(K, reps), signs).operator(g)


def spectrum(op: JacobiOperator, grouping_tol: float = DEFAULT_GROUPING_TOL) -> SpectralData:
    """Grouped eigenvalues of a Jacobi operator, by the eigen step of ``OperatorStack._table``.

    Every operator lives on a g-orthonormal domain of signs eta and is eta F for symmetric F:
    ``eigvalsh`` if every sign is positive, else the plain eigenvalue problem, where non-real
    eigenvalues beyond tolerance raise ``SpectrumError`` -- possible for spacelike bases in
    indefinite signature.
    """
    values, unreal = _spectra(op.matrix[None], op.signs[None])
    if unreal[0] is not None:
        raise SpectrumError(unreal[0])
    return SpectralData.from_values(values[0], grouping_tol)


def _spectra(matrices, signs) -> tuple[np.ndarray, list]:
    """The eigenvalues of each operator, a row each, and per operator None or why they are not
    real: ``eigvalsh`` of the symmetric ones, those on domains of positive ``signs``, else the
    real parts of ``eigvals``."""
    definite = (signs > 0).all(axis=1)
    values = np.empty(matrices.shape[:2])
    unreal: list = [None] * len(matrices)
    if definite.any():
        values[definite] = np.linalg.eigvalsh(matrices[definite])
    if not definite.all():
        rows = np.flatnonzero(~definite)
        found = np.linalg.eigvals(matrices[~definite])
        max_imag = np.abs(found.imag).max(axis=1)
        bad = max_imag > REALNESS_RTOL * np.maximum(np.abs(found).max(axis=1), 1.0)
        for n, vals, imag in zip(rows[bad].tolist(), found[bad], max_imag[bad]):
            listed = ", ".join(f"{v:.6g}" for v in np.sort_complex(vals).tolist())
            unreal[n] = (f"non-real eigenvalues on an indefinite domain: max |imag| = {imag:.3e}; "
                         f"eigenvalues = [{listed}]")
        values[~definite] = found.real
    return values, unreal


def _grouped(values: np.ndarray, grouping_tol: float) -> list[tuple]:
    """(rows, multiplicities, group means) per split pattern of a stack of eigenvalues, each row
    sorted and grouped as one array.

    A value joins its left neighbour's group when within grouping_tol of it (a NaN gap splits).
    Rows that share a split pattern get their group means together: ``np.add.reduce`` along a
    row is ``np.mean``'s sum, in order from 0.0 below 8 values and pairwise from 8.
    """
    vals = np.sort(values, axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN gap
        split = ~(np.diff(vals, axis=1) <= grouping_tol)
    raw, width = split.tobytes(), split.shape[1]
    patterns: dict = {}  # the rows of each split pattern
    for n in range(len(vals)):
        patterns.setdefault(raw[n * width:(n + 1) * width], []).append(n)
    out = []
    for rows in patterns.values():
        pattern = split[rows[0]]
        edges = np.flatnonzero(np.concatenate(([True], pattern, [True])))[: vals.shape[1] + 1].tolist()
        groups = list(zip(edges[:-1], edges[1:]))
        block = vals[rows]
        means = np.empty((len(rows), len(groups)))
        for j, (a, b) in enumerate(groups):
            means[:, j] = np.add.reduce(block[:, a:b], axis=1) / (b - a)
        out.append((np.array(rows), tuple(b - a for a, b in groups), means))
    return out


def _spectra_table(bases, errors: list, values, grouping_tol: float) -> Table:
    """The per-sample spectra of a stack as one ``Table``: per base its row of ``bases`` and
    either the error string ``errors[n]`` or, grouped by ``_grouped``, the next row of ``values``.

    One block per multiplicity pattern, ``{"base", "spectrum": {"eigenvalues", "multiplicities"}}``
    with a constant pattern, and one block of the errors, ``{"base", "error"}``."""
    failed = np.array([error is not None for error in errors], dtype=bool)
    ok = np.flatnonzero(~failed)
    blocks = [
        (ok[rows], {"base": bases[ok[rows]], "spectrum": {"eigenvalues": means, "multiplicities": pattern}})
        for rows, pattern, means in _grouped(values, grouping_tol)
    ]
    if failed.any():
        rows = np.flatnonzero(failed)
        messages = np.array([errors[n] for n in rows.tolist()], dtype=object)
        blocks.append((rows, {"base": bases[rows], "error": messages}))
    return Table(len(errors), tuple(blocks))


# ---------------------------------------------------------------------------
# Condition deciders
# ---------------------------------------------------------------------------

@dataclass
class SampleRecord:
    """One sampled direction with its spectrum (or the failure that prevented it)."""

    base: np.ndarray
    spectrum: SpectralData | None
    error: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"base": self.base.tolist()}
        if self.spectrum is not None:
            out["spectrum"] = self.spectrum.to_dict()
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """Operators of many bases, built together; ``errors[n]`` is why base n has none (or None).

    The arrays stack the error-free bases' operators in order: ``matrices[j]`` acts on the rows
    of ``domains[j]``, which are g-orthonormal with the signs ``signs[j]``, and is ``signs[j] F``
    for a symmetric F."""

    bases: np.ndarray
    errors: list
    domains: np.ndarray
    matrices: np.ndarray
    signs: np.ndarray

    def operator(self, g: ScalarProduct) -> JacobiOperator:
        """The operator of a one-base stack, its domain Gram measured under g; raises the base's
        error if it has none."""
        if self.errors[0] is not None:
            raise self.errors[0]
        D = self.domains[0]
        domain = SubspaceBasis(vectors=D, gram=D @ g.components @ D.T)
        return JacobiOperator(self.bases[0], domain, self.matrices[0], self.signs[0])

    def records(self, grouping_tol: float = DEFAULT_GROUPING_TOL) -> list[SampleRecord]:
        """One record per base: its spectrum, or the error that prevented it; a view of ``_table``."""
        return _records(self._table(grouping_tol))

    def _table(self, grouping_tol: float) -> Table:
        """The spectra of all the bases as one ``Table`` (``_spectra_table``): a base's error, or
        the error of its operator's eigenvalues, or its grouped eigenvalues."""
        values, unreal = _spectra(self.matrices, self.signs)
        pending = iter(unreal)
        errors = [next(pending) if error is None else str(error) for error in self.errors]
        real = [message is None for message in unreal]
        return _spectra_table(self.bases, errors, values[real], grouping_tol)


def _records(table: Table) -> list[SampleRecord]:
    """The rows of a ``_spectra_table`` as records."""
    out: list = [None] * len(table)
    for rows, row in table.blocks:
        if "error" in row:
            for n, base, error in zip(rows.tolist(), row["base"], row["error"].tolist()):
                out[n] = SampleRecord(base, None, error)
        else:
            pattern = row["spectrum"]["multiplicities"]
            for n, base, means in zip(rows.tolist(), row["base"], row["spectrum"]["eigenvalues"].tolist()):
                out[n] = SampleRecord(base, SpectralData(tuple(means), pattern))
    return out


@dataclass
class DecisionReport:
    """Outcome of a spectral-constancy decision over a sampled sphere; ``spectra`` is the
    ``_spectra_table`` of its samples."""

    condition: str
    passed: bool
    seed: int
    tol: float
    grouping_tol: float
    spectra: Table
    groups: list[dict] = field(default_factory=list)
    failure: str | None = None
    notes: dict = field(default_factory=dict)

    @property
    def records(self) -> list[SampleRecord]:
        return _records(self.spectra)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "samples": len(self.spectra),
            "seeds": {"sampling": self.seed},
            "tolerances": {"constancy": self.tol, "grouping": self.grouping_tol},
            "per_sample_spectra": self.spectra,
            "groups": self.groups,
            "failure": self.failure,
            "notes": self.notes,
        }


def decide_constancy(
    condition: str,
    spectra: Table,
    seed: int,
    tol: float,
    grouping_tol: float,
    notes: dict | None = None,
) -> DecisionReport:
    """Pass iff all sampled spectra exist, share one group pattern, and agree within tol: every
    group's spread, max - min of its means over the samples, is below tol (a NaN spread or tol fails).
    ``spectra`` is a ``_spectra_table``, one block per pattern. Fewer than 2 samples is a
    ValueError: one spectrum has nothing to be constant against."""
    if len(spectra) < 2:
        raise ValueError(f"a constancy decision needs at least 2 samples, got {len(spectra)}")
    report = DecisionReport(condition, False, seed, tol, grouping_tol, spectra, notes=notes or {})
    # the blocks by their first row: the first error block, else row 0's pattern, leads
    blocks = sorted(spectra.blocks, key=lambda block: ("error" not in block[1], block[0][0]))
    (rows, first), *others = blocks
    if "error" in first:
        report.failure = f"sample {rows[0]}: {first['error'][0]}"
        return report
    pattern = first["spectrum"]["multiplicities"]
    if others:
        rows, other = others[0]
        report.failure = (
            f"multiplicity pattern differs at sample {rows[0]}: {other['spectrum']['multiplicities']} vs {pattern}"
        )
        return report
    means = first["spectrum"]["eigenvalues"]  # (samples, groups), the rows in order
    lo, hi = means.min(axis=0), means.max(axis=0)  # a NaN mean makes a NaN spread
    spreads = hi - lo
    report.groups = [
        {"eigenvalue": value, "multiplicity": multiplicity, "min": a, "max": b, "spread": b - a}
        for value, multiplicity, a, b in zip(means[0].tolist(), pattern, lo.tolist(), hi.tolist())
    ]
    gi = int(np.argmax(spreads))  # the first widest group, or the first NaN spread
    if not spreads[gi] < tol:
        report.failure = f"group {gi} eigenvalue spread {spreads[gi]:.3e} >= tol {tol:.1e}"
        return report
    report.passed = True
    return report


def sample_unit_causal(g: ScalarProduct, kind: CausalCharacter, count: int, seed: int) -> np.ndarray:
    """Random unit vectors of the requested causal kind, on a bounded boost window, unrejected.

    With E-, E+ the blocks of ``orthonormal_frame(g)``, u, v normalized Gaussian coefficients and
    t uniform on [-BOOST_WINDOW, BOOST_WINDOW] (0 if the second block is empty), a timelike draw is
    ``cosh(t) u E- + sinh(t) v E+`` and a spacelike one ``sinh(t) u E- + cosh(t) v E+`` (O'Neill,
    Semi-Riemannian Geometry, ch. 4); its norm is at most ``sqrt(cosh(2 BOOST_WINDOW)) ||E||_2``.
    No verdict is lost: ``tr(J_x^k) / g(x, x)^k`` is real-analytic on each component of the
    pseudo-sphere, so constant on it if constant on an open set, and ``J_{-x} = J_x``.
    """
    if kind not in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE):
        raise ValueError("kind must be spacelike or timelike")
    frame, signs = orthonormal_frame(g)
    timelike, spacelike = frame[signs < 0], frame[signs > 0]
    lead, other = (timelike, spacelike) if kind is CausalCharacter.TIMELIKE else (spacelike, timelike)
    if count < 1 or not len(lead):
        raise CausalCharacterError(
            f"could not sample {count} {kind.value} unit vectors (signature {g.signature})"
        )
    rng = np.random.default_rng(seed)
    t = rng.uniform(-BOOST_WINDOW, BOOST_WINDOW, count) if len(other) else np.zeros(count)
    u, v = (rng.standard_normal((count, len(block))) for block in (lead, other))
    u, v = (w / np.linalg.norm(w, axis=1, keepdims=True) for w in (u, v))
    return np.cosh(t)[:, None] * (u @ lead) + np.sinh(t)[:, None] * (v @ other)


def sample_null_vectors(g: ScalarProduct, count: int, seed: int) -> np.ndarray:
    """Generic null vectors in a Lorentzian space, at random scales: ``scales (z + x)`` with z the
    timelike row of ``orthonormal_frame(g)``, x the deciders' draw of its celestial sphere and the
    scales uniform on [0.5, 2]."""
    if not g.is_lorentzian:
        raise CausalCharacterError(f"null sampling implemented for Lorentzian g, got {g.signature}")
    z = orthonormal_frame(g)[0][0]  # the timelike row comes first
    scales = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=count)
    return scales[:, None] * _shift(z, _celestial(g, z, count, seed))


def _decide(
    condition: str, stack: OperatorStack, seed: int, tol: float, grouping_tol: float, notes=None, names=None
) -> DecisionReport:
    """The one decision step of every decider: the stack's spectra table, each row naming its base
    or, with ``names``, the point of ``names`` in its place, judged by ``decide_constancy``."""
    if names is not None:
        stack = replace(stack, bases=names)
    return decide_constancy(condition, stack._table(grouping_tol), seed, tol, grouping_tol, notes)


def is_osserman_at(
    R: CurvatureTensor,
    g: ScalarProduct,
    kind: CausalCharacter,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> DecisionReport:
    """Pointwise Osserman decision for one causal kind of unit vectors."""
    bases = sample_unit_causal(g, kind, samples, seed)
    stack = jacobi_stack(slot4_contraction(R, bases), g, bases)
    return _decide(f"osserman[{kind.value}]", stack, seed, tol, grouping_tol, {"causal_kind": kind.value})


def is_null_osserman_wrt(
    R: CurvatureTensor,
    g: ScalarProduct,
    z,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> DecisionReport:
    """Null Osserman decision w.r.t. a unit timelike z, over its full celestial sphere.

    Null directions are produced as z + x for x on the celestial sphere of z
    (the inverse of the congruence-to-sphere shift map); each record names its x.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    if abs(inner(g, zv, zv) + 1.0) > UNIT_ATOL:
        raise CausalCharacterError("null Osserman reference vector must be unit timelike")
    sphere = _celestial(g, zv, samples, seed)
    us = _shift(zv, sphere)
    stack = null_jacobi_stack(slot4_contraction(R, us), g, us)
    return _decide("null-osserman", stack, seed, tol, grouping_tol, {"reference": zv.tolist()}, sphere)


@dataclass
class PhiNullReport:
    """Two-path phi-null Osserman decision.

    The quotient path samples the phi-null congruence and diagonalizes the
    null Jacobi operators; the direct path samples the phi-celestial sphere
    and diagonalizes the classical Jacobi operators. The two verdicts
    coincide on curated families but are reported independently: for an
    arbitrary algebraic curvature tensor the equivalence is not asserted.
    """

    quotient: DecisionReport
    direct: DecisionReport

    @property
    def passed(self) -> bool:
        return self.quotient.passed and self.direct.passed

    def to_dict(self) -> dict:
        return {
            "condition": "phi-null-osserman",
            "passed": self.passed,
            "paths": {
                "quotient": self.quotient.to_dict(),
                "direct": self.direct.to_dict(),
            },
        }


def is_phi_null_osserman_wrt(
    R: CurvatureTensor,
    S: GffStructure,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_CONSTANCY_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> PhiNullReport:
    """Phi-null Osserman decision w.r.t. the timelike frame vector of S."""
    sphere = sample_phi_celestial(S, samples, seed)
    us = _shift(S.timelike_frame_vector, sphere)
    quotient = null_jacobi_stack(slot4_contraction(R, us), S.g, us)
    direct = jacobi_stack(slot4_contraction(R, sphere), S.g, sphere)
    return _phi_null(quotient, direct, sphere, seed, tol, grouping_tol)


def _phi_null(
    quotient: OperatorStack, direct: OperatorStack, sphere, seed: int, tol: float, grouping_tol: float
) -> PhiNullReport:
    """Both paths' decisions: the null stack on the phi-null congruence xi_1 + sphere, whose records
    name their sphere points, and the classical stack on the phi-celestial sphere."""
    return PhiNullReport(
        quotient=_decide("phi-null-osserman[quotient]", quotient, seed, tol, grouping_tol, names=sphere),
        direct=_decide("phi-null-osserman[direct]", direct, seed, tol, grouping_tol),
    )
