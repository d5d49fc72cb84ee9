"""Jacobi operators and Osserman-type condition deciders.

Three operator constructions live here:

- the classical Jacobi operator of a non-null vector z, acting on z-perp as
  ``y -> R(y, z) z``;
- the null quotient: for a null u, the degenerate direction of u-perp is
  span(u) itself, and the quotient u-perp/span(u) carries a positive definite
  inner product in Lorentzian signature;
- the null Jacobi operator on that quotient, ``x -> proj(R(x, u) u)``.

A condition decider samples a sphere of directions, stacks the operators of
all samples (``OperatorStack``), and passes iff their grouped eigenvalues
(with multiplicities) agree within a tolerance. Reports carry the full
per-sample spectra and base vectors so that failures are reproducible.

Operator-argument ordering: the Jacobi operator of z applied to y is fixed as
R(y, z) z, the curvature operator with pair (y, z) acting on z. With the
package's sign convention this gives eigenvalue c on z-perp for a unit
spacelike z on a constant-curvature-c tensor, which is the anchor test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureTensor, operator_apply
from .gff import GffStructure, sample_phi_celestial
from .linalg import (
    RANK_RTOL,
    CausalCharacter,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    causal_character,
    inner,
    orthogonal_complement,
    orthonormalize,
    sample_unit_sphere,
)

DEFAULT_SAMPLES = 64
DEFAULT_GROUPING_TOL = 1e-6
DEFAULT_CONSTANCY_TOL = 1e-8
REALNESS_RTOL = 1e-8


class SpectrumError(GeometryError):
    """Eigenvalues are not real beyond tolerance (possible for indefinite domains)."""


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigenvalues grouped into multiplicities at a tolerance."""

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    grouping_tol: float

    @classmethod
    def from_values(cls, values, grouping_tol: float = DEFAULT_GROUPING_TOL) -> "SpectralData":
        vals = np.sort(np.asarray(values, dtype=float))
        groups: list[list[float]] = []
        for v in vals:
            if groups and v - groups[-1][-1] <= grouping_tol:
                groups[-1].append(float(v))
            else:
                groups.append([float(v)])
        return cls(
            eigenvalues=tuple(float(np.mean(grp)) for grp in groups),
            multiplicities=tuple(len(grp) for grp in groups),
            grouping_tol=grouping_tol,
        )

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
    """An operator on a subspace of base-perp, self-adjoint w.r.t. the domain Gram."""

    base: np.ndarray
    domain: SubspaceBasis
    matrix: np.ndarray
    metric_on_domain: np.ndarray

    @property
    def self_adjointness_residual(self) -> float:
        G, M = self.metric_on_domain, self.matrix
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


def jacobi(
    R: CurvatureTensor,
    g: ScalarProduct,
    z,
    domain: SubspaceBasis | None = None,
) -> JacobiOperator:
    """Classical Jacobi operator y -> R(y, z) z on z-perp.

    ``z`` must be spacelike or timelike; for a null base use
    :func:`null_jacobi`. An explicit ``domain`` (a basis of z-perp) may be
    supplied to compare operators of parallel bases on identical coordinates.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    kind = causal_character(g, zv)
    if kind not in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE):
        raise CausalCharacterError(
            f"classical Jacobi operator needs a non-null base, got {kind.value}"
        )
    if domain is None:
        domain = orthogonal_complement(g, [zv])
    images = np.array([operator_apply(R, g, zv, y, zv) for y in domain.vectors])
    matrix = domain.coordinates(g, images)
    return JacobiOperator(base=zv, domain=domain, matrix=matrix, metric_on_domain=domain.gram)


def null_quotient(g: ScalarProduct, u, rank_rtol: float = RANK_RTOL) -> NullQuotient:
    """Quotient of u-perp by span(u) for a null vector u.

    Representatives are chosen as the nondegenerate eigendirections of the
    restricted Gram, which is deterministic and works in any signature; the
    kernel of the restriction is exactly span(u).
    """
    uv = np.asarray(u, dtype=float).reshape(-1)
    if causal_character(g, uv) is not CausalCharacter.NULL:
        raise CausalCharacterError("null quotient requires a null vector")
    perp = orthogonal_complement(g, [uv], rank_rtol)
    reps, kernel_dims = quotient_representatives(perp.vectors[None], perp.gram[None], rank_rtol)
    if kernel_dims[0] != 1:
        raise GeometryError(f"restricted Gram on u-perp has kernel dimension {kernel_dims[0]}, expected 1")
    return null_quotient_from_representatives(g, uv, reps[0], rank_rtol)


def quotient_representatives(perp_vectors, perp_grams, rank_rtol: float = RANK_RTOL):
    """Quotient representatives for stacked (N, k, m) bases of u-perp, with the Grams' kernel dims.

    The k - 1 rows per sample are the Gram's nondegenerate eigendirections, in
    ``eigh`` order; they mean something only where the kernel dim is 1.
    """
    evals, evecs = np.linalg.eigh(perp_grams)
    kernel = np.abs(evals) <= rank_rtol * np.maximum(np.abs(evals).max(axis=-1), 1.0)[:, None]
    keep = np.argsort(kernel, axis=-1, kind="stable")[:, None, :-1]
    reps = np.take_along_axis(evecs, keep, axis=-1).transpose(0, 2, 1) @ perp_vectors
    return reps, kernel.sum(axis=-1)


def null_quotient_from_representatives(
    g: ScalarProduct,
    u,
    representatives,
    rank_rtol: float = RANK_RTOL,
) -> NullQuotient:
    """Build a quotient from explicit representatives (each must lie in u-perp)."""
    uv = np.asarray(u, dtype=float).reshape(-1)
    reps = np.atleast_2d(np.asarray(representatives, dtype=float))
    if reps.shape[0] != g.dim - 2:
        raise ValueError(f"expected {g.dim - 2} representatives, got {reps.shape[0]}")
    pairing = reps @ g.components @ uv
    if np.abs(pairing).max() > 1e-8 * max(float(np.abs(reps).max()), 1.0):
        raise ValueError("representatives must be orthogonal to u")
    basis = SubspaceBasis.from_vectors(g, reps, rank_rtol)
    evals = np.linalg.eigvalsh(basis.gram)
    tol = rank_rtol * max(float(np.abs(evals).max()), 1.0)
    if np.any(np.abs(evals) <= tol):
        raise ValueError("representatives are degenerate modulo span(u)")
    signature = (int(np.sum(evals > 0)), int(np.sum(evals < 0)))
    return NullQuotient(u=uv, rep_basis=basis, gbar_signature=signature)


def null_jacobi(
    R: CurvatureTensor,
    g: ScalarProduct,
    u,
    quotient: NullQuotient | None = None,
) -> JacobiOperator:
    """Null Jacobi operator x -> proj(R(x, u) u) on the quotient of u-perp.

    The matrix is independent of the choice of representatives because
    R(x, u) u lands in u-perp and g(., u) vanishes there.
    """
    if quotient is None:
        quotient = null_quotient(g, u)
    uv = quotient.u
    reps = quotient.rep_basis
    images = np.array([operator_apply(R, g, uv, r, uv) for r in reps.vectors])
    matrix = reps.coordinates(g, images)
    return JacobiOperator(base=uv, domain=reps, matrix=matrix, metric_on_domain=quotient.gbar)


def spectrum(
    op: JacobiOperator,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
    realness_rtol: float = REALNESS_RTOL,
) -> SpectralData:
    """Grouped eigenvalues of a Jacobi operator.

    With a positive definite domain Gram = L L^T the generalized symmetric
    eigenproblem (Gram * matrix) v = lambda * Gram v is solved as the symmetric
    L^-1 (Gram * matrix) L^-T (Golub & Van Loan, 8.7), so eigenvalues are exactly
    real. Otherwise the plain eigenvalue problem is used and non-real eigenvalues
    beyond tolerance raise ``SpectrumError`` -- they are possible for spacelike
    bases in indefinite signature.
    """
    result = _spectra(op.matrix[None], op.metric_on_domain[None], grouping_tol, realness_rtol)[0]
    if isinstance(result, SpectrumError):
        raise result
    return result


def _spectra(matrices, grams, grouping_tol: float, realness_rtol: float = REALNESS_RTOL) -> list:
    """``spectrum`` of each stacked operator: its SpectralData, or the SpectrumError it raises."""
    out: list = [None] * len(matrices)
    if not out:
        return out
    evals_G = np.linalg.eigvalsh(grams)
    definite = evals_G.min(axis=1) > 1e-12 * np.maximum(np.abs(evals_G).max(axis=1), 1.0)
    if definite.any():
        G = grams[definite]
        A = G @ matrices[definite]
        L = np.linalg.cholesky(G)
        half = np.linalg.solve(L, 0.5 * (A + A.transpose(0, 2, 1)))
        whitened = np.linalg.solve(L, half.transpose(0, 2, 1))
        for n, values in zip(np.flatnonzero(definite), np.linalg.eigvalsh(whitened)):
            out[n] = SpectralData.from_values(values, grouping_tol)
    if not definite.all():
        for n, values in zip(np.flatnonzero(~definite), np.linalg.eigvals(matrices[~definite])):
            scale = max(float(np.abs(values).max()), 1.0)
            max_imag = float(np.abs(values.imag).max())
            if max_imag > realness_rtol * scale:
                out[n] = SpectrumError(
                    f"non-real eigenvalues on an indefinite domain: max |imag| = {max_imag:.3e}; "
                    f"eigenvalues = {np.array2string(values, precision=6)}"
                )
            else:
                out[n] = SpectralData.from_values(values.real, grouping_tol)
    return out


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
        out: dict = {"base": [float(v) for v in self.base]}
        if self.spectrum is not None:
            out["spectrum"] = self.spectrum.to_dict()
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True, eq=False)
class OperatorStack:
    """Operators of many bases, built together; ``errors[n]`` is why base n has none (or None).

    The arrays stack the error-free bases' operators in order: ``matrices[j]``
    acts on the rows of ``domains[j]``, self-adjoint w.r.t. ``grams[j]``."""

    bases: np.ndarray
    errors: list
    domains: np.ndarray
    grams: np.ndarray
    matrices: np.ndarray

    @classmethod
    def from_operators(cls, bases, operator_for_base) -> "OperatorStack":
        ops, errors = [], []
        for base in bases:
            try:
                ops.append(operator_for_base(base))
                errors.append(None)
            except GeometryError as exc:
                errors.append(exc)
        domains = np.array([op.domain.vectors for op in ops])
        grams = np.array([op.metric_on_domain for op in ops])
        return cls(np.asarray(bases), errors, domains, grams, np.array([op.matrix for op in ops]))

    def operator(self) -> JacobiOperator:
        """The operator of a one-base stack; raises the base's error if it has none."""
        if self.errors[0] is not None:
            raise self.errors[0]
        domain = SubspaceBasis(vectors=self.domains[0], gram=self.grams[0])
        return JacobiOperator(self.bases[0], domain, self.matrices[0], self.grams[0])

    def records(self, grouping_tol: float = DEFAULT_GROUPING_TOL) -> list[SampleRecord]:
        """One record per base: its spectrum, or the error that prevented it."""
        spectra = iter(_spectra(self.matrices, self.grams, grouping_tol))
        results = [error or next(spectra) for error in self.errors]
        return [
            SampleRecord(base, None, str(r)) if isinstance(r, GeometryError) else SampleRecord(base, r)
            for base, r in zip(self.bases, results)
        ]


@dataclass
class DecisionReport:
    """Outcome of a spectral-constancy decision over a sampled sphere."""

    condition: str
    passed: bool
    samples: int
    seed: int
    tol: float
    grouping_tol: float
    records: list[SampleRecord] = field(default_factory=list)
    groups: list[dict] = field(default_factory=list)
    failure: str | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "samples": self.samples,
            "seeds": {"sampling": self.seed},
            "tolerances": {"constancy": self.tol, "grouping": self.grouping_tol},
            "per_sample_spectra": [r.to_dict() for r in self.records],
            "groups": self.groups,
            "failure": self.failure,
            "notes": self.notes,
        }


def decide_constancy(
    condition: str,
    records: list[SampleRecord],
    seed: int,
    tol: float,
    grouping_tol: float,
    notes: dict | None = None,
) -> DecisionReport:
    """Pass iff all sampled spectra exist, share one group pattern, and agree within tol."""
    report = DecisionReport(
        condition=condition,
        passed=False,
        samples=len(records),
        seed=seed,
        tol=tol,
        grouping_tol=grouping_tol,
        records=records,
        notes=notes or {},
    )
    for i, rec in enumerate(records):
        if rec.error is not None:
            report.failure = f"sample {i}: {rec.error}"
            return report
    reference = records[0].spectrum
    for i, rec in enumerate(records[1:], start=1):
        if rec.spectrum.multiplicities != reference.multiplicities:
            report.failure = (
                f"multiplicity pattern differs at sample {i}: "
                f"{rec.spectrum.multiplicities} vs {reference.multiplicities}"
            )
            return report
    spreads = []
    for gi in range(len(reference.eigenvalues)):
        values = [rec.spectrum.eigenvalues[gi] for rec in records]
        lo, hi = float(min(values)), float(max(values))
        spreads.append(hi - lo)
        report.groups.append(
            {
                "eigenvalue": reference.eigenvalues[gi],
                "multiplicity": reference.multiplicities[gi],
                "min": lo,
                "max": hi,
                "spread": hi - lo,
            }
        )
    worst = max(spreads)
    if worst >= tol:
        gi = spreads.index(worst)
        report.failure = f"group {gi} eigenvalue spread {worst:.3e} >= tol {tol:.1e}"
        return report
    report.passed = True
    return report


def sample_unit_causal(
    g: ScalarProduct,
    kind: CausalCharacter,
    count: int,
    seed: int,
    max_tries: int = 200,
) -> np.ndarray:
    """Random unit vectors of the requested causal kind, by rejection.

    The unit pseudo-spheres are noncompact in indefinite signature, so there
    is no uniform measure; normalized Gaussian draws give full support over
    directions, which is what the constancy deciders need.
    """
    if kind not in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE):
        raise ValueError("kind must be spacelike or timelike")
    rng = np.random.default_rng(seed)
    want_positive = kind is CausalCharacter.SPACELIKE
    out = []
    for _ in range(max_tries * count):
        y = rng.standard_normal(g.dim)
        q = inner(g, y, y)
        if abs(q) <= 1e-8 * max(float(y @ y), 1.0):
            continue
        if (q > 0) == want_positive:
            out.append(y / np.sqrt(abs(q)))
            if len(out) == count:
                return np.array(out)
    raise CausalCharacterError(
        f"could not sample {count} {kind.value} unit vectors (signature {g.signature})"
    )


def sample_null_vectors(g: ScalarProduct, count: int, seed: int) -> np.ndarray:
    """Generic null vectors in a Lorentzian space, at random scales."""
    if not g.is_lorentzian:
        raise CausalCharacterError(f"null sampling implemented for Lorentzian g, got {g.signature}")
    evals, evecs = np.linalg.eigh(g.components)
    z = evecs[:, 0] / np.sqrt(-evals[0])  # unit timelike axis
    frame = orthonormalize(g, orthogonal_complement(g, [z]))
    sphere = sample_unit_sphere(g, frame, count, seed)
    scales = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=count)
    return scales[:, None] * (sphere + z)


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
    records = OperatorStack.from_operators(bases, lambda z: jacobi(R, g, z)).records(grouping_tol)
    return decide_constancy(
        f"osserman[{kind.value}]", records, seed, tol, grouping_tol,
        notes={"causal_kind": kind.value},
    )


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
    (the inverse of the congruence-to-sphere shift map).
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    if abs(inner(g, zv, zv) + 1.0) > 1e-8:
        raise CausalCharacterError("null Osserman reference vector must be unit timelike")
    frame = orthonormalize(g, orthogonal_complement(g, [zv]))
    if not np.allclose(frame.gram, np.eye(frame.dim), atol=1e-10):
        raise CausalCharacterError("celestial sphere of z is not spacelike; g must be Lorentzian")
    sphere = sample_unit_sphere(g, frame, samples, seed)
    stack = OperatorStack.from_operators(sphere, lambda x: null_jacobi(R, g, zv + x))
    records = stack.records(grouping_tol)
    return decide_constancy(
        "null-osserman", records, seed, tol, grouping_tol,
        notes={"reference": [float(v) for v in zv]},
    )


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
    sphere = sample_phi_celestial(S, samples, seed).points
    z = S.timelike_frame_vector
    g = S.g
    quotient = OperatorStack.from_operators(sphere, lambda x: null_jacobi(R, g, z + x))
    direct = OperatorStack.from_operators(sphere, lambda x: jacobi(R, g, x))
    return PhiNullReport(
        quotient=decide_constancy(
            "phi-null-osserman[quotient]", quotient.records(grouping_tol), seed, tol, grouping_tol
        ),
        direct=decide_constancy(
            "phi-null-osserman[direct]", direct.records(grouping_tol), seed, tol, grouping_tol
        ),
    )
