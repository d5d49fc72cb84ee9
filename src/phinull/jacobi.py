"""Jacobi operators and Osserman-type condition deciders.

Three operator constructions live here:

- the classical Jacobi operator of a non-null vector z, acting on z-perp as
  ``y -> R(y, z) z``;
- the null quotient: for a null u, the degenerate direction of u-perp is
  span(u) itself, and the quotient u-perp/span(u) carries a positive definite
  inner product in Lorentzian signature;
- the null Jacobi operator on that quotient, ``x -> proj(R(x, u) u)``.

Every operator, these and the transfer operators of ``submersion``, takes
one path over all samples at once: bases -> domain rows D -> a curvature form
-> ``operator_stack`` (symmetrize, solve against the domain Gram) ->
``OperatorStack.records`` -> ``decide_constancy``, which passes iff the grouped
eigenvalues of all samples agree within a tolerance. The Jacobi forms are
``D C`` with ``C[n, a, k] = R(e_a, x, d_k, x)``, contracted x in slot 4, then
d in slot 3 and x in slot 2: forming ``K_x = R(., x, ., x)`` first loses more
to cancellation on large-norm timelike x. The slot-4 contraction
(``slot4_contraction``) is made once per stack of bases and every form on
those bases is built from it (``jacobi_covectors``), so a decider that shares
its bases with another, as the theorem report's do, contracts them once.

Spectra are taken for the whole stack at once. The sorted eigenvalues are one
array; one ``np.diff`` along it splits every row into groups, and the rows that
share a split pattern get their group means together, ``np.add.reduce`` along
each row being ``np.mean``'s sum bit for bit. ``SpectralData.from_values`` is
the same grouping for a single row.

Operator-argument ordering: the Jacobi operator of z applied to y is fixed as
R(y, z) z, the curvature operator with pair (y, z) acting on z. With the
package's sign convention this gives eigenvalue c on z-perp for a unit
spacelike z on a constant-curvature-c tensor, which is the anchor test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import CurvatureTensor
from .gff import GffStructure, sample_phi_celestial
from .linalg import (
    RANK_RTOL,
    CausalCharacter,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    causal_characters,
    inner,
    orthogonal_complement,
    orthonormalize,
    sample_unit_sphere,
    self_products,
)

DEFAULT_SAMPLES = 64
DEFAULT_GROUPING_TOL = 1e-6
DEFAULT_CONSTANCY_TOL = 1e-8
REALNESS_RTOL = 1e-8
SAMPLER_BLOCK = 4096


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
        return _grouped(np.asarray(values, dtype=float).reshape(1, -1), grouping_tol)[0]

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


def slot4_contraction(R: CurvatureTensor, xs) -> np.ndarray:
    """RX[n, a, b, c] = R(e_a, e_b, e_c, x) for x = xs[n]: the first contraction of every form
    built on the bases xs, made once per stack of bases."""
    return np.einsum("abcd,nd->nabc", R.components, xs)


def jacobi_covectors(RX: np.ndarray, xs, D) -> np.ndarray:
    """C[n, a, k] = R(e_a, x, d_k, x) for x = xs[n], RX = ``slot4_contraction(R, xs)`` and the
    rows d_k of D[n].

    x went into slot 4; d goes into slot 3 and x into slot 2 (see the module docstring), in
    plain einsum loops: at this size a BLAS product runs threaded, and slower."""
    return np.einsum("nabc,nkc,nb->nak", RX, D, xs)


def _error_free(errors: list):
    """The index of the bases with no error: every row (a slice, no copy) or a list of rows."""
    ok = [n for n, error in enumerate(errors) if error is None]
    return slice(None) if len(ok) == len(errors) else ok


def perp_within(g: ScalarProduct, span: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows spanning {v in span(span) : g(v, x) = 0} for each x in xs (x must pair with the span)."""
    _, _, vh = np.linalg.svd((xs @ g.components @ span.T)[:, None, :])
    return vh[:, 1:, :] @ span


def quotient_representatives(g: ScalarProduct, span: np.ndarray, us, rank_rtol: float = RANK_RTOL):
    """Representatives of u-perp/span(u) within span(span) per u in us, with the restricted
    Grams' kernel dims: the nondegenerate eigendirections, meaningful only where that dim is 1."""
    perp = perp_within(g, span, us)
    evals, evecs = np.linalg.eigh(perp @ g.components @ perp.transpose(0, 2, 1))
    kernel = np.abs(evals) <= rank_rtol * np.maximum(np.abs(evals).max(axis=-1), 1.0)[:, None]
    keep = np.argsort(kernel, axis=-1, kind="stable")[:, None, :-1]
    return np.take_along_axis(evecs, keep, axis=-1).transpose(0, 2, 1) @ perp, kernel.sum(axis=-1)


def operator_stack(bases, errors: list, g: ScalarProduct, domains, forms) -> OperatorStack:
    """The operators solve(Gram, symmetrized form) on the domains of the error-free bases."""
    grams = domains @ g.components @ domains.transpose(0, 2, 1)
    matrices = np.linalg.solve(grams, 0.5 * (forms + forms.transpose(0, 2, 1)))
    return OperatorStack(bases=bases, errors=errors, domains=domains, grams=grams, matrices=matrices)


def _jacobi_operators(RX: np.ndarray, g: ScalarProduct, bases, errors: list, domains) -> OperatorStack:
    """``operator_stack`` of the Jacobi forms ``D C`` on the domains D of the error-free bases;
    RX is the slot-4 contraction of all the bases."""
    ok = _error_free(errors)
    return operator_stack(bases, errors, g, domains, domains @ jacobi_covectors(RX[ok], bases[ok], domains))


def _causal_errors(g: ScalarProduct, bases, kinds, message: str) -> list:
    """Per base: None if its causal character is in ``kinds``, else a CausalCharacterError of ``message``."""
    found = causal_characters(g, bases)
    return [None if kind in kinds else CausalCharacterError(message.format(kind.value)) for kind in found]


def jacobi_stack(R: CurvatureTensor, g: ScalarProduct, zs, domains=None) -> OperatorStack:
    """Classical Jacobi operators y -> R(y, z) z of the bases z, each on z-perp (or on domains[n]).

    A null or zero base gets an error instead of an operator.
    """
    zs = np.asarray(zs, dtype=float)
    return _jacobi_stack(slot4_contraction(R, zs), g, zs, domains)


def _jacobi_stack(RX: np.ndarray, g: ScalarProduct, zs: np.ndarray, domains=None) -> OperatorStack:
    """``jacobi_stack`` of the bases zs from their slot-4 contraction RX."""
    non_null = (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE)
    errors = _causal_errors(g, zs, non_null, "classical Jacobi operator needs a non-null base, got {}")
    ok = _error_free(errors)
    D = perp_within(g, np.eye(g.dim), zs[ok]) if domains is None else np.asarray(domains, dtype=float)[ok]
    return _jacobi_operators(RX, g, zs, errors, D)


def jacobi(R: CurvatureTensor, g: ScalarProduct, z, domain: SubspaceBasis | None = None) -> JacobiOperator:
    """Classical Jacobi operator y -> R(y, z) z on z-perp.

    ``z`` must be spacelike or timelike; for a null base use
    :func:`null_jacobi`. An explicit ``domain`` (a basis of z-perp) may be
    supplied to compare operators of parallel bases on identical coordinates.
    """
    zs = np.asarray(z, dtype=float).reshape(1, -1)
    return jacobi_stack(R, g, zs, None if domain is None else domain.vectors[None]).operator()


def _null_quotients(g: ScalarProduct, us, rank_rtol: float = RANK_RTOL) -> tuple[list, np.ndarray]:
    """Per u in us, None or the error that leaves it without a quotient; and the others' representatives."""
    errors = _causal_errors(g, us, (CausalCharacter.NULL,), "null quotient requires a null vector")
    ok = [n for n, error in enumerate(errors) if error is None]
    reps, kernel_dims = quotient_representatives(g, np.eye(g.dim), us[ok], rank_rtol)
    for n, dim in zip(ok, kernel_dims):
        if dim != 1:
            errors[n] = GeometryError(f"restricted Gram on u-perp has kernel dimension {dim}, expected 1")
    return errors, reps[kernel_dims == 1]


def null_quotient(g: ScalarProduct, u, rank_rtol: float = RANK_RTOL) -> NullQuotient:
    """Quotient of u-perp by span(u) for a null vector u.

    Representatives are chosen as the nondegenerate eigendirections of the
    restricted Gram, which is deterministic and works in any signature; the
    kernel of the restriction is exactly span(u).
    """
    uv = np.asarray(u, dtype=float).reshape(-1)
    errors, reps = _null_quotients(g, uv[None], rank_rtol)
    if errors[0] is not None:
        raise errors[0]
    return null_quotient_from_representatives(g, uv, reps[0], rank_rtol)


def null_quotient_from_representatives(
    g: ScalarProduct, u, representatives, rank_rtol: float = RANK_RTOL
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


def null_jacobi_stack(R: CurvatureTensor, g: ScalarProduct, us) -> OperatorStack:
    """Null Jacobi operators x -> proj(R(x, u) u) of the bases u, each on the quotient of u-perp.

    A base that is not null, or whose restricted Gram has a kernel other than
    span(u), gets an error instead of an operator.
    """
    us = np.asarray(us, dtype=float)
    return _null_jacobi_stack(slot4_contraction(R, us), g, us)


def _null_jacobi_stack(RU: np.ndarray, g: ScalarProduct, us: np.ndarray) -> OperatorStack:
    """``null_jacobi_stack`` of the bases us from their slot-4 contraction RU."""
    return _jacobi_operators(RU, g, us, *_null_quotients(g, us))


def null_jacobi(
    R: CurvatureTensor, g: ScalarProduct, u, quotient: NullQuotient | None = None
) -> JacobiOperator:
    """Null Jacobi operator x -> proj(R(x, u) u) on the quotient of u-perp.

    The matrix is independent of the choice of representatives because
    R(x, u) u lands in u-perp and g(., u) vanishes there.
    """
    if quotient is None:
        quotient = null_quotient(g, u)
    us, reps = quotient.u[None], quotient.rep_basis.vectors[None]
    return _jacobi_operators(slot4_contraction(R, us), g, us, [None], reps).operator()


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
        spectra = _grouped(np.linalg.eigvalsh(whitened), grouping_tol)
        for n, data in zip(np.flatnonzero(definite).tolist(), spectra):
            out[n] = data
    if not definite.all():
        rows = np.flatnonzero(~definite)
        values = np.linalg.eigvals(matrices[~definite])
        max_imag = np.abs(values.imag).max(axis=1)
        unreal = max_imag > realness_rtol * np.maximum(np.abs(values).max(axis=1), 1.0)
        for n, vals, imag in zip(rows[unreal], values[unreal], max_imag[unreal]):
            out[n] = SpectrumError(
                f"non-real eigenvalues on an indefinite domain: max |imag| = {imag:.3e}; "
                f"eigenvalues = {np.array2string(np.sort_complex(vals), precision=6)}"
            )
        for n, data in zip(rows[~unreal].tolist(), _grouped(values[~unreal].real, grouping_tol)):
            out[n] = data
    return out


def _grouped(values: np.ndarray, grouping_tol: float) -> list[SpectralData]:
    """SpectralData of each row of a stack of eigenvalues, sorted and grouped as one array.

    A value joins its left neighbour's group when within grouping_tol of it (a NaN gap splits).
    Rows that share a split pattern get their group means together: ``np.add.reduce`` along a
    row is ``np.mean``'s sum, in order from 0.0 below 8 values and pairwise from 8.
    """
    vals = np.sort(values, axis=1)
    split = ~(np.diff(vals, axis=1) <= grouping_tol)
    raw, width = split.tobytes(), split.shape[1]
    patterns: dict = {}  # the rows of each split pattern
    for n in range(len(vals)):
        patterns.setdefault(raw[n * width:(n + 1) * width], []).append(n)
    out: list = [None] * len(vals)
    for rows in patterns.values():
        pattern = split[rows[0]]
        edges = np.flatnonzero(np.concatenate(([True], pattern, [True])))[: vals.shape[1] + 1].tolist()
        groups = list(zip(edges[:-1], edges[1:]))
        block = vals[rows]
        means = np.empty((len(rows), len(groups)))
        for j, (a, b) in enumerate(groups):
            means[:, j] = np.add.reduce(block[:, a:b], axis=1) / (b - a)
        multiplicities = tuple(b - a for a, b in groups)
        for n, row in zip(rows, means.tolist()):
            out[n] = SpectralData(tuple(row), multiplicities, grouping_tol)
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
        out: dict = {"base": self.base.tolist()}
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
    for gi, (value, multiplicity) in enumerate(zip(reference.eigenvalues, reference.multiplicities)):
        values = [rec.spectrum.eigenvalues[gi] for rec in records]
        lo, hi = float(min(values)), float(max(values))
        report.groups.append(
            {"eigenvalue": value, "multiplicity": multiplicity, "min": lo, "max": hi, "spread": hi - lo}
        )
    spreads = [grp["spread"] for grp in report.groups]
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
    directions, which is what the constancy deciders need. Draws are tested in blocks, from
    ``count`` rows doubling to ``SAMPLER_BLOCK``, and accepted in stream order, at most
    ``max_tries * count`` in all: bit for bit the vectors of one draw at a time.
    """
    if kind not in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE):
        raise ValueError("kind must be spacelike or timelike")
    rng = np.random.default_rng(seed)
    want_positive = kind is CausalCharacter.SPACELIKE
    accepted, found, drawn, budget = [], 0, 0, max_tries * count
    while drawn < budget and found < count:
        Y = rng.standard_normal((min(budget - drawn, SAMPLER_BLOCK, max(count, drawn)), g.dim))
        drawn += len(Y)
        q = self_products(g, Y)
        keep = (np.abs(q) > 1e-8 * np.maximum(self_products(None, Y), 1.0)) & ((q > 0) == want_positive)
        accepted.append(Y[keep] / np.sqrt(np.abs(q[keep]))[:, None])
        found += int(keep.sum())
    if count < 1 or found < count:
        raise CausalCharacterError(
            f"could not sample {count} {kind.value} unit vectors (signature {g.signature})"
        )
    return np.concatenate(accepted)[:count]


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
    records = jacobi_stack(R, g, bases).records(grouping_tol)
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
    (the inverse of the congruence-to-sphere shift map); each record names its x.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    if abs(inner(g, zv, zv) + 1.0) > 1e-8:
        raise CausalCharacterError("null Osserman reference vector must be unit timelike")
    frame = orthonormalize(g, orthogonal_complement(g, [zv]))
    if not np.allclose(frame.gram, np.eye(frame.dim), atol=1e-10):
        raise CausalCharacterError("celestial sphere of z is not spacelike; g must be Lorentzian")
    sphere = sample_unit_sphere(g, frame, samples, seed)
    records = replace(null_jacobi_stack(R, g, zv + sphere), bases=sphere).records(grouping_tol)
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
    us = S.timelike_frame_vector + sphere
    return PhiNullReport(
        quotient=_phi_null_quotient(slot4_contraction(R, us), S.g, us, sphere, seed, tol, grouping_tol),
        direct=_phi_null_direct(slot4_contraction(R, sphere), S.g, sphere, seed, tol, grouping_tol),
    )


def _phi_null_quotient(
    RU: np.ndarray, g: ScalarProduct, us, sphere, seed: int, tol: float, grouping_tol: float
) -> DecisionReport:
    """The quotient path on the phi-null congruence us = xi_1 + sphere, from its slot-4
    contraction RU; each record names its sphere point."""
    records = replace(_null_jacobi_stack(RU, g, us), bases=sphere).records(grouping_tol)
    return decide_constancy("phi-null-osserman[quotient]", records, seed, tol, grouping_tol)


def _phi_null_direct(
    RX: np.ndarray, g: ScalarProduct, sphere, seed: int, tol: float, grouping_tol: float
) -> DecisionReport:
    """The direct path on the phi-celestial sphere, from its slot-4 contraction RX."""
    records = _jacobi_stack(RX, g, sphere).records(grouping_tol)
    return decide_constancy("phi-null-osserman[direct]", records, seed, tol, grouping_tol)
