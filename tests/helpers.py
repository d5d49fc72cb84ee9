"""Shared test utilities: independent oracles and randomized structure generators.

The brute-force oracles below deliberately avoid the package's operator
pipelines: bilinear forms are contracted directly from the component arrays
with one einsum, complements come from raw SVD calls, and eigenvalues from
plain numpy. Engine results are compared against these, never against
themselves.
"""

from __future__ import annotations

import numpy as np

from phinull.gff import GffStructure, canonical_structure
from phinull.jacobi import DEFAULT_GROUPING_TOL, REALNESS_RTOL, SampleRecord, SpectralData, _records
from phinull.linalg import (
    NULL_ATOL,
    CausalCharacter,
    CausalCharacterError,
    DegenerateSubspaceError,
    ScalarProduct,
    SubspaceBasis,
    inner,
    self_products,
)


def conjugated_structure(n: int, s: int, seed: int, scale: float = 0.3) -> GffStructure:
    """A valid structure in generic coordinates: the canonical one pushed
    through a random well-conditioned change of basis."""
    S = canonical_structure(n, s)
    m = S.dim
    rng = np.random.default_rng(seed)
    L = np.eye(m) + scale * rng.standard_normal((m, m))
    Linv = np.linalg.inv(L)
    return GffStructure(
        n=n,
        s=s,
        g=ScalarProduct.from_matrix(L.T @ S.g.components @ L),
        phi=Linv @ S.phi @ L,
        xi=(Linv @ S.xi.T).T,
        eta=S.eta @ L,
        epsilon=S.epsilon.copy(),
    )


def bf_form_matrix(Rcomp: np.ndarray, basis: np.ndarray, z: np.ndarray) -> np.ndarray:
    """F[i, j] = R(b_i, z, b_j, z), contracted directly from components."""
    return np.einsum("abcd,ia,b,jc,d->ij", Rcomp, basis, z, basis, z)


def bf_transfer_form(Rcomp: np.ndarray, G: np.ndarray, phi: np.ndarray, V: np.ndarray, x: np.ndarray,
                     D: np.ndarray) -> np.ndarray:
    """B[i, j] = g(Rstar_x(d_j), d_i) = R(x, d_j, x, d_i) + 2 g(A_x d_j, A_x d_i) - g(A_d_j x, A_x d_i)
    on the rows d of D, contracted directly from components, with O'Neill's A_X Y = c(X, Y) V,
    c(X, Y) = -g(X, phi Y), written out from G, phi and the vertical sum V."""
    a = -np.einsum("a,ab,bc,ic->i", x, G, phi, D)  # c(x, d_i)
    b = -np.einsum("ia,ab,bc,c->i", D, G, phi, x)  # c(d_i, x)
    jacobi_form = np.einsum("abcd,a,jb,c,id->ij", Rcomp, x, D, x, D)  # R(x, d_j, x, d_i)
    return jacobi_form + (V @ G @ V) * (2.0 * np.outer(a, a) - np.outer(a, b))


def bf_perp_basis(G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows spanning {y : y . G z = 0} via raw SVD."""
    row = (G @ z)[None, :]
    _, _, vh = np.linalg.svd(row)
    return vh[1:]


def bf_jacobi_spectrum(Rcomp: np.ndarray, G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the classical Jacobi operator of z, brute force."""
    basis = bf_perp_basis(G, z)
    gram = basis @ G @ basis.T
    form = bf_form_matrix(Rcomp, basis, z)
    values = np.linalg.eigvals(np.linalg.inv(gram) @ form)
    assert np.abs(values.imag).max() < 1e-8
    return np.sort(values.real)


def bf_null_jacobi_spectrum(Rcomp: np.ndarray, G: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the quotient Jacobi operator of a null u, brute force."""
    perp = bf_perp_basis(G, u)
    gram = perp @ G @ perp.T
    w, V = np.linalg.eigh(gram)
    keep = np.abs(w) > 1e-9 * np.abs(w).max()
    assert int(np.sum(~keep)) == 1
    reps = V[:, keep].T @ perp
    form = bf_form_matrix(Rcomp, reps, u)
    gbar = reps @ G @ reps.T
    values = np.linalg.eigvals(np.linalg.inv(gbar) @ form)
    assert np.abs(values.imag).max() < 1e-10
    return np.sort(values.real)


def random_unit_spacelike(g: ScalarProduct, rng: np.random.Generator) -> np.ndarray:
    """One unit spacelike vector by rejection."""
    while True:
        y = rng.standard_normal(g.dim)
        q = float(y @ g.components @ y)
        if q > 1e-6:
            return y / np.sqrt(q)


def sample_unit_causal_loop(g: ScalarProduct, kind: CausalCharacter, count: int, seed: int) -> np.ndarray:
    """Unit vectors of one causal kind by rejecting Gaussian draws, one at a time.

    Normalized Gaussians of the right kind have unbounded Euclidean norm, unlike the
    engine's boost-window draws; the round-off test uses them for large-norm bases."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200 * count):
        y = rng.standard_normal(g.dim)
        q = float(y @ (g.components @ y))
        if abs(q) <= 1e-8 * max(float(y @ y), 1.0):
            continue
        if (q > 0) == (kind is CausalCharacter.SPACELIKE):
            out.append(y / np.sqrt(abs(q)))
            if len(out) == count:
                return np.array(out)
    raise CausalCharacterError(
        f"could not sample {count} {kind.value} unit vectors (signature {g.signature})"
    )


def spectral_groups_loop(values, grouping_tol: float) -> tuple[tuple, tuple]:
    """(group means, multiplicities) of the sorted values, grouped one value at a time:
    a value joins the current group when within grouping_tol of the previous one."""
    groups: list[list[float]] = []
    for v in np.sort(np.asarray(values, dtype=float)):
        if groups and v - groups[-1][-1] <= grouping_tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return tuple(float(np.mean(grp)) for grp in groups), tuple(len(grp) for grp in groups)


def stack_records(stack, grouping_tol: float = DEFAULT_GROUPING_TOL) -> list[SampleRecord]:
    """The rows of an operator stack's spectra table (``OperatorStack._table``) as records, one
    per base: its spectrum, or the error that prevented it."""
    return _records(stack._table(grouping_tol))


def records_loop(stack, grouping_tol: float) -> list[SampleRecord]:
    """The records of an operator stack one base at a time, each operator's eigenvalues taken on
    its own and grouped by ``spectral_groups_loop``: the reference that the stack's spectra table
    (``OperatorStack._table``, one eigen call per kind of domain and one grouping per stack) must
    match row for row, bit for bit, error strings included."""
    operators = zip(stack.matrices, stack.signs)
    out = []
    for base, error in zip(stack.bases, stack.errors):
        if error is not None:
            out.append(SampleRecord(base, None, str(error)))
            continue
        matrix, signs = next(operators)
        if (signs > 0).all():
            values = np.linalg.eigvalsh(matrix)
        else:
            values = np.linalg.eigvals(matrix)
            imag = np.abs(values.imag).max()
            if imag > REALNESS_RTOL * max(np.abs(values).max(), 1.0):
                listed = ", ".join(f"{v:.6g}" for v in np.sort_complex(values).tolist())
                out.append(SampleRecord(base, None, f"non-real eigenvalues on an indefinite domain: "
                                                    f"max |imag| = {imag:.3e}; eigenvalues = [{listed}]"))
                continue
            values = values.real
        out.append(SampleRecord(base, SpectralData(*spectral_groups_loop(values, grouping_tol))))
    return out


def decide_constancy_loop(records: list[SampleRecord], tol: float) -> dict:
    """The constancy decision on a list of records, one record at a time: passed, groups and
    failure as ``jacobi.decide_constancy`` gives them on the same spectra as a table, and the
    rows of its report as ``SampleRecord.to_dict`` writes them."""
    out = {"passed": False, "groups": [], "failure": None, "rows": [rec.to_dict() for rec in records]}
    bad = next((i for i, rec in enumerate(records) if rec.error is not None), None)
    if bad is not None:
        out["failure"] = f"sample {bad}: {records[bad].error}"
        return out
    pattern = records[0].spectrum.multiplicities
    bad = next((i for i, rec in enumerate(records) if rec.spectrum.multiplicities != pattern), None)
    if bad is not None:
        out["failure"] = (
            f"multiplicity pattern differs at sample {bad}: {records[bad].spectrum.multiplicities} vs {pattern}"
        )
        return out
    means = np.array([rec.spectrum.eigenvalues for rec in records])
    lo, hi = means.min(axis=0), means.max(axis=0)
    spreads = hi - lo
    out["groups"] = [
        {"eigenvalue": value, "multiplicity": multiplicity, "min": a, "max": b, "spread": b - a}
        for value, multiplicity, a, b in zip(means[0].tolist(), pattern, lo.tolist(), hi.tolist())
    ]
    gi = int(np.argmax(spreads))
    if not spreads[gi] < tol:
        out["failure"] = f"group {gi} eigenvalue spread {spreads[gi]:.3e} >= tol {tol:.1e}"
        return out
    out["passed"] = True
    return out


def constant_curvature_distance(Rcomp: np.ndarray, G: np.ndarray) -> float:
    """``‖R − cR₁‖ / ‖R‖`` in the Frobenius norm, with ``R₁_abcd = g_ad g_bc − g_ac g_bd`` and c the
    projection of R on R₁: 0 exactly when R has constant sectional curvature, which for a
    Lorentzian tensor is the exact Osserman criterion (timelike and spacelike alike). It reads 0
    when R = 0."""
    R1 = np.einsum("ad,bc->abcd", G, G) - np.einsum("ac,bd->abcd", G, G)
    norm = np.linalg.norm(Rcomp)
    if norm == 0.0:
        return 0.0
    c = np.vdot(R1, Rcomp) / np.vdot(R1, R1)
    return float(np.linalg.norm(Rcomp - c * R1) / norm)


def exact(value):
    """``value`` with every float as its hex text and every array as its dtype, shape and bytes,
    so that ``==`` on the results compares bit for bit (and a NaN equals itself)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(exact(item) for item in value)
    if isinstance(value, SampleRecord):
        return (exact(value.base), value.error, value.spectrum and exact(
            (value.spectrum.eigenvalues, value.spectrum.multiplicities)))
    return value


def horizontal_draw(F, rng: np.random.Generator) -> np.ndarray:
    """A random vector in the horizontal space of a fibration model."""
    coeffs = rng.standard_normal(F.horizontal.dim)
    return coeffs @ F.horizontal.vectors


def expected_multiset(values, expected: dict, tol: float = 1e-8) -> bool:
    """Check a sorted eigenvalue array against {value: multiplicity}."""
    target = np.sort(np.concatenate([[v] * k for v, k in expected.items()]))
    values = np.asarray(values, dtype=float)
    return values.shape == target.shape and bool(np.abs(values - target).max() < tol)


def orthonormalize_loop(g: ScalarProduct, basis: SubspaceBasis) -> SubspaceBasis:
    """Indefinite Gram-Schmidt one ``inner`` call at a time, in the given order: the reference
    that ``linalg.orthonormalize``, which forms each G u once, must match bit for bit, pivots,
    signs and error messages included."""
    out: list[np.ndarray] = []
    signs: list[float] = []
    gmax = max(g.max_norm, 1.0)
    for row in basis.vectors:
        v = row.astype(float).copy()
        for u, sign in zip(out, signs):
            v -= sign * inner(g, v, u) * u
        q = inner(g, v, v)
        scale = gmax * max(float(v @ v), 1.0)
        if abs(q) <= NULL_ATOL * scale:
            raise DegenerateSubspaceError(
                f"degenerate pivot at position {len(out)}: |g(v,v)| = {abs(q):.3e}"
            )
        out.append(v / np.sqrt(abs(q)))
        signs.append(1.0 if q > 0.0 else -1.0)
    return SubspaceBasis.from_vectors(g, np.array(out))


def causal_characters_loop(g: ScalarProduct, xs) -> list[CausalCharacter]:
    """Each row's causal character looked up by its enum value, one row at a time, on the rows as
    given: the reference that ``linalg.causal_characters`` (integer codes, rows scaled by powers
    of two) must match member for member wherever nothing overflows or underflows."""
    X = np.asarray(xs, dtype=float)
    q = self_products(g, X)
    null = np.abs(q) <= NULL_ATOL * g.max_norm * (X * X).sum(axis=1)
    conditions = [~X.any(axis=1), null, q < 0.0]
    return [CausalCharacter(kind) for kind in np.select(conditions, ["zero", "null", "timelike"], "spacelike")]
