"""Jacobi operators, null quotients, spectra, and the condition deciders."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bf_form_matrix,
    bf_jacobi_spectrum,
    bf_null_jacobi_spectrum,
    conjugated_structure,
    expected_multiset,
    random_unit_spacelike,
    sample_unit_causal_loop,
    spectral_groups_loop,
)
from phinull.curvature import (
    constant_curvature,
    operator_apply,
    phi_model_family,
    random_algebraic_curvature,
)
from phinull.gff import canonical_structure, sample_celestial, sample_phi_celestial
from phinull.io import generate_instance
from phinull.jacobi import (
    BOOST_WINDOW,
    JacobiOperator,
    SpectralData,
    SpectrumError,
    _grouped,
    _spectra_table,
    decide_constancy,
    is_null_osserman_wrt,
    is_osserman_at,
    is_phi_null_osserman_wrt,
    jacobi,
    jacobi_covectors,
    jacobi_stack,
    null_jacobi,
    null_jacobi_stack,
    null_quotient,
    null_quotient_from_representatives,
    reflected_domains,
    sample_null_vectors,
    sample_unit_causal,
    slot4_contraction,
    spectrum,
)
from phinull.linalg import (
    CausalCharacter,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    causal_characters,
    orthogonal_complement,
    orthonormal_frame,
)

# -- classical operator -------------------------------------------------------

def test_space_form_jacobi_is_scalar():
    g = ScalarProduct.minkowski(5)
    R = constant_curvature(g, 2.0)
    z = np.eye(5)[3]
    op = jacobi(R, g, z)
    assert np.allclose(op.matrix, 2.0 * np.eye(4), atol=1e-12)
    assert op.self_adjointness_residual < 1e-12


def test_zero_curvature_gives_zero_operator():
    g = ScalarProduct.minkowski(4)
    R = constant_curvature(g, 0.0)
    op = jacobi(R, g, np.eye(4)[1])
    assert np.abs(op.matrix).max() == 0.0


def test_jacobi_rejects_null_and_zero_base():
    g = ScalarProduct.minkowski(4)
    R = constant_curvature(g, 1.0)
    with pytest.raises(CausalCharacterError):
        jacobi(R, g, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(CausalCharacterError):
        jacobi(R, g, np.zeros(4))


def test_jacobi_self_adjoint_for_random_tensors():
    g = ScalarProduct.minkowski(5)
    rng = np.random.default_rng(0)
    for seed in range(10):
        R = random_algebraic_curvature(g, seed=seed)
        z = random_unit_spacelike(g, rng)
        op = jacobi(R, g, z)
        assert op.self_adjointness_residual < 1e-9


def test_jacobi_scale_covariance():
    # the reflection scales its base to unit length, so 2z gets z's domain row for row, and the
    # operator R(., 2z) 2z on it is exactly 4 times z's
    g = ScalarProduct.minkowski(5)
    R = random_algebraic_curvature(g, seed=1)
    rng = np.random.default_rng(4)
    timelike = sample_unit_causal(g, CausalCharacter.TIMELIKE, 1, seed=3)[0]
    for z in (np.eye(5)[2], random_unit_spacelike(g, rng), timelike):
        op, scaled = jacobi(R, g, z), jacobi(R, g, 2.0 * z)
        assert np.array_equal(scaled.domain.vectors, op.domain.vectors)
        assert np.array_equal(scaled.matrix, 4.0 * op.matrix)


def test_phi_model_direct_spectrum_against_oracle():
    S = canonical_structure(2, 3)
    R = phi_model_family(S, 1.0, 1.0)
    for x in sample_phi_celestial(S, 50, seed=0):
        engine = spectrum(jacobi(R, S.g, x))
        oracle = bf_jacobi_spectrum(R.components, S.g.components, x)
        assert expected_multiset(oracle, {1.0: 5, 4.0: 1}, tol=1e-9)
        assert engine.multiplicities == (5, 1)
        assert np.abs(np.array(engine.eigenvalues) - [1.0, 4.0]).max() < 1e-9


# -- null quotient ------------------------------------------------------------

def test_null_quotient_minkowski_example():
    g = ScalarProduct.minkowski(4)
    u = np.array([1.0, 1.0, 0.0, 0.0])
    q = null_quotient(g, u)
    assert q.rep_basis.dim == 2
    assert q.gbar_positive_definite
    assert np.allclose(q.gbar, np.eye(2), atol=1e-12)
    # representatives live in the span of e2, e3
    assert np.abs(q.rep_basis.vectors[:, :2]).max() < 1e-12


def test_null_quotient_requires_null_vector():
    g = ScalarProduct.minkowski(4)
    with pytest.raises(CausalCharacterError):
        null_quotient(g, np.eye(4)[0])


def test_null_quotient_indefinite_signature_reported():
    g = ScalarProduct.diagonal([-1.0, -1.0, 1.0, 1.0])
    u = np.array([1.0, 0.0, 1.0, 0.0])
    q = null_quotient(g, u)
    assert not q.gbar_positive_definite
    assert q.gbar_signature == (1, 1)


def test_representative_shift_leaves_everything_unchanged():
    g = ScalarProduct.minkowski(4)
    R = random_algebraic_curvature(g, seed=2)
    u = np.array([1.0, 0.0, 1.0, 0.0])
    q = null_quotient(g, u)
    shifted = null_quotient_from_representatives(g, u, q.rep_basis.vectors + u)
    assert np.abs(shifted.gbar - q.gbar).max() < 1e-12
    m0 = null_jacobi(R, g, u, quotient=q).matrix
    m1 = null_jacobi(R, g, u, quotient=shifted).matrix
    assert np.abs(m1 - m0).max() < 1e-10


def test_representatives_are_refused_unless_they_span_the_quotient():
    g = ScalarProduct.minkowski(4)
    u = np.array([1.0, 0.0, 1.0, 0.0])
    e = np.eye(4)
    with pytest.raises(ValueError, match="expected 2 representatives, got 1"):
        null_quotient_from_representatives(g, u, e[1:2])
    with pytest.raises(ValueError, match="orthogonal to u"):
        null_quotient_from_representatives(g, u, [e[1], e[0]])  # g(e_0, u) = -1
    with pytest.raises(ValueError, match="degenerate modulo span"):
        null_quotient_from_representatives(g, u, [e[1], u])  # u is orthogonal to u, and zero in the quotient


def _phi_null_pair():
    S = canonical_structure(2, 2)
    us = S.timelike_frame_vector + sample_phi_celestial(S, 2, seed=0)
    return S, phi_model_family(S, 0.5, 1.5), us[0], us[1]


def test_null_jacobi_with_a_quotient_of_another_vector_is_refused():
    # the operator of the quotient's vector came back, with no error
    S, R, u1, u2 = _phi_null_pair()
    with pytest.raises(ValueError, match="differs from the quotient's null vector"):
        null_jacobi(R, S.g, u2, quotient=null_quotient(S.g, u1))
    with pytest.raises(ValueError, match="differs from the quotient's null vector"):
        null_jacobi(R, S.g, u1[:-1], quotient=null_quotient(S.g, u1))


def test_null_jacobi_with_its_own_quotient_is_the_quotient_operator():
    S, R, u1, _ = _phi_null_pair()
    q = null_quotient(S.g, u1)
    op = null_jacobi(R, S.g, u1, quotient=q)
    assert np.array_equal(op.base, q.u)
    assert np.array_equal(op.matrix, null_jacobi(R, S.g, u1).matrix)
    # a u within MEMBERSHIP_RTOL of q.u gets the quotient's own operator
    assert np.array_equal(null_jacobi(R, S.g, u1 * (1 + 1e-12), quotient=q).matrix, op.matrix)


def test_null_jacobi_vanishes_for_space_forms():
    g = ScalarProduct.minkowski(5)
    for c in (-1.0, 3.0):
        R = constant_curvature(g, c)
        op = null_jacobi(R, g, np.array([1.0, 0.0, 0.0, 0.0, 1.0]))
        assert np.abs(op.matrix).max() < 1e-12


def test_null_jacobi_matches_oracle_on_phi_model():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 0.5, 1.5)
    for x in sample_phi_celestial(S, 20, seed=1):
        u = S.xi[0] + x
        engine = spectrum(null_jacobi(R, S.g, u))
        oracle = bf_null_jacobi_spectrum(R.components, S.g.components, u)
        # {0 with multiplicity 2n+s-3 = 3, 3b = 4.5 simple}
        assert expected_multiset(oracle, {0.0: 3, 4.5: 1}, tol=1e-9)
        assert engine.multiplicities == (3, 1)
        assert np.abs(np.array(engine.eigenvalues) - [0.0, 4.5]).max() < 1e-9


# -- stacked operators against the per-vector assembly -------------------------

def _per_vector_matrix(R, g, base, rows):
    """The operator's matrix on the given domain rows, one operator_apply per row, raised through g^-1."""
    domain = SubspaceBasis(vectors=rows, gram=rows @ g.components @ rows.T)
    return domain.coordinates(g, np.array([operator_apply(R, g, base, y, base) for y in rows]))


def _stack_case(name):
    S = conjugated_structure(2, 2, seed=31) if name == "conjugated" else canonical_structure(2, 2)
    R = {
        "constant": lambda: constant_curvature(S.g, 1.5),
        "phi_model": lambda: phi_model_family(S, 0.5, 1.5),
        "random": lambda: random_algebraic_curvature(S.g, seed=3),
        "conjugated": lambda: phi_model_family(S, -0.5, 2.0),
    }[name]()
    return S, R


@pytest.mark.parametrize("name", ["constant", "phi_model", "random", "conjugated"])
def test_stacks_match_per_vector_assembly(name):
    S, R = _stack_case(name)
    G = S.g.components
    xs = sample_phi_celestial(S, 8, seed=2)
    zs = np.vstack([xs, sample_unit_causal(S.g, CausalCharacter.TIMELIKE, 4, seed=2)])
    us = S.xi[0] + xs
    for build, bases, corank in ((jacobi_stack, zs, 1), (null_jacobi_stack, us, 2)):
        stack = build(slot4_contraction(R, bases), S.g, bases)
        assert stack.errors == [None] * len(bases)
        for base, rows, matrix in zip(bases, stack.domains, stack.matrices):
            # the domain: S.dim - corank independent rows, all g-orthogonal to the base
            assert rows.shape == (S.dim - corank, S.dim) and np.linalg.matrix_rank(rows) == S.dim - corank
            assert np.abs(rows @ G @ base).max() < 1e-12 * max(1.0, np.abs(base).max())
            oracle = _per_vector_matrix(R, S.g, base, rows)
            assert np.abs(matrix - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())


def test_stacks_report_a_bad_base_for_that_sample_only():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 0.5, 1.5)
    xs = sample_phi_celestial(S, 5, seed=4)
    us = S.xi[0] + xs
    cases = (
        (jacobi_stack, xs, us, "classical Jacobi operator needs a non-null base, got null"),
        (null_jacobi_stack, us, xs, "null quotient requires a null vector"),
    )
    for build, good, bad, message in cases:
        clean = build(slot4_contraction(R, good), S.g, good).records()
        bases = np.vstack([good[:2], bad[2:3], good[3:]])
        mixed = build(slot4_contraction(R, bases), S.g, bases).records()
        assert [rec.error for rec in mixed] == [None, None, message, None, None]
        assert mixed[2].spectrum is None
        for n in (0, 1, 3, 4):
            assert mixed[n].spectrum == clean[n].spectrum
        table = build(slot4_contraction(R, bases), S.g, bases)._table(1e-6)
        assert decide_constancy("c", table, 0, 1e-8, 1e-6).failure == f"sample 2: {message}"


def test_timelike_round_off_no_worse_than_per_vector_assembly():
    # Dim-11 constant curvature on the rejection draws of helpers.sample_unit_causal_loop:
    # large-norm unit timelike bases (Euclidean norms up to ~114) have domain Grams with
    # condition numbers up to 1e4, so round-off shows in the spread. The engine's own draws
    # stay below norm ~3.2, where both routes sit at the same round-off.
    # Single seeds swing either way, so the routes are compared seed by seed.
    inst = generate_instance("constant", 4, 3)
    R, g = inst.curvature, inst.structure.g
    ratios = []
    for seed in range(20):
        bases = sample_unit_causal_loop(g, CausalCharacter.TIMELIKE, 64, seed)
        stack = jacobi_stack(slot4_contraction(R, bases), g, bases)
        report = decide_constancy("stacked", stack._table(1e-6), seed, 1e-8, 1e-6)
        assert report.passed, (seed, report.failure)
        # the per-vector assembly on the same bases, each diagonalized by scipy on its own pencil
        spectra = []
        for z in bases:
            D = orthogonal_complement(g, [z]).vectors
            gram = D @ g.components @ D.T
            A = gram @ _per_vector_matrix(R, g, z, D)
            spectra.append(scipy.linalg.eigh(0.5 * (A + A.T), gram, eigvals_only=True))
        table = _spectra_table(bases, [None] * len(bases), np.array(spectra), 1e-6)
        per_vector = decide_constancy("per-vector", table, seed, 1e-8, 1e-6)
        assert per_vector.passed, (seed, per_vector.failure)
        ratios.append(report.groups[0]["spread"] / per_vector.groups[0]["spread"])
    # paired by seed: both routes see the same samples
    assert np.median(ratios) <= 1.0, sorted(ratios)


# -- reflection domains -------------------------------------------------------

def _reflection_case(conjugation: int, kind: str, t: float, seed: int, axis: bool):
    """(structure, base) on a canonical (conjugation 0) or conjugated frame: a unit x of the kind
    on rapidity t, or a null u = xi_1 + s; ``axis`` puts x on, or s along, a frame axis."""
    S = canonical_structure(2, 3) if conjugation == 0 else conjugated_structure(2, 3, seed=conjugation)
    frame, signs = orthonormal_frame(S.g)
    timelike, spacelike = frame[signs < 0], frame[signs > 0]
    rng = np.random.default_rng(seed)
    u, v = (w / np.linalg.norm(w) for w in (rng.standard_normal(len(E)) for E in (timelike, spacelike)))
    if axis:
        (u, v), t = (np.eye(len(E))[seed % len(E)] for E in (timelike, spacelike)), 0.0
    if kind == "null":
        return S, u @ timelike + v @ spacelike
    lead, other = (u @ timelike, v @ spacelike) if kind == "timelike" else (v @ spacelike, u @ timelike)
    return S, np.cosh(t) * lead + np.sinh(t) * other


def _oracle_spectrum(R, G, base, kind):
    """Sorted eigenvalues on an SVD complement (x-perp, or a null quotient), independent of the engine."""
    if kind == "null":
        return bf_null_jacobi_spectrum(R.components, G, base)
    D = orthogonal_complement(ScalarProduct.from_matrix(G), [base]).vectors
    F, gram = bf_form_matrix(R.components, D, base), D @ G @ D.T
    if kind == "timelike":  # a positive definite domain
        return scipy.linalg.eigh(F, gram, eigvals_only=True)
    values = np.linalg.eigvals(np.linalg.solve(gram, F))
    assert np.abs(values.imag).max() < 1e-10
    return np.sort(values.real)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.sampled_from(["timelike", "spacelike", "null"]),
       st.floats(-BOOST_WINDOW, BOOST_WINDOW), st.integers(0, 2**16), st.booleans())
@example(0, "spacelike", 5e-324, 0, False)
@example(0, "timelike", 5e-324, 0, False)
def test_reflected_domains_are_orthonormal_complements_with_oracle_spectra(conjugation, kind, t, seed, axis):
    S, base = _reflection_case(conjugation, kind, t, seed, axis)
    G = S.g.components
    D, signs = reflected_domains(S.g, orthonormal_frame(S.g), base[None], null=kind == "null")
    D, signs = D[0], signs[0]
    corank = 2 if kind == "null" else 1
    assert D.shape == (S.dim - corank, S.dim)
    # g-orthonormal with the expected signs, and g-orthogonal to the base, at round-off of their scale
    # (a subnormal scale, as at t = 5e-324, would make the bound underflow to 0)
    scale = np.maximum(np.abs(D) @ np.abs(G) @ np.abs(D).T, np.finfo(float).tiny)
    assert (np.abs(D @ G @ D.T - np.diag(signs)) <= 1e-14 * S.dim * scale).all()
    scale = np.maximum(np.abs(D) @ np.abs(G) @ np.abs(base), np.finfo(float).tiny)
    assert (np.abs(D @ G @ base) <= 1e-14 * S.dim * scale).all()
    expected = {"timelike": [1.0] * (S.dim - 1), "spacelike": [-1.0] + [1.0] * (S.dim - 2),
                "null": [1.0] * (S.dim - 2)}[kind]
    assert sorted(signs) == expected
    # each stack's spectra against the oracle; a random tensor only on definite domains, where
    # its spectra are real
    families = [phi_model_family(S, 0.5, 1.5)]
    if kind != "spacelike":
        families.append(random_algebraic_curvature(S.g, seed=seed))
    for R in families:
        build = null_jacobi_stack if kind == "null" else jacobi_stack
        stack = build(slot4_contraction(R, base[None]), S.g, base[None])
        engine, oracle = stack.records()[0].spectrum, _oracle_spectrum(R, G, base, kind)
        grouped = SpectralData.from_values(oracle)
        assert engine.multiplicities == grouped.multiplicities
        # group means, as the deciders compare them, at the round-off of forms summed over dim
        # terms on a base of Euclidean norm |x|
        scale = max(1.0, np.abs(oracle).max()) * max(1.0, base @ base) * S.dim
        assert np.abs(np.subtract(engine.eigenvalues, grouped.eigenvalues)).max() <= 1e-12 * scale


# -- contraction kernels ------------------------------------------------------

def _assert_einsum_oracle(got, subscripts, *operands):
    """got equals ``np.einsum(subscripts, *operands)`` entrywise to 1e-14 of the same sum of |terms|."""
    oracle = np.einsum(subscripts, *operands)
    scale = np.einsum(subscripts, *(np.abs(a) for a in operands))
    assert got.shape == oracle.shape
    assert (np.abs(got - oracle) <= 1e-14 * np.maximum(scale, np.finfo(float).tiny)).all()


@pytest.mark.parametrize("count", [0, 1, 64])
def test_contraction_kernels_match_einsum(count):
    # the slot-4 and covector kernels are stacked BLAS products; einsum is the oracle
    for m in range(2, 25):
        g = ScalarProduct.diagonal([-1.0] + [1.0] * (m - 1))
        R = random_algebraic_curvature(g, seed=m, scale=3.0)
        rng = np.random.default_rng(m)
        wide = rng.standard_normal((2 * count, m + 1))
        cases = {
            "contiguous": (rng.standard_normal((count, m)), rng.standard_normal((count, m - 1, m))),
            # strided bases and rows: every other row and a column slice of a wider array
            "strided": (wide[::2, 1:], rng.standard_normal((count, 2 * m, m))[:, ::2]),
            # one row per base, as the hypothesis residuals and the remarks pass phi x
            "one-row": (rng.standard_normal((count, m)), wide[1::2, None, :m]),
        }
        for name, (xs, D) in cases.items():
            RX = slot4_contraction(R, xs)
            _assert_einsum_oracle(RX, "abcd,nd->nabc", R.components, xs)
            _assert_einsum_oracle(jacobi_covectors(RX, xs, D), "nabc,nkc,nb->nak", RX, D, xs)
            # a selection of rows, as the deciders pass the error-free bases' RX[ok]
            ok = list(range(0, count, 3))
            _assert_einsum_oracle(
                jacobi_covectors(RX[ok], xs[ok], D[ok]), "nabc,nkc,nb->nak", RX[ok], D[ok], xs[ok]
            )


# -- spectra ------------------------------------------------------------------

def _operator_from(matrix, signs):
    # an operator on coordinate rows, g-orthonormal with the given signs: its Gram is diag(signs)
    signs = np.asarray(signs, dtype=float)
    dim = matrix.shape[0] + 1
    basis = SubspaceBasis(np.eye(dim)[: matrix.shape[0]], np.diag(signs))
    return JacobiOperator(
        base=np.eye(dim)[-1],
        domain=basis,
        matrix=np.asarray(matrix, dtype=float),
        signs=signs,
    )


def test_spectrum_scalar_matrix():
    op = _operator_from(3.0 * np.eye(5), np.ones(5))
    data = spectrum(op)
    assert data.eigenvalues == (3.0,)
    assert data.multiplicities == (5,)


def test_spectrum_grouping_contract():
    op = _operator_from(np.diag([1.0, 1.0, 4.0]), np.ones(3))
    assert spectrum(op, grouping_tol=1e-6).multiplicities == (2, 1)
    op = _operator_from(np.diag([1.0, 1.0 + 1e-9, 4.0]), np.ones(3))
    data = spectrum(op, grouping_tol=1e-6)
    assert data.multiplicities == (2, 1)
    assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)


def test_spectral_data_counts_dimension():
    data = SpectralData.from_values([2.0, 1.0, 1.0 + 1e-9, 5.0], grouping_tol=1e-6)
    assert data.dimension == 4
    assert data.multiplicities == (2, 1, 1)


def test_spectrum_complex_eigenvalues_reported():
    # rotation-like operator, self-adjoint w.r.t. an indefinite Gram
    op = _operator_from(np.array([[0.0, 1.0], [-1.0, 0.0]]), [-1.0, 1.0])
    assert op.self_adjointness_residual < 1e-12
    with pytest.raises(SpectrumError):
        spectrum(op)


def test_spectrum_error_lists_eigenvalues_sorted():
    # the same operator in reversed coordinates (matrix conjugated, signs permuted): LAPACK
    # returns its eigenvalues in another order, the message must not
    signs = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
    S = np.random.default_rng(2).standard_normal((5, 5))
    M, P = signs[:, None] * (S + S.T), np.eye(5)[::-1]
    messages = []
    for matrix, eta in ((M, signs), (P @ M @ P.T, P @ signs)):
        with pytest.raises(SpectrumError) as info:
            spectrum(_operator_from(matrix, eta))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_spectrum_error_message_is_one_line_with_every_eigenvalue(monkeypatch):
    # eigenvalues +-i from the rotation block and 1..10: wide enough that numpy's array
    # printer, which the message must not need, would wrap the list at 75 columns
    matrix = np.zeros((12, 12))
    matrix[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    matrix[2:, 2:] = np.diag(np.arange(1.0, 11.0))
    signs = [-1.0] + [1.0] * 11

    def refuse(*args, **kwargs):
        raise AssertionError("np.array2string called")

    monkeypatch.setattr(np, "array2string", refuse)
    with pytest.raises(SpectrumError) as info:
        spectrum(_operator_from(matrix, signs))
    message = str(info.value)
    assert "\n" not in message
    listed = message.split("eigenvalues = [", 1)[1]
    assert listed.endswith("]")
    values = [complex(text.replace(" ", "")) for text in listed[:-1].split(", ")]
    assert len(values) == matrix.shape[0]
    assert np.allclose(np.sort_complex(np.round(values, 9)), [-1j, 1j] + list(range(1, 11)))


@pytest.mark.parametrize(
    "values",
    [
        [3.0, -1.0, 2.5, 0.0, 7.0, -4.0, 1.0, 9.0, 6.0, -2.0],  # ten singletons
        [-0.0],
        [-0.0, -0.0, 5.0],
        1.0 + 1e-8 * np.random.default_rng(0).standard_normal(200),  # one group, pairwise sum
        np.concatenate(
            [c + 1e-8 * np.random.default_rng(4 + k).standard_normal(size)
             for k, (c, size) in enumerate([(-3.0, 1), (-1.0, 3), (0.1, 7), (0.3, 8), (0.7, 9), (2.0, 130)])]
        ),
        [],
    ],
    ids=["singletons", "negative-zero", "negative-zeros", "one-group-200", "mixed", "empty"],
)
def test_spectral_data_matches_one_value_at_a_time(values):
    data = SpectralData.from_values(values, grouping_tol=1e-6)
    means, multiplicities = spectral_groups_loop(values, grouping_tol=1e-6)
    assert data.multiplicities == multiplicities
    assert [float(v).hex() for v in data.eigenvalues] == [v.hex() for v in means]


GROUPING_TOL = 1e-6
# steps between sorted neighbours: inside a group (0, 1e-9, 3e-7, the tolerance itself), a gap, a NaN
_STEPS = st.sampled_from([0.0, -0.0, 1e-9, 3e-7, GROUPING_TOL, 2.5, 100.0, float("nan")])


@st.composite
def _eigenvalue_rows(draw, d: int) -> list:
    """A row of d values: free steps, blocks of 8, 128 or 129 values, one group, or NaNs."""
    kind = draw(st.sampled_from(["steps", "blocks", "one-group", "nan"]))
    value = draw(st.floats(-1e3, 1e3) | st.just(-0.0))
    if kind == "blocks":
        sizes: list = []
        while sum(sizes) < d:
            sizes.append(min(draw(st.sampled_from([1, 3, 8, 128, 129])), d - sum(sizes)))
        steps = [s for size in sizes for s in [2.5] + [1e-9] * (size - 1)][1:]
    elif kind == "one-group":
        steps = [1e-9] * (d - 1)
    else:
        steps = draw(st.lists(_STEPS, min_size=max(d - 1, 0), max_size=max(d - 1, 0)))
    row = [value]
    for step in steps:
        row.append(row[-1] + step)
    if kind == "nan" and d:
        row[draw(st.integers(0, d - 1))] = float("nan")
    return row[:d]


@st.composite
def _eigenvalue_stacks(draw) -> np.ndarray:
    d = draw(st.sampled_from([0, 1, 2, 7, 8, 9, 16, 128, 129, 130]))
    rows = draw(st.lists(_eigenvalue_rows(d), max_size=5))
    # rows that repeat a split pattern at other values share one block of group means
    rows += [[v + 0.5 for v in row] for row in rows[: draw(st.integers(0, len(rows)))]]
    return np.array(rows, dtype=float).reshape(len(rows), d)


@settings(max_examples=150, deadline=None)
@given(_eigenvalue_stacks())
def test_stacked_grouping_matches_one_value_at_a_time(stack):
    patterns = _grouped(stack, GROUPING_TOL)
    assert sorted(n for rows, _, _ in patterns for n in rows.tolist()) == list(range(len(stack)))
    assert len({pattern for _, pattern, _ in patterns}) == len(patterns)  # one block per pattern
    for rows, pattern, block in patterns:
        assert block.shape == (len(rows), len(pattern)) and block.dtype == np.float64
        for row, eigenvalues in zip(stack[rows], block.tolist()):
            means, multiplicities = spectral_groups_loop(row, GROUPING_TOL)
            assert pattern == multiplicities
            assert [v.hex() for v in eigenvalues] == [v.hex() for v in means]
            assert all(type(v) is float for v in SpectralData.from_values(row, GROUPING_TOL).eigenvalues)


def test_grouping_rows_with_infinities_raises_no_warning():
    # inf - inf is a NaN gap, which splits a group as any NaN gap does, with no numpy warning; the
    # loop reference and a bare np.diff do warn
    stack = np.array([[np.inf, np.inf, 1.0, 1.0], [-np.inf, -np.inf, np.inf, np.inf],
                      [2.0, np.inf, -np.inf, 2.0], [3.0, 3.0, np.inf, np.inf], [0.0, 0.5, 1.0, 1.5]])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        np.diff(np.sort(stack, axis=1), axis=1)
    with np.errstate(invalid="ignore"):
        expected = [spectral_groups_loop(row, 0.6) for row in stack]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        patterns = _grouped(stack, 0.6)
    assert sorted(n for rows, _, _ in patterns for n in rows.tolist()) == list(range(len(stack)))
    assert len(patterns) == 4  # rows 0 and 3 share (2, 1, 1)
    for rows, pattern, block in patterns:
        for n, means in zip(rows.tolist(), block.tolist()):
            assert (tuple(means), pattern) == expected[n]


@pytest.mark.xfail(strict=True, reason="chained grouping (ROADMAP, defects reproduced): a value joins its "
                   "left neighbour's group within the grouping tolerance, so a chain of close values "
                   "makes one group however wide; an XPASS means the defect is mended")
def test_a_group_is_no_wider_than_the_grouping_tolerance():
    # 1,112 eigenvalues 9e-7 apart form one group of multiplicity 1112 and width 1e-3 under the
    # default grouping tolerance 1e-6
    values = np.arange(1112) * 9e-7
    [(rows, pattern, means)] = _grouped(values[None], GROUPING_TOL)
    edges = np.cumsum((0, *pattern))
    widths = [values[b - 1] - values[a] for a, b in zip(edges[:-1], edges[1:])]
    assert max(widths) <= GROUPING_TOL, f"{len(pattern)} group(s) of widths up to {max(widths):.3e}"


def test_spectrum_reconstruction_residual():
    g = ScalarProduct.minkowski(6)
    R = random_algebraic_curvature(g, seed=4)
    z = np.eye(6)[0]  # timelike: positive definite domain
    op = jacobi(R, g, z)
    A = 0.5 * (op.domain.gram @ op.matrix + (op.domain.gram @ op.matrix).T)
    values, vectors = scipy.linalg.eigh(A, op.domain.gram)
    recon = vectors @ np.diag(values) @ np.linalg.inv(vectors)
    assert np.abs(recon - op.matrix).max() < 1e-8


def _spectrum_or_error(op):
    try:
        return spectrum(op), None
    except SpectrumError as exc:
        return None, str(exc)


def _skewed_quotient(g, u, seed):
    """The quotient of u through the representatives K reps + t u: K a random mix of a basis of
    the quotient, conditioned at most 4 (an orthogonal matrix, its columns scaled by 1/2 to 2),
    and t a random shift along u."""
    rng = np.random.default_rng(seed)
    reps = null_quotient(g, u).rep_basis.vectors
    Q, _ = np.linalg.qr(rng.standard_normal((len(reps), len(reps))))
    K = Q * rng.uniform(0.5, 2.0, len(reps))
    return null_quotient_from_representatives(g, u, K @ reps + rng.uniform(-2.0, 2.0) * u)


def _pencil(R, g, q):
    """The quotient's explicit pencil: the form R(r_i, u, r_j, u) and the Gram of its representatives."""
    reps = q.rep_basis.vectors
    return bf_form_matrix(R.components, reps, q.u), reps @ g.components @ reps.T


@pytest.mark.parametrize("seed", range(4))
def test_null_jacobi_on_skewed_representatives_matches_scipy_and_the_stack(seed):
    # a given quotient is made g-orthonormal where it enters; on a Lorentzian frame that is not
    # canonical its spectrum is scipy's on the explicit definite pencil, and the stack path's
    S = conjugated_structure(5, 2, seed=seed + 1)
    R = random_algebraic_curvature(S.g, seed=seed)
    for u in sample_null_vectors(S.g, 4, seed=seed):
        q = _skewed_quotient(S.g, u, seed)
        assert q.gbar_positive_definite
        oracle = scipy.linalg.eigh(*_pencil(R, S.g, q), eigvals_only=True)
        for op in (null_jacobi(R, S.g, u, quotient=q), null_jacobi(R, S.g, u)):
            assert (op.signs > 0).all()
            data = spectrum(op, grouping_tol=0.0)
            values = np.repeat(data.eigenvalues, data.multiplicities)
            assert np.abs(values - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())


def test_null_jacobi_on_skewed_indefinite_representatives_fails_as_the_stack_does():
    # signature (2, 2): the quotient is indefinite, and its spectrum is real or not by the
    # tensor; both routes give the same spectrum, scipy's on the explicit pencil, or the same error.
    # The hyperbolic pair has two null representatives, gbar = [[0, -2], [-2, 0]]: no pivot of
    # Gram-Schmidt in their order survives, yet the quotient is nondegenerate
    g = ScalarProduct.diagonal([-1.0, -1.0, 1.0, 1.0])
    u = np.array([1.0, 0.0, 1.0, 0.0])
    hyperbolic = null_quotient_from_representatives(g, u, [[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, -1.0]])
    real = []
    for seed in range(12):
        R = random_algebraic_curvature(g, seed=seed)
        stacked, stack_error = _spectrum_or_error(null_jacobi(R, g, u))
        real.append(stack_error is None)
        for q in (_skewed_quotient(g, u, seed), hyperbolic):
            assert q.gbar_signature == (1, 1)
            skewed, error = _spectrum_or_error(null_jacobi(R, g, u, quotient=q))
            assert error == stack_error, seed
            if error is None:
                oracle = np.sort(scipy.linalg.eigvals(*_pencil(R, g, q)).real)
                for data in (skewed, stacked):
                    values = np.repeat(data.eigenvalues, data.multiplicities)
                    assert np.abs(values - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max()), seed
    assert any(real) and not all(real)


@pytest.mark.parametrize("family", ["constant", "phi_model", "random"])
@pytest.mark.parametrize("n, s", [(2, 2), (4, 3), (5, 2)])
def test_spectrum_is_the_one_base_stacks_eigen_step(family, n, s):
    # one operator, one spectrum: spectrum() of a base's operator and the record of its one-base
    # stack agree bit for bit, on g-orthonormal domains of every sign pattern (no Gram whitened)
    inst = generate_instance(family, n, s)
    R, g = inst.curvature, inst.structure.g
    bases = {
        "timelike": sample_unit_causal(g, CausalCharacter.TIMELIKE, 16, seed=3),
        "spacelike": sample_unit_causal(g, CausalCharacter.SPACELIKE, 16, seed=4),
        "null": sample_null_vectors(g, 16, seed=5),
    }
    for kind, xs in bases.items():
        one, stack = (null_jacobi, null_jacobi_stack) if kind == "null" else (jacobi, jacobi_stack)
        for x in xs:
            record = stack(slot4_contraction(R, x[None]), g, x[None]).records()[0]
            data, error = _spectrum_or_error(one(R, g, x))
            assert error == record.error, (kind, x)
            if data is not None:
                assert data.multiplicities == record.spectrum.multiplicities, (kind, x)
                assert [v.hex() for v in data.eigenvalues] == [v.hex() for v in record.spectrum.eigenvalues]


def test_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import phinull

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(phinull.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    code = "import sys, phinull, phinull.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- deciders -----------------------------------------------------------------

def test_osserman_constant_curvature_passes():
    g = ScalarProduct.minkowski(5)
    R = constant_curvature(g, 2.0)
    report = is_osserman_at(R, g, CausalCharacter.SPACELIKE, samples=32, seed=0)
    assert report.passed
    assert len(report.groups) == 1
    assert report.groups[0]["multiplicity"] == 4
    assert report.groups[0]["eigenvalue"] == pytest.approx(2.0, abs=1e-10)
    timelike = is_osserman_at(R, g, CausalCharacter.TIMELIKE, samples=16, seed=0)
    assert timelike.passed
    assert timelike.groups[0]["eigenvalue"] == pytest.approx(-2.0, abs=1e-10)


def test_osserman_zero_curvature_passes():
    g = ScalarProduct.minkowski(4)
    report = is_osserman_at(constant_curvature(g, 0.0), g, CausalCharacter.SPACELIKE, samples=8)
    assert report.passed
    assert report.groups[0]["eigenvalue"] == pytest.approx(0.0, abs=1e-12)


def test_osserman_generic_tensor_fails_with_witnesses():
    g = ScalarProduct.minkowski(4)
    R = random_algebraic_curvature(g, seed=5)
    report = is_osserman_at(R, g, CausalCharacter.TIMELIKE, samples=16, seed=3)
    assert not report.passed
    assert report.failure is not None
    # two sampled directions with genuinely different spectra exist in the record
    spectra = {rec.spectrum.eigenvalues for rec in report.records if rec.spectrum}
    assert len(spectra) > 1


def test_unit_causal_sampler_failure_in_definite_signature():
    g = ScalarProduct.diagonal([1.0, 1.0])
    message = r"could not sample 2 timelike unit vectors \(signature \(2, 0\)\)"
    with pytest.raises(CausalCharacterError, match=message):
        sample_unit_causal(g, CausalCharacter.TIMELIKE, count=2, seed=0)


def _signature_metric(p: int, q: int, seed: int) -> ScalarProduct:
    """Signature (p, q) in a random well-conditioned frame."""
    L = np.eye(p + q) + 0.3 * np.random.default_rng(seed).standard_normal((p + q, p + q))
    return ScalarProduct.from_matrix(L.T @ np.diag([-1.0] * q + [1.0] * p) @ L)


_sampler_metrics = st.one_of(
    st.integers(2, 24).map(ScalarProduct.minkowski),
    st.builds(lambda n, s, seed: conjugated_structure(n, s, seed).g,
              st.integers(1, 4), st.integers(1, 3), st.integers(0, 100)),
    st.builds(_signature_metric, st.integers(0, 5), st.integers(2, 5), st.integers(0, 100)),
    st.just(ScalarProduct.diagonal([-2e-9, 3e-8])),  # the near-null metric
)


@settings(max_examples=200, deadline=None)
@given(_sampler_metrics, st.sampled_from([CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE]),
       st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_unit_causal_sampler_draws_bounded_unit_vectors_of_the_kind(g, kind, count, seed):
    sign = 1.0 if kind is CausalCharacter.SPACELIKE else -1.0
    G = g.components
    evals = np.linalg.eigvalsh(G)
    if not np.any(sign * evals > 0):
        with pytest.raises(CausalCharacterError):
            sample_unit_causal(g, kind, count, seed)
        return
    xs = sample_unit_causal(g, kind, count, seed)
    assert xs.shape == (count, g.dim)
    norms_sq = np.einsum("ni,ni->n", xs, xs)
    q = np.einsum("ni,ij,nj->n", xs, G, xs)
    assert np.all(np.abs(q - sign) <= 1e-12 * norms_sq * np.linalg.norm(G, 2))
    assert causal_characters(g, xs) == [kind] * count
    np.testing.assert_array_equal(sample_unit_causal(g, kind, count, seed), xs)
    # the frame rows have Euclidean norm 1 / sqrt|lambda|, so ||E||_2 = 1 / sqrt(min |lambda|)
    bound = np.sqrt(np.cosh(2 * BOOST_WINDOW) / np.abs(evals).min())
    assert np.all(np.sqrt(norms_sq) <= bound * (1 + 1e-12))


CONSTANT_TIMELIKE_CASES = {
    # rejection sampling raised on every seed at dims 20 and 24 and on most seeds in the
    # conjugated dim-11 frames, and failed on large-norm draws at the listed dim-11 and 12 seeds
    "minkowski20": (lambda: ScalarProduct.minkowski(20), (0, 1)),
    "minkowski24": (lambda: ScalarProduct.minkowski(24), (0, 1)),
    "conjugated-seed1": (lambda: conjugated_structure(4, 3, seed=1).g, (0, 1, 2)),
    "conjugated-seed2": (lambda: conjugated_structure(4, 3, seed=2).g, (0, 1, 2)),
    "dim11": (lambda: generate_instance("constant", 4, 3).structure.g, (56, 189)),
    "dim12": (lambda: generate_instance("constant", 5, 2).structure.g, (13, 74, 85)),
}


@pytest.mark.parametrize("case", list(CONSTANT_TIMELIKE_CASES))
def test_constant_curvature_timelike_osserman_passes(case):
    metric, seeds = CONSTANT_TIMELIKE_CASES[case]
    g = metric()
    R = constant_curvature(g, 1.0)
    for seed in seeds:
        report = is_osserman_at(R, g, CausalCharacter.TIMELIKE, seed=seed)
        assert report.passed, (seed, report.failure)
        assert report.groups[0]["eigenvalue"] == pytest.approx(-1.0, abs=1e-10)


def test_null_osserman_space_form_passes_with_zero_spectrum():
    g = ScalarProduct.minkowski(5)
    R = constant_curvature(g, -3.0)
    report = is_null_osserman_wrt(R, g, np.eye(5)[0], samples=24, seed=0)
    assert report.passed
    assert report.groups[0]["eigenvalue"] == pytest.approx(0.0, abs=1e-12)
    # each record names its point x of the celestial sphere, not the null vector z + x
    bases = np.array([rec.base for rec in report.records])
    assert np.allclose(bases[:, 0], 0.0)
    assert np.allclose(np.einsum("ni,ij,nj->n", bases, g.components, bases), 1.0)


def test_null_osserman_fails_for_phi_model_off_image():
    # the full celestial sphere leaves Im(phi); two explicit witnesses disagree
    S = canonical_structure(2, 2)
    b = 1.0
    R = phi_model_family(S, 1.0, b)
    z = S.xi[0]
    x_in = np.eye(6)[0]  # inside Im(phi)
    x_out = S.xi[1]  # purely along a spacelike frame direction
    spec_in = bf_null_jacobi_spectrum(R.components, S.g.components, z + x_in)
    spec_out = bf_null_jacobi_spectrum(R.components, S.g.components, z + x_out)
    assert spec_in.max() == pytest.approx(3 * b, abs=1e-10)
    assert np.abs(spec_out).max() < 1e-10
    report = is_null_osserman_wrt(R, S.g, z, samples=32, seed=1)
    assert not report.passed


@pytest.mark.parametrize("structure", [canonical_structure(2, 2), conjugated_structure(2, 3, seed=4)],
                         ids=["canonical-2-2", "conjugated-2-3"])
def test_null_osserman_names_its_samples_with_the_celestial_points(structure):
    # one celestial draw: the decider's records name exactly the points of sample_celestial
    S = structure
    R = random_algebraic_curvature(S.g, seed=3)
    for count, seed in ((8, 0), (16, 5)):
        names = np.array([rec.base for rec in is_null_osserman_wrt(R, S.g, S.xi[0], count, seed).records])
        assert np.array_equal(names, sample_celestial(S, count, seed))


@pytest.mark.parametrize("g", [ScalarProduct.minkowski(5), canonical_structure(2, 3).g,
                               conjugated_structure(4, 3, seed=1).g],
                         ids=["minkowski-5", "canonical-2-3", "conjugated-4-3"])
def test_null_vectors_are_null_scaled_and_seeded(g):
    us = sample_null_vectors(g, 64, seed=8)
    G = g.components
    q = np.einsum("ni,ij,nj->n", us, G, us)
    assert (np.abs(q) <= 1e-12 * np.abs(G).max() * (us * us).sum(axis=1)).all()
    assert causal_characters(g, us) == [CausalCharacter.NULL] * 64
    # u = s (z + x) with z the frame's unit timelike row and x in z-perp: g(u, z) = -s
    scales = -(us @ G @ orthonormal_frame(g)[0][0])
    assert ((scales >= 0.5 - 1e-12) & (scales <= 2.0 + 1e-12)).all()
    assert np.array_equal(us, sample_null_vectors(g, 64, seed=8))
    assert not np.array_equal(us, sample_null_vectors(g, 64, seed=9))


def test_null_osserman_requires_unit_timelike_reference():
    g = ScalarProduct.minkowski(4)
    R = constant_curvature(g, 1.0)
    with pytest.raises(CausalCharacterError):
        is_null_osserman_wrt(R, g, 2.0 * np.eye(4)[0], samples=4)


@pytest.mark.parametrize("diagonal", [[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0, 1.0]])
def test_null_osserman_refuses_a_non_lorentzian_metric(diagonal):
    # With two negative directions the celestial sphere of a unit timelike z is not spacelike;
    # the sphere sampler's orthonormal-frame check is the one that refuses it.
    g = ScalarProduct.diagonal(diagonal)
    R = constant_curvature(g, 1.0)
    with pytest.raises(GeometryError):
        is_null_osserman_wrt(R, g, np.eye(len(diagonal))[0], samples=4)


def test_phi_null_two_paths_on_curated_families():
    S = conjugated_structure(2, 2, seed=23)
    R = phi_model_family(S, -0.5, 2.0)
    report = is_phi_null_osserman_wrt(R, S, samples=24, seed=0)
    assert report.quotient.passed and report.direct.passed
    # both paths name each sample by its point x of the phi-celestial sphere
    for q, d in zip(report.quotient.records, report.direct.records):
        assert np.array_equal(q.base, d.base)
    # {a with multiplicity 2n+s-2 = 4, a+3b simple}
    assert report.direct.records[0].spectrum.multiplicities == (4, 1)
    flat = constant_curvature(S.g, 4.0)
    report = is_phi_null_osserman_wrt(flat, S, samples=12, seed=0)
    assert report.quotient.passed and report.direct.passed


def test_phi_null_generic_tensor_fails_both_paths():
    S = canonical_structure(2, 1)  # dim 5
    R = random_algebraic_curvature(S.g, seed=7)
    report = is_phi_null_osserman_wrt(R, S, samples=16, seed=2)
    assert not report.quotient.passed
    assert not report.direct.passed
    assert not report.passed


def test_null_jacobi_on_indefinite_quotient_does_not_crash():
    # signature (2,2): gbar is indefinite; the operator must either produce a
    # real spectrum through the fallback or raise the dedicated error
    g = ScalarProduct.diagonal([-1.0, -1.0, 1.0, 1.0])
    u = np.array([1.0, 0.0, 1.0, 0.0])
    for seed in range(5):
        R = random_algebraic_curvature(g, seed=seed)
        op = null_jacobi(R, g, u)
        assert op.self_adjointness_residual < 1e-9
        try:
            data = spectrum(op)
        except SpectrumError:
            continue
        assert data.dimension == 2


def test_null_quotient_scale_robustness():
    g = ScalarProduct.minkowski(5)
    base = np.array([1.0, 0.6, 0.8, 0.0, 0.0])
    R = random_algebraic_curvature(g, seed=8)
    small = spectrum(null_jacobi(R, g, 1e-2 * base))
    large = spectrum(null_jacobi(R, g, 1e2 * base))
    # quadratic scale covariance of the quotient operator in the base vector
    ratio = np.array(large.eigenvalues) / np.array(small.eigenvalues)
    assert np.allclose(ratio, 1e8, rtol=1e-8)


def test_gbar_positive_definite_for_lorentzian_null_vectors():
    S = canonical_structure(2, 3)
    for u in sample_null_vectors(S.g, 25, seed=4):
        q = null_quotient(S.g, u)
        assert q.gbar_positive_definite


def test_decide_constancy_fails_a_nan_spread_or_tol():
    # "spread >= tol" is False for NaN, so a NaN spread or tol used to pass
    spectra = np.array([(1.0, 2.0), (1.0, 2.0), (1.0, float("nan"))])
    table = _spectra_table(np.zeros((3, 3)), [None] * 3, spectra, 1e-6)
    report = decide_constancy("c", table, 0, 1e-8, 1e-6)
    assert not report.passed and report.failure == "group 1 eigenvalue spread nan >= tol 1.0e-08"
    agree = _spectra_table(np.zeros((2, 3)), [None] * 2, spectra[:2], 1e-6)
    assert decide_constancy("c", agree, 0, 1e-8, 1e-6).passed
    report = decide_constancy("c", agree, 0, float("nan"), 1e-6)
    assert not report.passed and report.failure == "group 0 eigenvalue spread 0.000e+00 >= tol nan"


def test_decide_constancy_needs_two_samples():
    # one spectrum is constant against nothing: a one-sample decision used to pass with spread 0
    def table(count):
        return _spectra_table(np.zeros((count, 3)), [None] * count, np.tile([1.0, 2.0], (count, 1)), 1e-6)

    for count in (0, 1):
        with pytest.raises(ValueError, match=f"needs at least 2 samples, got {count}"):
            decide_constancy("c", table(count), 0, 1e-8, 1e-6)
    assert decide_constancy("c", table(2), 0, 1e-8, 1e-6).passed


def test_decision_report_serializes():
    g = ScalarProduct.minkowski(4)
    report = is_osserman_at(constant_curvature(g, 1.0), g, CausalCharacter.SPACELIKE, samples=4)
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["tolerances"]["constancy"] == report.tol
    assert len(payload["per_sample_spectra"]) == 4
