"""Jacobi operators, null quotients, spectra, and the condition deciders."""

import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
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
from phinull.gff import canonical_structure, sample_phi_celestial
from phinull.io import generate_instance
from phinull.jacobi import (
    SAMPLER_BLOCK,
    JacobiOperator,
    OperatorStack,
    SpectralData,
    SpectrumError,
    _grouped,
    decide_constancy,
    is_null_osserman_wrt,
    is_osserman_at,
    is_phi_null_osserman_wrt,
    jacobi,
    jacobi_stack,
    null_jacobi,
    null_jacobi_stack,
    null_quotient,
    null_quotient_from_representatives,
    sample_null_vectors,
    sample_unit_causal,
    spectrum,
)
from phinull.linalg import (
    CausalCharacter,
    CausalCharacterError,
    ScalarProduct,
    SubspaceBasis,
    orthogonal_complement,
)

jacobi_module = importlib.import_module("phinull.jacobi")  # the name `phinull.jacobi` is the function


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
    g = ScalarProduct.minkowski(5)
    R = random_algebraic_curvature(g, seed=1)
    z = np.eye(5)[2] * 1.0
    domain = orthogonal_complement(g, [z])
    base_op = jacobi(R, g, z, domain=domain)
    scaled_op = jacobi(R, g, 2.0 * z, domain=domain)
    assert np.abs(scaled_op.matrix - 4.0 * base_op.matrix).max() < 1e-10


def test_phi_model_direct_spectrum_against_oracle():
    S = canonical_structure(2, 3)
    R = phi_model_family(S, 1.0, 1.0)
    for x in sample_phi_celestial(S, 50, seed=0).points:
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


def test_null_jacobi_vanishes_for_space_forms():
    g = ScalarProduct.minkowski(5)
    for c in (-1.0, 3.0):
        R = constant_curvature(g, c)
        op = null_jacobi(R, g, np.array([1.0, 0.0, 0.0, 0.0, 1.0]))
        assert np.abs(op.matrix).max() < 1e-12


def test_null_jacobi_matches_oracle_on_phi_model():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 0.5, 1.5)
    for x in sample_phi_celestial(S, 20, seed=1).points:
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
    xs = sample_phi_celestial(S, 8, seed=2).points
    zs = np.vstack([xs, sample_unit_causal(S.g, CausalCharacter.TIMELIKE, 4, seed=2)])
    us = S.xi[0] + xs
    for stack, bases, corank in ((jacobi_stack(R, S.g, zs), zs, 1), (null_jacobi_stack(R, S.g, us), us, 2)):
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
    xs = sample_phi_celestial(S, 5, seed=4).points
    us = S.xi[0] + xs
    cases = (
        (jacobi_stack, xs, us, "classical Jacobi operator needs a non-null base, got null"),
        (null_jacobi_stack, us, xs, "null quotient requires a null vector"),
    )
    for build, good, bad, message in cases:
        clean = build(R, S.g, good).records()
        mixed = build(R, S.g, np.vstack([good[:2], bad[2:3], good[3:]])).records()
        assert [rec.error for rec in mixed] == [None, None, message, None, None]
        assert mixed[2].spectrum is None
        for n in (0, 1, 3, 4):
            assert mixed[n].spectrum == clean[n].spectrum
        assert decide_constancy("c", mixed, 0, 1e-8, 1e-6).failure == f"sample 2: {message}"


def test_timelike_round_off_no_worse_than_per_vector_assembly():
    # Dim-11 constant curvature: large-norm unit timelike samples have domain
    # Grams with condition numbers up to 1e4, so round-off shows in the spread.
    # Single seeds swing either way, so the routes are compared seed by seed.
    inst = generate_instance("constant", 4, 3)
    R, g = inst.curvature, inst.structure.g
    ratios = []
    for seed in range(20):
        report = is_osserman_at(R, g, CausalCharacter.TIMELIKE, seed=seed)
        assert report.passed, (seed, report.failure)
        # the per-vector assembly on the same samples, diagonalized as the deciders do
        bases = np.array([rec.base for rec in report.records])
        domains = np.array([orthogonal_complement(g, [z]).vectors for z in bases])
        matrices = np.array([_per_vector_matrix(R, g, z, D) for z, D in zip(bases, domains)])
        grams = domains @ g.components @ domains.transpose(0, 2, 1)
        records = OperatorStack(bases, [None] * len(bases), domains, grams, matrices).records()
        per_vector = decide_constancy("per-vector", records, seed, 1e-8, 1e-6)
        assert per_vector.passed, (seed, per_vector.failure)
        ratios.append(report.groups[0]["spread"] / per_vector.groups[0]["spread"])
    # paired by seed: both routes see the same samples
    assert np.median(ratios) <= 1.0, sorted(ratios)


# -- spectra ------------------------------------------------------------------

def _operator_from(matrix, gram):
    dim = matrix.shape[0] + 1
    g = ScalarProduct.diagonal([1.0] * dim)
    basis = SubspaceBasis.from_vectors(g, np.eye(dim)[: matrix.shape[0]])
    return JacobiOperator(
        base=np.eye(dim)[-1],
        domain=basis,
        matrix=np.asarray(matrix, dtype=float),
        metric_on_domain=np.asarray(gram, dtype=float),
    )


def test_spectrum_scalar_matrix():
    op = _operator_from(3.0 * np.eye(5), np.eye(5))
    data = spectrum(op)
    assert data.eigenvalues == (3.0,)
    assert data.multiplicities == (5,)


def test_spectrum_grouping_contract():
    op = _operator_from(np.diag([1.0, 1.0, 4.0]), np.eye(3))
    assert spectrum(op, grouping_tol=1e-6).multiplicities == (2, 1)
    op = _operator_from(np.diag([1.0, 1.0 + 1e-9, 4.0]), np.eye(3))
    data = spectrum(op, grouping_tol=1e-6)
    assert data.multiplicities == (2, 1)
    assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)


def test_spectral_data_counts_dimension():
    data = SpectralData.from_values([2.0, 1.0, 1.0 + 1e-9, 5.0], grouping_tol=1e-6)
    assert data.dimension == 4
    assert data.multiplicities == (2, 1, 1)


def test_spectrum_complex_eigenvalues_reported():
    # rotation-like operator, self-adjoint w.r.t. an indefinite Gram
    op = _operator_from(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([-1.0, 1.0]))
    assert op.self_adjointness_residual < 1e-12
    with pytest.raises(SpectrumError):
        spectrum(op)


def test_spectrum_error_lists_eigenvalues_sorted():
    # the same operator in reversed coordinates (matrix and Gram both conjugated): LAPACK
    # returns its eigenvalues in another order, the message must not
    G = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
    S = np.random.default_rng(2).standard_normal((5, 5))
    M, P = np.linalg.solve(G, S + S.T), np.eye(5)[::-1]
    messages = []
    for matrix, gram in ((M, G), (P @ M @ P.T, P @ G @ P.T)):
        with pytest.raises(SpectrumError) as info:
            spectrum(_operator_from(matrix, gram))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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
    spectra = _grouped(stack, GROUPING_TOL)
    assert len(spectra) == len(stack)
    for row, data in zip(stack, spectra):
        means, multiplicities = spectral_groups_loop(row, GROUPING_TOL)
        assert data.multiplicities == multiplicities
        assert [v.hex() for v in data.eigenvalues] == [v.hex() for v in means]
        assert all(type(v) is float for v in data.eigenvalues)


def test_spectrum_reconstruction_residual():
    g = ScalarProduct.minkowski(6)
    R = random_algebraic_curvature(g, seed=4)
    z = np.eye(6)[0]  # timelike: positive definite domain
    op = jacobi(R, g, z)
    A = 0.5 * (op.metric_on_domain @ op.matrix + (op.metric_on_domain @ op.matrix).T)
    values, vectors = scipy.linalg.eigh(A, op.metric_on_domain)
    recon = vectors @ np.diag(values) @ np.linalg.inv(vectors)
    assert np.abs(recon - op.matrix).max() < 1e-8


def test_spectrum_whitening_matches_scipy_on_definite_pencils():
    rng = np.random.default_rng(12)
    for k in (1, 3, 7, 11):
        for _ in range(10):
            L = np.eye(k) + 0.4 * rng.standard_normal((k, k))
            gram = L @ L.T
            sym = rng.standard_normal((k, k))
            op = _operator_from(np.linalg.solve(gram, sym + sym.T), gram)
            A = gram @ op.matrix
            expected = scipy.linalg.eigh(0.5 * (A + A.T), gram, eigvals_only=True)
            data = spectrum(op, grouping_tol=0.0)
            values = np.repeat(data.eigenvalues, data.multiplicities)
            assert np.abs(values - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())


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
    with pytest.raises(CausalCharacterError):
        sample_unit_causal(g, CausalCharacter.TIMELIKE, count=2, seed=0, max_tries=50)


def _draws_or_message(sampler, *args, **kwargs):
    try:
        return sampler(*args, **kwargs)
    except CausalCharacterError as exc:
        return str(exc)


SAMPLER_METRICS = {
    "minkowski6": ScalarProduct.minkowski(6),
    "minkowski11": ScalarProduct.minkowski(11),
    "minkowski12": ScalarProduct.minkowski(12),
    "conjugated": conjugated_structure(2, 3, seed=5).g,
    # |g(y, y)| <= 1e-8 max(y . y, 1) for many draws: the near-null rejection decides
    "near-null": ScalarProduct.diagonal([-2e-9, 3e-8]),
}


@pytest.mark.parametrize("kind", [CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE], ids=lambda k: k.value)
@pytest.mark.parametrize("metric", list(SAMPLER_METRICS))
def test_unit_causal_sampler_matches_one_draw_at_a_time(metric, kind, monkeypatch):
    g = SAMPLER_METRICS[metric]
    for seed in range(50):
        expected = _draws_or_message(sample_unit_causal_loop, g, kind, 16, seed)
        for block in (SAMPLER_BLOCK, 5):  # the default cap, and a cap that most draws reach
            monkeypatch.setattr(jacobi_module, "SAMPLER_BLOCK", block)
            got = _draws_or_message(sample_unit_causal, g, kind, 16, seed)
            if isinstance(expected, str):
                assert got == expected
            else:
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "g, count, max_tries",
    [
        (ScalarProduct.diagonal([1.0, 1.0]), 2, 50),
        # a known defect (an open item in ROADMAP.md), pinned, not fixed: rejection finds too few
        # timelike vectors at dim 20
        (ScalarProduct.minkowski(20), 64, 200),
    ],
    ids=["definite", "minkowski20"],
)
def test_unit_causal_sampler_exhausted_budget_raises_as_one_draw_at_a_time(g, count, max_tries):
    with pytest.raises(CausalCharacterError) as info:
        sample_unit_causal(g, CausalCharacter.TIMELIKE, count, seed=0, max_tries=max_tries)
    expected = _draws_or_message(sample_unit_causal_loop, g, CausalCharacter.TIMELIKE, count, 0, max_tries)
    assert str(info.value) == expected


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


def test_null_osserman_requires_unit_timelike_reference():
    g = ScalarProduct.minkowski(4)
    R = constant_curvature(g, 1.0)
    with pytest.raises(CausalCharacterError):
        is_null_osserman_wrt(R, g, 2.0 * np.eye(4)[0], samples=4)


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


def test_decision_report_serializes():
    g = ScalarProduct.minkowski(4)
    report = is_osserman_at(constant_curvature(g, 1.0), g, CausalCharacter.SPACELIKE, samples=4)
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["tolerances"]["constancy"] == report.tol
    assert len(payload["per_sample_spectra"]) == 4
