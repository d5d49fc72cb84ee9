"""Indefinite linear algebra: inner products, causal types, complements, frames."""

import warnings

import numpy as np
import pytest

from helpers import causal_characters_loop, conjugated_structure, orthonormalize_loop
from phinull.gff import canonical_structure, sample_phi_celestial
from phinull.linalg import (
    CausalCharacter,
    DegenerateSubspaceError,
    ScalarProduct,
    SubspaceBasis,
    causal_character,
    causal_characters,
    inner,
    matrix_rank,
    orthogonal_complement,
    orthonormalize,
    sample_unit_sphere,
    self_products,
)


def test_inner_metric_diagonal_entry():
    g = ScalarProduct.minkowski(4)
    e0 = np.eye(4)[0]
    assert inner(g, e0, e0) == -1.0


def test_inner_bilinearity_zero():
    g = ScalarProduct.diagonal([2.0, -3.0, 1.0])
    x = np.array([1.0, 2.0, 3.0])
    assert inner(g, x, np.zeros(3)) == 0.0


def test_inner_null_vector_of_minkowski_plane():
    g = ScalarProduct.diagonal([-1.0, 1.0])
    v = np.array([1.0, 1.0])
    assert inner(g, v, v) == 0.0


def test_inner_symmetric_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mat = rng.standard_normal((5, 5))
        g = ScalarProduct.from_matrix(mat @ mat.T + 6.0 * np.eye(5) - 3.0 * np.diag(rng.random(5)))
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        assert inner(g, x, y) == inner(g, y, x)


def test_self_products_bitwise_equal_inner():
    rng = np.random.default_rng(1)
    for dim in (3, 11, 20):
        mat = rng.standard_normal((dim, dim))
        g = ScalarProduct.from_matrix(mat + mat.T)
        xs = rng.standard_normal((300, dim)) * 10.0 ** rng.integers(-3, 4, (300, 1))
        assert self_products(g, xs).tolist() == [inner(g, x, x) for x in xs]


def test_inner_dimension_mismatch():
    g = ScalarProduct.minkowski(3)
    with pytest.raises(ValueError):
        inner(g, np.ones(4), np.ones(3))


def test_scalar_product_rejects_degenerate():
    with pytest.raises(DegenerateSubspaceError):
        ScalarProduct.from_matrix(np.diag([1.0, 0.0, 1.0]))


def test_scalar_product_signature_and_symmetrization():
    mat = np.array([[1.0, 0.5], [0.1, -2.0]])
    g = ScalarProduct.from_matrix(mat)
    assert np.allclose(g.components, g.components.T)
    assert g.signature == (1, 1)
    assert ScalarProduct.minkowski(4).is_lorentzian


def test_causal_character_examples():
    g = ScalarProduct.diagonal([-1.0, 1.0, 1.0])
    assert causal_character(g, [1.0, 1.0, 0.0]) is CausalCharacter.NULL
    assert causal_character(g, [1.0, 0.0, 0.0]) is CausalCharacter.TIMELIKE
    assert causal_character(g, [0.0, 0.0, 0.0]) is CausalCharacter.ZERO
    assert causal_character(g, [0.0, 2.0, 0.0]) is CausalCharacter.SPACELIKE


def test_causal_characters_classify_each_row():
    g = ScalarProduct.diagonal([-1.0, 1.0, 1.0])
    rows = [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
    kinds = [CausalCharacter.NULL, CausalCharacter.TIMELIKE, CausalCharacter.ZERO, CausalCharacter.SPACELIKE]
    assert causal_characters(g, rows) == kinds


def test_causal_character_positive_rescaling_invariance():
    g = ScalarProduct.minkowski(4)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(4)
        t = float(10.0 ** rng.uniform(-8.0, 8.0))  # log-uniform on [1e-8, 1e8]
        assert causal_character(g, x) is causal_character(g, t * x)


def test_orthogonal_complement_of_spacelike_axis():
    g = ScalarProduct.diagonal([-1.0, 1.0, 1.0])
    comp = orthogonal_complement(g, [np.eye(3)[1]])
    assert comp.dim == 2
    # span{e0, e2}: no component along e1
    assert np.abs(comp.vectors[:, 1]).max() < 1e-12


def test_null_vector_is_in_its_own_complement():
    g = ScalarProduct.diagonal([-1.0, 1.0])
    u = np.array([1.0, 1.0])
    comp = orthogonal_complement(g, [u])
    assert comp.dim == 1
    # u itself spans the complement
    assert matrix_rank(np.vstack([comp.vectors, u])) == 1


def test_timelike_complement_is_spacelike():
    g = ScalarProduct.minkowski(4)
    comp = orthogonal_complement(g, [np.eye(4)[0]])
    assert comp.dim == 3
    assert np.linalg.eigvalsh(comp.gram).min() > 0.9


def test_complement_twice_restores_span():
    rng = np.random.default_rng(2)
    g = ScalarProduct.minkowski(5)
    for _ in range(20):
        rows = rng.standard_normal((2, 5))
        comp = orthogonal_complement(g, rows)
        back = orthogonal_complement(g, comp.vectors)
        assert back.dim == 2
        assert matrix_rank(np.vstack([back.vectors, rows])) == 2


def test_complement_rejects_dependent_input():
    g = ScalarProduct.minkowski(3)
    with pytest.raises(ValueError):
        orthogonal_complement(g, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])


def test_orthonormalize_euclidean_example():
    g = ScalarProduct.diagonal([1.0, 1.0])
    basis = SubspaceBasis.from_vectors(g, [[1.0, 0.0], [1.0, 1.0]])
    out = orthonormalize(g, basis)
    assert np.allclose(out.vectors, np.eye(2))
    assert np.allclose(out.gram, np.eye(2))


def test_orthonormalize_null_pivot_raises():
    g = ScalarProduct.diagonal([-1.0, 1.0])
    basis = SubspaceBasis.from_vectors(g, [[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateSubspaceError):
        orthonormalize(g, basis)


def test_orthonormalize_mixed_signs():
    g = ScalarProduct.diagonal([-1.0, 1.0, 1.0])
    basis = SubspaceBasis.from_vectors(g, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    out = orthonormalize(g, basis)
    assert np.allclose(out.gram, np.diag([-1.0, 1.0]), atol=1e-12)


def test_orthonormalize_random_spans_give_unit_gram():
    rng = np.random.default_rng(3)
    g = ScalarProduct.minkowski(6)
    done = 0
    while done < 20:
        rows = rng.standard_normal((3, 6))
        basis = SubspaceBasis.from_vectors(g, rows)
        try:
            out = orthonormalize(g, basis)
        except DegenerateSubspaceError:
            continue  # unlucky null pivot
        gram = out.recompute_gram(g)
        assert np.abs(np.abs(np.diag(gram)) - 1.0).max() < 1e-10
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-10
        done += 1


def test_subspace_gram_recomputes_bit_for_bit():
    rng = np.random.default_rng(4)
    g = ScalarProduct.minkowski(5)
    rows = rng.standard_normal((3, 5))
    basis = SubspaceBasis.from_vectors(g, rows)
    assert np.array_equal(basis.gram, basis.recompute_gram(g))


def test_subspace_rejects_dependent_vectors():
    g = ScalarProduct.minkowski(3)
    with pytest.raises(ValueError):
        SubspaceBasis.from_vectors(g, [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])


def test_sample_unit_sphere_determinism_and_constraints():
    g = ScalarProduct.minkowski(4)
    comp = orthogonal_complement(g, [np.eye(4)[0]])
    frame = orthonormalize(g, comp)
    a = sample_unit_sphere(g, frame, 10, seed=7)
    b = sample_unit_sphere(g, frame, 10, seed=7)
    c = sample_unit_sphere(g, frame, 10, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    for p in a:
        assert abs(inner(g, p, p) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sample_unit_sphere(g, frame, 0, seed=1)


def test_sample_unit_sphere_judges_its_frame_by_the_absolute_tolerance_alone():
    # max |gram - I| against ORTHONORMAL_ATOL, with no relative slack on the diagonal: a frame whose
    # vectors are 1e-7 too long is refused
    g = ScalarProduct.minkowski(4)
    frame = orthonormalize(g, orthogonal_complement(g, [np.eye(4)[0]]))
    near = SubspaceBasis.from_vectors(g, frame.vectors * (1.0 + 2e-11))
    assert sample_unit_sphere(g, near, 4, seed=0).shape == (4, 4)
    long = SubspaceBasis.from_vectors(g, frame.vectors * (1.0 + 1e-7))
    with pytest.raises(DegenerateSubspaceError, match="orthonormal frame"):
        sample_unit_sphere(g, long, 4, seed=0)


SHAPES = ((2, 2), (4, 3), (5, 2))
INDEFINITE = ScalarProduct.diagonal([-1.0, -1.0, 1.0, 1.0])


def _reference_structures():
    """Stock structures, and conjugated ones at seeds 0-5: g and phi with no exact 0 or +-1."""
    yield from (canonical_structure(n, s) for n, s in SHAPES)
    yield from (conjugated_structure(n, s, seed) for n, s in SHAPES for seed in range(6))


def _reference_bases():
    """(g, basis): Im(phi)'s columns and the celestial complement of xi_1 of each reference
    structure, as ``GffStructure.image_frame`` and the celestial samplers pass them to Gram-Schmidt,
    then bases of mixed signs under diag(-1, -1, 1, 1)."""
    for S in _reference_structures():
        yield S.g, SubspaceBasis.from_vectors(S.g, np.linalg.svd(S.phi)[0][:, : 2 * S.n].T)
        yield S.g, orthogonal_complement(S.g, [S.timelike_frame_vector])
    yield INDEFINITE, SubspaceBasis.from_vectors(INDEFINITE, np.eye(4)[::-1])
    yield INDEFINITE, orthogonal_complement(INDEFINITE, [[1.0, 0.0, 0.5, 0.0]])
    yield INDEFINITE, orthogonal_complement(INDEFINITE, [[0.0, 0.3, 1.0, 0.2]])


def _gram_schmidt(fn, g, basis):
    """fn's rows and Gram, or the message of the DegenerateSubspaceError it raised."""
    try:
        out = fn(g, basis)
    except DegenerateSubspaceError as exc:
        return str(exc)
    return out.vectors, out.gram


def test_orthonormalize_matches_the_per_inner_reference_bit_for_bit():
    count = 0
    for g, basis in _reference_bases():
        found, expected = (_gram_schmidt(fn, g, basis) for fn in (orthonormalize, orthonormalize_loop))
        assert not isinstance(expected, str)
        assert all(np.array_equal(a, b) for a, b in zip(found, expected))
        count += 1
    assert count == 2 * 21 + 3
    # degenerate pivots: a null leading vector, and one null only after the first is projected out
    g = ScalarProduct.diagonal([-1.0, 1.0, 1.0])
    for rows, position in (([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0), ([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]], 1)):
        basis = SubspaceBasis.from_vectors(g, rows)
        found, expected = (_gram_schmidt(fn, g, basis) for fn in (orthonormalize, orthonormalize_loop))
        assert found == expected and expected.startswith(f"degenerate pivot at position {position}:")


def test_causal_characters_match_the_per_element_reference():
    rng = np.random.default_rng(5)
    cases = []
    for S in _reference_structures():
        sphere = sample_phi_celestial(S, 8, 0)
        rows = [np.zeros((1, S.dim)), S.xi, sphere, S.timelike_frame_vector + sphere, rng.standard_normal((8, S.dim))]
        cases.append((S.g, np.vstack(rows)))
    cases.append((INDEFINITE, np.vstack([np.zeros(4), np.eye(4), [[1.0, 0.0, 1.0, 0.0], [0.6, 0.8, 0.0, 1.0]],
                                         rng.standard_normal((8, 4))])))
    for g, rows in cases:
        kinds = set(causal_characters_loop(g, rows))
        assert kinds == set(CausalCharacter), kinds  # zero, null, timelike and spacelike rows
        for t in (1.0, 1e-8, 1e8, *10.0 ** rng.uniform(-8.0, 8.0, 5)):
            found, expected = causal_characters(g, t * rows), causal_characters_loop(g, t * rows)
            assert len(found) == len(expected) and all(a is b for a, b in zip(found, expected)), t


def test_causal_characters_of_vectors_whose_square_overflows_or_underflows():
    # g(x, x) and |x|^2 overflowed to inf (numpy warnings) or underflowed to 0, and 1e-200 e_1 was
    # taken for null; each row is judged scaled by a power of two
    g = canonical_structure(2, 2).g  # e_4 is the timelike axis
    rows = [[0, 1e200, 0, 0, 0, 0], [0, 1e-200, 0, 0, 0, 0], [0, 1e-160, 0, 0, 0, 0],
            [1e200, 0, 0, 0, 1e200, 0], [1e-200, 0, 0, 0, 1e-200, 0], [0, 0, 0, 0, 1e-200, 0]]
    kinds = [CausalCharacter.SPACELIKE] * 3 + [CausalCharacter.NULL] * 2 + [CausalCharacter.TIMELIKE]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert causal_characters(g, rows) == kinds
