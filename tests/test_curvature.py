"""Curvature builders, symmetry validation, and sectional curvature."""

import itertools

import numpy as np
import pytest

from helpers import bf_jacobi_spectrum, conjugated_structure, expected_multiset
from phinull.curvature import (
    CurvatureTensor,
    constant_curvature,
    operator_apply,
    phi_model_family,
    random_algebraic_curvature,
    sectional_curvatures,
    symmetrize_curvature,
    validate_curvature,
)
from phinull.gff import canonical_structure, sample_phi_celestial
from phinull.linalg import DegenerateSubspaceError, ScalarProduct, inner


def test_constant_curvature_validates_for_any_constant():
    g = ScalarProduct.minkowski(4)
    for c in (-1.0, 0.0, 2.5):
        assert validate_curvature(constant_curvature(g, c), g).passed


def test_random_unsymmetrized_array_fails_pair_symmetry():
    g = ScalarProduct.minkowski(4)
    raw = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
    report = validate_curvature(CurvatureTensor(components=raw), g)
    names = {c.name for c in report.failing()}
    assert "pair_exchange" in names


def _checks(report) -> list:
    return [(c.name, repr(c.residual), c.detail) for c in report.checks]


def test_validation_names_the_one_broken_symmetry_and_the_first_nan():
    # a fully antisymmetric 4-tensor keeps both skew pairs and pair exchange and breaks only the
    # cyclic Bianchi sum, to 3 times itself: every tied |deviation| is 1.5, the first one is named
    g = ScalarProduct.minkowski(5)
    comps = constant_curvature(g, 2.0).components.copy()
    for p in itertools.permutations(range(4)):
        parity = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2
        comps[p] += -0.5 if parity else 0.5
    assert _checks(validate_curvature(CurvatureTensor(components=comps), g)) == [
        ("skew_first_pair", "0.0", "worst at indices (0, 0, 0, 0)"),
        ("skew_second_pair", "0.0", "worst at indices (0, 0, 0, 0)"),
        ("pair_exchange", "0.0", "worst at indices (0, 0, 0, 0)"),
        ("first_bianchi", "1.5", "worst at indices (0, 1, 2, 3)"),
        ("component_magnitude", "2.0", "largest |component|"),
    ]
    # a NaN outranks a larger finite deviation earlier in the array: the residual is NaN and the
    # indices are those of the first NaN deviation
    comps[0, 1, 0, 1] += 7.0
    comps[2, 3, 2, 3] = np.nan
    assert _checks(validate_curvature(CurvatureTensor(components=comps), g)) == [
        ("skew_first_pair", "nan", "worst at indices (2, 3, 2, 3)"),
        ("skew_second_pair", "nan", "worst at indices (2, 3, 2, 3)"),
        ("pair_exchange", "nan", "worst at indices (2, 3, 2, 3)"),
        ("first_bianchi", "nan", "worst at indices (2, 2, 3, 3)"),
        ("component_magnitude", "nan", "largest |component|"),
    ]


def test_zero_tensor_validates():
    g = ScalarProduct.minkowski(3)
    assert validate_curvature(CurvatureTensor(components=np.zeros((3,) * 4)), g).passed


def test_constant_zero_is_zero_tensor():
    g = ScalarProduct.minkowski(5)
    assert np.abs(constant_curvature(g, 0.0).components).max() == 0.0


def test_constant_sectional_curvature_everywhere():
    g = ScalarProduct.diagonal([-1.0, 1.0, 1.0])
    R = constant_curvature(g, -1.0)
    e = np.eye(3)
    assert sectional_curvatures(R, g, [e[1]], [e[2]])[0] == pytest.approx(-1.0)
    rng = np.random.default_rng(1)
    found = 0
    while found < 10:
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        try:
            k = sectional_curvatures(R, g, [x], [y])[0]
        except DegenerateSubspaceError:
            continue
        assert k == pytest.approx(-1.0, abs=1e-9)
        found += 1


def test_constant_minus_one_mixed_plane_anchor():
    # k(x, xi) = -1 for unit spacelike x and the unit timelike frame direction
    S = canonical_structure(1, 1)
    R = constant_curvature(S.g, -1.0)
    x = np.eye(3)[0]
    assert sectional_curvatures(R, S.g, [x], [S.xi[0]])[0] == pytest.approx(-1.0)


def test_sectional_curvature_nondegenerate_mixed_plane():
    g = ScalarProduct.diagonal([-1.0, 1.0])
    R = constant_curvature(g, 3.0)
    x, y = np.array([1.0, 1.0]), np.array([0.0, 1.0])
    # delta = g(x,x) g(y,y) - g(x,y)^2 = 0*1 - 1 = -1: nondegenerate
    assert sectional_curvatures(R, g, [x], [y])[0] == pytest.approx(3.0)


def test_sectional_curvature_degenerate_plane_raises():
    g = ScalarProduct.diagonal([-1.0, 1.0])
    R = constant_curvature(g, 1.0)
    x = np.array([1.0, 1.0])
    with pytest.raises(DegenerateSubspaceError):
        sectional_curvatures(R, g, [x], [x + np.array([0.0, 1e-13])])[0]


def test_sectional_curvatures_batch_the_one_plane_form():
    g = conjugated_structure(2, 2, seed=5).g
    R = random_algebraic_curvature(g, seed=6)
    rng = np.random.default_rng(7)
    xs, ys = rng.standard_normal((2, 40, g.dim))
    ks = sectional_curvatures(R, g, xs, ys)
    for x, y, k in zip(xs, ys, ks):
        # the numerator by one einsum over the components, the Gram determinant through inner
        delta = inner(g, x, x) * inner(g, y, y) - inner(g, x, y) ** 2
        oracle = np.einsum("abcd,a,b,c,d->", R.components, x, y, x, y) / delta
        assert k == pytest.approx(oracle, rel=1e-12, abs=1e-12 * np.abs(R.components).max())
        assert sectional_curvatures(R, g, [x], [y])[0] == pytest.approx(k, rel=1e-12, abs=1e-12)
    # a degenerate pair among good ones raises the one-plane error for that pair
    bad = ys.copy()
    bad[3] = xs[3]
    with pytest.raises(DegenerateSubspaceError) as batched:
        sectional_curvatures(R, g, xs, bad)
    with pytest.raises(DegenerateSubspaceError) as single:
        sectional_curvatures(R, g, xs[3:4], xs[3:4])
    assert str(batched.value) == str(single.value)


def test_sectional_curvature_plane_basis_invariance():
    g = ScalarProduct.minkowski(4)
    R = random_algebraic_curvature(g, seed=3)
    rng = np.random.default_rng(4)
    x, y = np.eye(4)[1], np.eye(4)[2]
    k0 = sectional_curvatures(R, g, [x], [y])[0]
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        if abs(np.linalg.det(A)) < 0.1:
            continue
        x2 = A[0, 0] * x + A[0, 1] * y
        y2 = A[1, 0] * x + A[1, 1] * y
        assert sectional_curvatures(R, g, [x2], [y2])[0] == pytest.approx(k0, rel=1e-8)


def test_symmetrization_idempotent_and_fixes_valid_tensors():
    g = ScalarProduct.minkowski(4)
    R = random_algebraic_curvature(g, seed=8)
    assert np.abs(symmetrize_curvature(R.components) - R.components).max() < 1e-12
    raw = np.random.default_rng(9).standard_normal((4,) * 4)
    once = symmetrize_curvature(raw)
    twice = symmetrize_curvature(once)
    assert np.abs(once - twice).max() < 1e-12
    assert validate_curvature(CurvatureTensor(components=once), g).passed


def test_random_curvature_deterministic_and_scalable():
    g = ScalarProduct.minkowski(5)
    a = random_algebraic_curvature(g, seed=6)
    b = random_algebraic_curvature(g, seed=6)
    assert np.array_equal(a.components, b.components)
    assert validate_curvature(a, g).passed
    zero = random_algebraic_curvature(g, seed=6, scale=0.0)
    assert np.abs(zero.components).max() == 0.0


def test_phi_model_reduces_to_constant_curvature():
    S = canonical_structure(2, 2)
    family = phi_model_family(S, a=1.7, b=0.0)
    assert np.allclose(family.components, constant_curvature(S.g, 1.7).components, atol=1e-14)
    zero = phi_model_family(S, a=0.0, b=0.0)
    assert np.abs(zero.components).max() == 0.0


def test_phi_model_validates_and_matches_oracle_spectrum():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, a=1.0, b=1.0)
    assert validate_curvature(R, S.g).passed
    for x in sample_phi_celestial(S, 50, seed=10):
        values = bf_jacobi_spectrum(R.components, S.g.components, x)
        # {a with multiplicity 2n+s-2 = 4, a+3b = 4 simple}
        assert expected_multiset(values, {1.0: 4, 4.0: 1}, tol=1e-9)


def test_phi_model_jacobi_action_identities():
    # R_x(phi x) = (a+3b) phi x, R_x restricted to the frame directions is a*id
    S = conjugated_structure(2, 3, seed=12)
    a, b = 0.7, -0.4
    R = phi_model_family(S, a, b)
    for x in sample_phi_celestial(S, 10, seed=2):
        phix = S.phi @ x
        out = operator_apply(R, S.g, x, phix, x)
        assert np.abs(out - (a + 3 * b) * phix).max() < 1e-10
        for alpha in range(S.s):
            out = operator_apply(R, S.g, x, S.xi[alpha], x)
            assert np.abs(out - a * S.xi[alpha]).max() < 1e-10


def test_phi_sectional_curvature_of_family():
    S = conjugated_structure(2, 2, seed=14)
    a, b = 1.0, 1.0
    R = phi_model_family(S, a, b)
    for x in sample_phi_celestial(S, 20, seed=3):
        k = sectional_curvatures(R, S.g, [x], [S.phi @ x])[0]
        assert k == pytest.approx(a + 3 * b, abs=1e-9)


def test_two_form_component_antisymmetry_feeds_family():
    S = conjugated_structure(1, 2, seed=18)
    P = S.g.components @ S.phi
    assert np.abs(P + P.T).max() < 1e-10
    R = phi_model_family(S, a=-0.3, b=0.9)
    assert validate_curvature(R, S.g).passed


def test_operator_apply_matches_component_contraction():
    g = ScalarProduct.minkowski(4)
    R = random_algebraic_curvature(g, seed=20)
    rng = np.random.default_rng(21)
    y, z, w = rng.standard_normal((3, 4))
    vec = operator_apply(R, g, y, z, w)
    for target in rng.standard_normal((5, 4)):
        assert inner(g, vec, target) == pytest.approx(R.value(target, y, z, w), abs=1e-10)
