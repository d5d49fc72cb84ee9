"""Framed-structure axioms, samplers, and the congruence/sphere shift maps."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conjugated_structure
from phinull.gff import (
    GffStructure,
    canonical_structure,
    psi,
    psi_inverse,
    sample_celestial,
    sample_phi_celestial,
    validate_gff,
)
from phinull.linalg import (
    CausalCharacter,
    CausalCharacterError,
    GeometryError,
    ScalarProduct,
    causal_character,
    inner,
    matrix_rank,
)
from phinull.submersion import FibrationKind, make_fibration

SAMPLERS = (sample_phi_celestial, sample_celestial)


def test_canonical_small_structure():
    S = canonical_structure(1, 1)
    assert S.dim == 3
    assert S.epsilon.tolist() == [-1.0]
    assert matrix_rank(S.phi) == 2
    assert validate_gff(S).passed


def test_canonical_epsilon_pattern():
    S = canonical_structure(2, 3)
    assert S.epsilon.tolist() == [-1.0, 1.0, 1.0]
    assert validate_gff(S).passed


def test_refuses_degenerate_parameters():
    with pytest.raises(ValueError):
        canonical_structure(1, 0)  # s = 0: almost complex case is out of scope
    with pytest.raises(ValueError):
        canonical_structure(0, 2)


def test_validate_detects_phi_perturbation_with_predicted_residual():
    S = canonical_structure(2, 2)
    phi = S.phi.copy()
    phi[0, 0] += 1e-3
    perturbed = dataclasses.replace(S, phi=phi)
    report = validate_gff(perturbed)
    assert not report.passed
    cubic = {c.name: c for c in report.checks}["phi_cubed_plus_phi"]
    expected = np.abs(phi @ phi @ phi + phi).max()
    assert not cubic.passed
    assert cubic.residual == pytest.approx(expected, rel=1e-12)
    assert 1e-4 < cubic.residual < 1e-2


def test_validate_detects_forced_duality_break():
    S = canonical_structure(1, 2)
    eta = S.eta.copy()
    eta[0] = 0.0  # forces eta^1(xi_1) = 0
    report = validate_gff(dataclasses.replace(S, eta=eta))
    names = {c.name for c in report.failing()}
    assert "eta_xi_duality" in names


def test_structure_invariants_on_generic_coordinates():
    S = conjugated_structure(2, 3, seed=5)
    assert validate_gff(S).passed
    assert abs(np.trace(S.phi)) < 1e-10
    assert matrix_rank(S.phi) == 2 * S.n
    gram = S.xi @ S.g.components @ S.xi.T
    assert np.abs(gram - np.diag(S.epsilon)).max() < 1e-10
    # Im(phi) orthogonal to ker(phi)
    assert np.abs(S.xi @ S.g.components @ S.phi).max() < 1e-10


def test_phi_celestial_sampler_canonical_plane():
    S = canonical_structure(1, 1)
    pts = sample_phi_celestial(S, 32, seed=0)
    assert np.abs(pts[:, 2]).max() < 1e-12  # inside the first coordinate plane
    assert np.abs(np.linalg.norm(pts[:, :2], axis=1) - 1.0).max() < 1e-12


def test_phi_celestial_points_are_spacelike_and_deterministic():
    S = conjugated_structure(2, 2, seed=3)
    sample = sample_phi_celestial(S, 16, seed=5)
    again = sample_phi_celestial(S, 16, seed=5)
    assert np.array_equal(sample, again)
    for x in sample:
        assert causal_character(S.g, x) is CausalCharacter.SPACELIKE
        phix = S.phi @ x
        # phi x is unit, spacelike, orthogonal to x
        assert inner(S.g, phix, phix) == pytest.approx(1.0, abs=1e-10)
        assert inner(S.g, x, phix) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        sample_phi_celestial(S, 0, seed=1)


def test_other_sampler_kinds_satisfy_their_constraints():
    S = conjugated_structure(1, 2, seed=11)
    z = S.timelike_frame_vector
    for u in z + sample_celestial(S, 8, seed=2):
        assert abs(inner(S.g, u, u)) < 1e-12
        assert inner(S.g, u, z) == pytest.approx(-1.0, abs=1e-12)
    for u in z + sample_phi_celestial(S, 8, seed=2):
        assert abs(inner(S.g, u, u)) < 1e-12
        assert np.abs(S.eta @ (u - z)).max() < 1e-12
    for x in sample_celestial(S, 8, seed=2):
        assert inner(S.g, x, x) == pytest.approx(1.0, abs=1e-12)


def test_phi_image_frame_is_orthonormal():
    S = conjugated_structure(2, 3, seed=21)
    frame = S.image_frame
    assert frame.dim == 2 * S.n
    assert np.allclose(frame.gram, np.eye(frame.dim), atol=1e-12)


def test_psi_defining_identities():
    S = canonical_structure(1, 1)
    u = S.xi[0] + np.eye(3)[0]
    assert abs(inner(S.g, u, u)) < 1e-14
    assert inner(S.g, u, S.xi[0]) == pytest.approx(-1.0)
    assert np.allclose(psi(S, u), np.eye(3)[0])


def test_psi_round_trips_on_sphere_points():
    S = conjugated_structure(2, 2, seed=7)
    for x in sample_celestial(S, 100, seed=13):
        u = psi_inverse(S, x)
        assert np.abs(psi(S, u) - x).max() < 1e-12
        assert abs(inner(S.g, u, u)) < 1e-12
        assert inner(S.g, u, S.xi[0]) == pytest.approx(-1.0, abs=1e-12)


def test_psi_rejects_wrong_normalization():
    S = canonical_structure(1, 1)
    with pytest.raises(CausalCharacterError, match="null vector"):
        psi(S, 2.0 * S.xi[0] + np.eye(3)[0])  # not null
    with pytest.raises(CausalCharacterError, match=r"g\(u, xi_1\) = -1"):
        psi(S, 2.0 * (S.xi[0] + np.eye(3)[0]))  # null, g(u, xi_1) = -2
    with pytest.raises(CausalCharacterError, match="unit vector"):
        psi_inverse(S, 2.0 * np.eye(3)[0])  # not unit
    with pytest.raises(CausalCharacterError, match=r"g\(x, xi_1\) = 0"):
        psi_inverse(S, np.sqrt(2.0) * np.eye(3)[0] + S.xi[0])  # unit, g(x, xi_1) = -1


def test_phi_null_restriction_of_psi():
    # u in the phi-null congruence iff psi(u) in the phi-celestial sphere
    S = conjugated_structure(1, 3, seed=15)
    for u in S.timelike_frame_vector + sample_phi_celestial(S, 10, seed=4):
        x = psi(S, u)
        assert np.abs(S.eta @ x).max() < 1e-12


def test_shape_mismatch_raises():
    S = canonical_structure(1, 1)
    with pytest.raises(ValueError):
        GffStructure(n=1, s=1, g=S.g, phi=S.phi[:2, :2], xi=S.xi, eta=S.eta, epsilon=S.epsilon)


def _perturbed(S: GffStructure, fields, size: float, seed: int) -> GffStructure:
    """S with every entry of the named fields moved by up to ``size`` (the metric kept symmetric)."""
    rng = np.random.default_rng(seed)
    changes = {name: getattr(S, name) + size * rng.uniform(-1.0, 1.0, getattr(S, name).shape)
               for name in fields if name != "metric"}
    if "metric" in fields:
        noise = size * rng.uniform(-1.0, 1.0, (S.dim, S.dim))
        changes["g"] = ScalarProduct.from_matrix(S.g.components + 0.5 * (noise + noise.T))
    return dataclasses.replace(S, **changes)


_structures = st.one_of(
    st.sampled_from([(1, 1), (2, 2), (4, 3), (5, 2)]).map(lambda ns: canonical_structure(*ns)),
    st.builds(conjugated_structure, st.integers(1, 3), st.integers(1, 3), st.integers(0, 20)),
)
_fields = st.lists(st.sampled_from(["metric", "phi", "xi", "eta", "epsilon"]), min_size=1, max_size=5,
                   unique=True)


@settings(max_examples=150, deadline=None)
@given(_structures, _fields, st.floats(-12.0, -9.5), st.integers(0, 2**32 - 1))
def test_a_validated_structure_samples_without_error(S, fields, log_size, seed):
    # The sampler checks judge each constraint by the validated identities it combines, so
    # whatever validate_gff lets through samples: the absolute 1e-12 check rejected thousands
    # of such structures (metric, phi, xi or eta off by 1e-12 to 3e-10). It also builds every
    # fibration its s allows: sigma is a count of the vertical signs, and each horizontal row's
    # pairings with the vertical frame are judged by the samplers' bound.
    T = _perturbed(S, fields, 10.0**log_size, seed)
    if validate_gff(T).passed:
        for sampler in SAMPLERS:
            assert sampler(T, 64, seed % 1000).shape == (64, T.dim)
        kinds = [FibrationKind.PI_PRIME] if T.s == 1 else [
            FibrationKind.PI_FULL, FibrationKind.TAU, FibrationKind.REMARK_SASAKI]
        for kind in kinds:
            assert make_fibration(T, kind).kind is kind


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1), (2, 2), (4, 3), (5, 2)]), st.sampled_from(["metric", "eta"]),
       st.integers(0, 9), st.sampled_from([-1e-6, 1e-6]))
def test_a_structure_off_by_1e_6_is_rejected_by_validation_and_by_the_samplers(ns, field, i, delta):
    # Coupling an Im(phi) coordinate to xi_1 (through g or eta) by 1e-6 moves Im(phi) samples off
    # g(x, xi_1) = 0 or eta(x) = 0 by far more than the sampler tolerance (at most ~4e-9 here).
    # The full celestial sphere is built from xi_1's own complement, so it still samples.
    S = canonical_structure(*ns)
    i %= 2 * S.n
    if field == "metric":
        G = S.g.components.copy()
        G[i, 2 * S.n] = G[2 * S.n, i] = delta
        T = dataclasses.replace(S, g=ScalarProduct.from_matrix(G))
    else:
        eta = S.eta.copy()
        eta[0, i] = delta
        T = dataclasses.replace(S, eta=eta)
    assert not validate_gff(T).passed
    with pytest.raises(GeometryError, match="violates S_phi constraints"):
        sample_phi_celestial(T, 64, 0)
    sample_celestial(T, 64, 0)
