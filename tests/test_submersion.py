"""Fibration models: integrability tensor, curvature transfer, theorem report."""

import dataclasses
import functools
import importlib
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bf_form_matrix,
    bf_transfer_form,
    conjugated_structure,
    decide_constancy_loop,
    exact,
    horizontal_draw,
    records_loop,
    stack_records,
)
from phinull.curvature import constant_curvature, phi_model_family, random_algebraic_curvature
from phinull.gff import canonical_structure, sample_phi_celestial
from phinull.cli import run
from phinull.io import dump_json, generate_instance, save_instance
from phinull.jacobi import (
    DEFAULT_GROUPING_TOL,
    DEFAULT_SAMPLES,
    CausalCharacter,
    SpectralData,
    decide_constancy,
    is_null_osserman_wrt,
    is_phi_null_osserman_wrt,
    jacobi_covectors,
    jacobi_stack,
    null_jacobi_stack,
    sample_unit_causal,
    slot4_contraction,
    spectrum,
)
from phinull.linalg import GeometryError, ScalarProduct, inner, nullspace
from phinull.submersion import (
    FibrationKind,
    _a_coefficients,
    _hypothesis_residuals,
    _sentinel_frame,
    _shift_identity_defects,
    RemarkKind,
    base_null_osserman_check,
    base_null_stack,
    base_osserman_check,
    make_fibration,
    oneill_A,
    r_star,
    r_star_form,
    r_star_stack,
    remark_sectional_conditions,
    shift_identity_residual,
    theorem_equivalence_report,
    transfer_forms,
    vertical_part,
)

KINDS_S2 = (FibrationKind.PI_FULL, FibrationKind.TAU, FibrationKind.REMARK_SASAKI)


# -- splittings ---------------------------------------------------------------

def test_fibration_dimensions_and_sigma():
    S = canonical_structure(2, 3)
    pi = make_fibration(S, FibrationKind.PI_FULL)
    assert (pi.horizontal.dim, pi.vertical.dim, pi.sigma) == (4, 3, 1.0)
    tau = make_fibration(S, FibrationKind.TAU)
    assert (tau.horizontal.dim, tau.vertical.dim, tau.sigma) == (5, 2, 2.0)
    remark = make_fibration(S, FibrationKind.REMARK_SASAKI)
    assert (remark.horizontal.dim, remark.vertical.dim, remark.sigma) == (5, 2, 0.0)


def test_fibration_preconditions():
    with pytest.raises(ValueError):
        make_fibration(canonical_structure(1, 1), FibrationKind.TAU)
    with pytest.raises(ValueError):
        make_fibration(canonical_structure(1, 1), FibrationKind.PI_FULL)
    with pytest.raises(ValueError):
        make_fibration(canonical_structure(1, 2), FibrationKind.PI_PRIME)
    prime = make_fibration(canonical_structure(2, 1), FibrationKind.PI_PRIME)
    assert prime.sigma == -1.0


@pytest.mark.parametrize("kind, epsilon", [
    (FibrationKind.PI_FULL, [-1.0, -1.0]), (FibrationKind.TAU, [-1.0, -1.0]),
    (FibrationKind.REMARK_SASAKI, [1.0, 1.0]), (FibrationKind.PI_PRIME, [1.0]),
])
def test_fibration_refuses_vertical_signs_that_miss_sigma(kind, epsilon):
    # signs no Lorentzian frame has: each kind's vertical sign sum misses its sigma by 1 or 2
    S = dataclasses.replace(canonical_structure(2, len(epsilon)), epsilon=np.array(epsilon))
    with pytest.raises(GeometryError, match="disagrees with the vertical sign sum"):
        make_fibration(S, kind)


@pytest.mark.parametrize("kind", KINDS_S2)
def test_fibration_refuses_a_splitting_off_by_1e_6(kind):
    # e_0 in Im(phi) coupled to both frame vectors through g, far above its row's bound of 9e-10
    S = canonical_structure(2, 2)
    G = S.g.components.copy()
    G[0, 4:] = G[4:, 0] = 1e-6
    with pytest.raises(GeometryError, match="splitting is not g-orthogonal: residual 1.000e-06"):
        make_fibration(dataclasses.replace(S, g=ScalarProduct.from_matrix(G)), kind)


def test_fibration_splitting_is_orthogonal_in_generic_coordinates():
    S = conjugated_structure(2, 3, seed=31)
    for kind in KINDS_S2:
        F = make_fibration(S, kind)
        cross = F.horizontal.vectors @ S.g.components @ F.vertical.vectors.T
        assert np.abs(cross).max() < 1e-10
        assert F.horizontal.dim + F.vertical.dim == S.dim


# -- integrability tensor -----------------------------------------------------

def test_A_on_timelike_frame_anchor():
    # A_x xi_1 = -epsilon_1 phi x = +phi x for the full projection
    S = canonical_structure(2, 3)
    F = make_fibration(S, FibrationKind.PI_FULL)
    x = sample_phi_celestial(S, 1, seed=0)[0]
    assert np.abs(oneill_A(F, x, S.xi[0]) - S.phi @ x).max() < 1e-12
    # spacelike frame directions: A_x xi_a = -phi x
    assert np.abs(oneill_A(F, x, S.xi[1]) + S.phi @ x).max() < 1e-12


def test_A_alternation_and_skew_adjointness():
    S = conjugated_structure(2, 2, seed=33)
    rng = np.random.default_rng(0)
    for kind in KINDS_S2:
        F = make_fibration(S, kind)
        for _ in range(25):
            X, Y = horizontal_draw(F, rng), horizontal_draw(F, rng)
            assert np.abs(oneill_A(F, X, Y) + oneill_A(F, Y, X)).max() < 1e-10
            # g-skew-adjointness against horizontal and vertical arguments
            W = horizontal_draw(F, rng)
            lhs = inner(S.g, oneill_A(F, X, Y), oneill_A(F, X, W))
            # A_X maps H to V and back; skewness: g(A_X Y, A_X W) = -g(Y, A_X A_X W)
            rhs = -inner(S.g, Y, oneill_A(F, X, oneill_A(F, X, W)))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_A_skew_adjointness_mixed_arguments():
    # g(A_X Y, W) = -g(Y, A_X W) with Y horizontal and W vertical (the
    # nontrivial pairing: A_X swaps the two subspaces)
    S = conjugated_structure(2, 3, seed=34)
    rng = np.random.default_rng(8)
    for kind in KINDS_S2:
        F = make_fibration(S, kind)
        for _ in range(20):
            X, Y = horizontal_draw(F, rng), horizontal_draw(F, rng)
            W = rng.standard_normal(F.vertical.dim) @ F.vertical.vectors
            lhs = inner(S.g, oneill_A(F, X, Y), W)
            rhs = -inner(S.g, Y, oneill_A(F, X, W))
            assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("structure", [
    canonical_structure(2, 2), canonical_structure(1, 4),
    conjugated_structure(2, 2, seed=1), conjugated_structure(2, 2, seed=2), conjugated_structure(1, 4, seed=3),
], ids=["canonical-2-2", "canonical-1-4", "conjugated-2-2-1", "conjugated-2-2-2", "conjugated-1-4-3"])
def test_remark_sasaki_A_follows_the_papers_rule(structure):
    # The paper writes A_X Y = g(Y, phi X) V for the remark_sasaki base. The engine has one rule,
    # -g(X, phi Y) V, for every kind: the same number, since a valid phi is skew-adjoint for g.
    S = structure
    F = make_fibration(S, FibrationKind.REMARK_SASAKI)
    rng = np.random.default_rng(11)
    xs = np.array([horizontal_draw(F, rng) for _ in range(6)])
    rows = np.array([[horizontal_draw(F, rng) for _ in range(3)] for _ in xs])
    for x, y in zip(xs, rows[:, 0]):
        paper = inner(S.g, y, S.phi @ x) * F.vertical_sum
        assert np.abs(oneill_A(F, x, y) - paper).max() <= 1e-13 * max(np.abs(paper).max(), 1.0)
    a, b = _a_coefficients(F, xs, rows)
    d_phi_x = np.array([[inner(S.g, d, S.phi @ x) for d in ds] for x, ds in zip(xs, rows)])
    x_phi_d = np.array([[inner(S.g, x, S.phi @ d) for d in ds] for x, ds in zip(xs, rows)])
    scale = max(np.abs(d_phi_x).max(), 1.0)
    assert np.abs(a - d_phi_x).max() <= 1e-13 * scale
    assert np.abs(b - x_phi_d).max() <= 1e-13 * scale


def test_A_output_spaces():
    S = conjugated_structure(1, 3, seed=35)
    rng = np.random.default_rng(1)
    for kind in KINDS_S2:
        F = make_fibration(S, kind)
        X, Y = horizontal_draw(F, rng), horizontal_draw(F, rng)
        a_h = oneill_A(F, X, Y)
        assert np.abs(a_h - vertical_part(F, a_h)).max() < 1e-9
        vert = F.vertical.vectors[0]
        a_v = oneill_A(F, X, vert)
        assert np.abs(vertical_part(F, a_v)).max() < 1e-9


def test_A_rejects_bad_arguments():
    S = canonical_structure(1, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    x = sample_phi_celestial(S, 1, seed=0)[0]
    with pytest.raises(GeometryError):
        oneill_A(F, S.xi[0], x)  # vertical first argument
    with pytest.raises(GeometryError):
        oneill_A(F, x, x + S.xi[0])  # mixed second argument


def test_A_composition_law_every_kind():
    rng = np.random.default_rng(2)
    cases = [
        (FibrationKind.PI_FULL, 2, 3),
        (FibrationKind.TAU, 2, 3),
        (FibrationKind.REMARK_SASAKI, 1, 4),
        (FibrationKind.PI_PRIME, 2, 1),
    ]
    for kind, n, s in cases:
        S = conjugated_structure(n, s, seed=100 + s)
        F = make_fibration(S, kind)
        for i in range(25):
            x = sample_phi_celestial(S, 1, seed=1000 + i)[0]
            y = horizontal_draw(F, rng)
            composed = oneill_A(F, x, oneill_A(F, x, y))
            predicted = -F.sigma * inner(S.g, y, S.phi @ x) * (S.phi @ x)
            assert np.abs(composed - predicted).max() < 1e-10


# -- curvature transfer -------------------------------------------------------

def test_r_star_zero_curvature_sigma_zero():
    S = canonical_structure(2, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    assert F.sigma == 0.0
    R = constant_curvature(S.g, 0.0)
    x = sample_phi_celestial(S, 1, seed=0)[0]
    assert np.abs(r_star(R, S.g, F, x).matrix).max() < 1e-12


def test_r_star_constant_curvature_closed_form():
    # Rstar_x y = c y + 3(s-2) g(y, phi x) phi x on x-perp in Im(phi)
    S = conjugated_structure(2, 3, seed=41)
    c = -1.5
    R = constant_curvature(S.g, c)
    F = make_fibration(S, FibrationKind.PI_FULL)
    x = sample_phi_celestial(S, 1, seed=3)[0]
    op = r_star(R, S.g, F, x)
    phix = S.phi @ x
    for j, y in enumerate(op.domain.vectors):
        predicted = c * y + 3.0 * (S.s - 2) * inner(S.g, y, phix) * phix
        realized = op.matrix[:, j] @ op.domain.vectors
        assert np.abs(realized - predicted).max() < 1e-10


def test_r_star_spectra_on_family_with_oracle():
    S = canonical_structure(2, 3)
    a, b = 1.0, 1.0
    R = phi_model_family(S, a, b)
    F_pi = make_fibration(S, FibrationKind.PI_FULL)
    F_tau = make_fibration(S, FibrationKind.TAU)
    for x in sample_phi_celestial(S, 10, seed=4):
        pi_data = spectrum(r_star(R, S.g, F_pi, x))
        assert pi_data.multiplicities == (2, 1)
        assert np.abs(np.array(pi_data.eigenvalues) - [a, a + 3 * b + 3 * (S.s - 2)]).max() < 1e-9
        tau_data = spectrum(r_star(R, S.g, F_tau, x))
        assert tau_data.multiplicities == (3, 1)
        assert tau_data.eigenvalues[1] == pytest.approx(a + 3 * b + 3 * (S.s - 1), abs=1e-9)


def test_r_star_requires_unit_horizontal_base():
    S = canonical_structure(1, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    R = constant_curvature(S.g, 1.0)
    with pytest.raises(GeometryError):
        r_star(R, S.g, F, S.xi[1])  # vertical
    x = sample_phi_celestial(S, 1, seed=0)[0]
    with pytest.raises(GeometryError):
        r_star(R, S.g, F, 2.0 * x)  # not unit


# -- shift identity -----------------------------------------------------------

def _v_draw(S, x, rng):
    """Random vector in x-perp within Im(phi)."""
    frame = S.image_frame
    weights = frame.vectors @ S.g.components @ x
    combos = nullspace(weights[None, :])
    coeffs = rng.standard_normal(combos.shape[0])
    return coeffs @ combos @ frame.vectors


def test_shift_identity_for_random_tensors_all_kinds():
    rng = np.random.default_rng(5)
    cases = [
        (FibrationKind.PI_FULL, 2, 3),
        (FibrationKind.TAU, 1, 3),
        (FibrationKind.PI_PRIME, 2, 1),
        (FibrationKind.REMARK_SASAKI, 1, 2),
    ]
    for kind, n, s in cases:
        S = conjugated_structure(n, s, seed=50 + s)
        F = make_fibration(S, kind)
        for seed in range(10):
            R = random_algebraic_curvature(S.g, seed=seed)
            x = sample_phi_celestial(S, 1, seed=seed)[0]
            y = _v_draw(S, x, rng)
            check = shift_identity_residual(R, S, F, x, y)
            assert check.residual < 1e-9
            assert check.sigma == F.sigma


def test_shift_identity_s2_exactness():
    # sigma = 0 under the full projection at s = 2: Rstar equals the projected
    # Jacobi operator on V entry by entry
    S = canonical_structure(2, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    assert F.sigma == 0.0
    R = random_algebraic_curvature(S.g, seed=9)
    x = sample_phi_celestial(S, 1, seed=1)[0]
    op = r_star(R, S.g, F, x)
    V = op.domain
    form = bf_form_matrix(R.components, V.vectors, x)
    projected = np.linalg.solve(V.gram, form)
    assert np.abs(op.matrix - projected).max() < 1e-10


def test_shift_identity_s1_sign():
    # s = 1: the shift is -3 g(y, phi x) phi x
    S = conjugated_structure(2, 1, seed=61)
    F = make_fibration(S, FibrationKind.PI_PRIME)
    a, b = 0.3, 0.8
    R = phi_model_family(S, a, b)
    x = sample_phi_celestial(S, 1, seed=0)[0]
    op = r_star(R, S.g, F, x)
    phix = S.phi @ x
    for j, y in enumerate(op.domain.vectors):
        realized = op.matrix[:, j] @ op.domain.vectors
        jacobi_action = a * y + 3 * b * inner(S.g, y, phix) * phix
        direct = jacobi_action - 3.0 * inner(S.g, y, phix) * phix
        assert np.abs(realized - direct).max() < 1e-9


def test_shift_identity_rejects_y_outside_v():
    S = canonical_structure(1, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    R = constant_curvature(S.g, 1.0)
    x = sample_phi_celestial(S, 1, seed=0)[0]
    with pytest.raises(ValueError):
        shift_identity_residual(R, S, F, x, S.xi[1])


def test_v_leak_reported_for_generic_tensors():
    S = canonical_structure(2, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    R = random_algebraic_curvature(S.g, seed=12)
    x = sample_phi_celestial(S, 1, seed=2)[0]
    check = shift_identity_residual(R, S, F, x, S.phi @ x)
    assert check.residual < 1e-9
    assert check.v_leak > 1e-3  # generic tensors do not preserve V
    family_check = shift_identity_residual(phi_model_family(S, 1, 1), S, F, x, S.phi @ x)
    assert family_check.v_leak < 1e-10  # curated family does


# -- base condition checks ----------------------------------------------------

def test_base_osserman_family_passes_random_fails():
    S = canonical_structure(2, 3)
    F = make_fibration(S, FibrationKind.PI_FULL)
    good = base_osserman_check(phi_model_family(S, 1, 1), S, F, samples=16, seed=0)
    assert good.passed
    assert [g["eigenvalue"] for g in good.groups] == pytest.approx([1.0, 7.0], abs=1e-9)
    bad = base_osserman_check(random_algebraic_curvature(S.g, seed=3), S, F, samples=16, seed=0)
    assert not bad.passed
    flat = base_osserman_check(constant_curvature(S.g, -2.0), S, F, samples=8, seed=0)
    assert flat.passed
    with pytest.raises(ValueError):
        base_osserman_check(phi_model_family(S, 1, 1), S, make_fibration(S, FibrationKind.TAU))


def test_base_null_osserman_family_passes_random_fails():
    S = canonical_structure(2, 3)
    F = make_fibration(S, FibrationKind.TAU)
    b = 1.0
    good = base_null_osserman_check(phi_model_family(S, 1.0, b), S, F, samples=16, seed=0)
    assert good.passed
    # quotient spectrum {0 (2n-2), 3b + 3(s-1) simple}
    assert good.records[0].spectrum.multiplicities == (2, 1)
    assert good.records[0].spectrum.eigenvalues[1] == pytest.approx(3 * b + 3 * (S.s - 1), abs=1e-9)
    bad = base_null_osserman_check(random_algebraic_curvature(S.g, seed=4), S, F, samples=16, seed=0)
    assert not bad.passed
    with pytest.raises(ValueError):
        base_null_osserman_check(phi_model_family(S, 1, 1), S, make_fibration(S, FibrationKind.PI_FULL))


def test_base_null_constant_curvature_passes():
    S = canonical_structure(1, 2)
    F = make_fibration(S, FibrationKind.TAU)
    report = base_null_osserman_check(constant_curvature(S.g, -2.0), S, F, samples=8, seed=0)
    assert report.passed


# -- theorem report -----------------------------------------------------------

def test_theorem_family_all_pass_with_hypothesis():
    S = conjugated_structure(2, 3, seed=71)
    R = phi_model_family(S, -0.7, 1.3)
    report = theorem_equivalence_report(R, S, samples=12, seed=0)
    assert report.hypothesis_holds
    assert report.verdicts == {
        "phi_null_osserman": True,
        "base_osserman": True,
        "base_null_osserman": True,
    }
    assert report.agreement_required and report.agreement_holds
    assert report.agreement_scope == "all-three"
    assert report.internal_consistency_ok
    payload = report.to_dict()
    assert payload["hypothesis_flag"] is True
    assert payload["internal_consistency"] == "ok"
    assert set(payload["per_sample_spectra"]) == {
        "phi_null_direct", "phi_null_quotient", "base_osserman", "base_null_osserman",
    }


def test_theorem_random_s3_reports_without_assertion():
    S = canonical_structure(1, 3)
    R = random_algebraic_curvature(S.g, seed=13)
    report = theorem_equivalence_report(R, S, samples=10, seed=1)
    assert not report.hypothesis_holds
    assert not report.agreement_required
    assert report.agreement_holds is None
    assert report.internal_consistency_ok  # the algebraic identity still holds


def test_theorem_random_s2_asserts_two_way_agreement():
    S = canonical_structure(2, 2)
    R = random_algebraic_curvature(S.g, seed=14)
    report = theorem_equivalence_report(R, S, samples=10, seed=1)
    assert not report.hypothesis_holds
    assert report.agreement_required
    assert report.agreement_scope == "phi-null-vs-base"
    assert report.agreement_holds  # both fail, hence agree
    assert not report.verdicts["phi_null_osserman"]
    assert not report.verdicts["base_osserman"]


def test_theorem_tampered_sigma_trips_sentinel():
    S = canonical_structure(2, 3)
    R = phi_model_family(S, 1.0, 1.0)
    F = make_fibration(S, FibrationKind.PI_FULL)
    tampered = dataclasses.replace(F, sigma=F.sigma + 1.0)
    report = theorem_equivalence_report(R, S, samples=6, seed=0, pi_fibration=tampered)
    assert not report.internal_consistency_ok
    assert report.sigma_identity_residual > 1e-3


STOCK = [(family, n, s, seed) for family in ("constant", "phi_model", "random")
         for n, s in ((2, 2), (4, 3), (5, 2)) for seed in (0, 1, 56)]


@pytest.mark.parametrize("family, n, s, seed", STOCK)
def test_theorem_shares_pieces_without_changing_a_bit(family, n, s, seed):
    inst = generate_instance(family, n, s, seed=7)
    R, S = inst.curvature, inst.structure
    report = theorem_equivalence_report(R, S, seed=seed)
    # the deciders run alone, each on its own sphere and contractions
    F_pi, F_tau = make_fibration(S, FibrationKind.PI_FULL), make_fibration(S, FibrationKind.TAU)
    alone = {
        "phi_null": is_phi_null_osserman_wrt(R, S, seed=seed),
        "base": base_osserman_check(R, S, F_pi, seed=seed),
        "base_null": base_null_osserman_check(R, S, F_tau, seed=seed),
    }
    for name, decision in alone.items():
        assert dump_json(getattr(report, name).to_dict()) == dump_json(decision.to_dict()), name
    # the residuals, each fibration with pieces of its own
    sphere = sample_phi_celestial(S, DEFAULT_SAMPLES, seed)
    hypothesis = _hypothesis_residuals(slot4_contraction(R, sphere), S, sphere).max()
    sentinel = 0.0
    for F in (F_pi, F_tau):
        frame = _sentinel_frame(slot4_contraction(R, sphere), S, sphere)
        defects, scales = _shift_identity_defects(S.g, F, sphere, frame)
        sentinel = max(sentinel, float((np.abs(defects).max(axis=(1, 2)) / scales).max()))
    assert report.hypothesis_residual == hypothesis
    assert report.sigma_identity_residual == sentinel


# verify-theorem: one x-perp frame and one covector stack on the sphere for the pi stack and the
# sentinel, beside the direct stack's, the two null stacks' and the hypothesis residual's covectors
@pytest.mark.parametrize("argv, expected", [
    (["verify-theorem"], {"sphere": 1, "frame": 1, "slot4": 2, "ambient": 2, "domains": 4, "covectors": 5}),
    (["check", "--condition", "phi-null-osserman"],
     {"sphere": 1, "frame": 1, "slot4": 2, "ambient": 2, "domains": 2, "covectors": 2}),
    (["remarks", "--kind", "lorentz_sasaki_base"],
     {"sphere": 1, "frame": 1, "slot4": 1, "ambient": 0, "domains": 0, "covectors": 1}),
], ids=["verify-theorem", "check-phi-null", "remarks"])
def test_one_sphere_one_frame_one_contraction_per_stack(tmp_path, monkeypatch, argv, expected):
    import phinull.gff as gff

    # the package exports a function named jacobi, so the module comes from importlib
    jacobi_module, submersion_module = map(importlib.import_module, ("phinull.jacobi", "phinull.submersion"))

    path = str(tmp_path / "instance.json")
    save_instance(path, generate_instance("phi_model", 2, 2))
    counts = {"sphere": 0, "frame": 0, "slot4": 0, "ambient": 0, "domains": 0, "covectors": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gff, "sample_unit_sphere", counted("sphere", gff.sample_unit_sphere))
    frame = gff.GffStructure.image_frame  # the cached property; its func builds the frame
    monkeypatch.setattr(frame, "func", counted("frame", frame.func))
    for key, name in (("slot4", "slot4_contraction"), ("domains", "reflected_domains"),
                      ("covectors", "jacobi_covectors")):
        wrapped = counted(key, getattr(jacobi_module, name))
        for module in (jacobi_module, submersion_module):  # every module that looks it up
            monkeypatch.setattr(module, name, wrapped)
    # one ambient frame per stack on the whole space: the direct and the quotient stack
    ambient = counted("ambient", jacobi_module.orthonormal_frame)
    monkeypatch.setattr(jacobi_module, "orthonormal_frame", ambient)
    assert run([argv[0], path, *argv[1:]]) == 0
    assert counts == expected


@pytest.mark.parametrize("argv, code, solves", [
    (["verify-theorem"], 0, 2),
    (["check", "--condition", "osserman"], 1, 0),
    (["check", "--condition", "osserman", "--causal-kind", "timelike"], 1, 0),
    (["check", "--condition", "null-osserman"], 1, 0),
    (["check", "--condition", "phi-null-osserman"], 0, 0),
    (["spectrum", "--vector", "0,0,0,0,1,0"], 0, 0),
    (["spectrum", "--vector", "1,0,0,0,1,0"], 0, 0),
    (["spectrum", "--vector", "1,0,0,0,0,0"], 0, 0),
], ids=["verify-theorem", "osserman", "osserman-timelike", "null-osserman", "phi-null-osserman",
        "spectrum-timelike", "spectrum-null", "spectrum-spacelike"])
def test_stacked_paths_neither_factor_nor_solve_a_gram(tmp_path, monkeypatch, argv, code, solves):
    # every stacked domain is built g-orthonormal, the one-base operators of spectrum too: no
    # Cholesky factor anywhere, and the only solves are against the metric, by the sentinel
    # (R_x raised through g^-1) and the hypothesis residual
    path = str(tmp_path / "instance.json")
    inst = generate_instance("phi_model", 2, 2)
    save_instance(path, inst)
    solve, matrices = np.linalg.solve, []

    def counted_solve(a, b):
        matrices.append(a)
        return solve(a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram was factored")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    assert run([argv[0], path, *argv[1:]]) == code
    assert len(matrices) == solves
    assert all(np.array_equal(a, inst.structure.g.components) for a in matrices)


def test_theorem_refuses_fibrations_of_another_structure():
    # the report shares one sphere and its contractions with both fibrations
    S, other = canonical_structure(2, 2), canonical_structure(2, 2)
    R = phi_model_family(S, 1.0, 1.0)
    with pytest.raises(ValueError, match="fibrations of its own structure"):
        theorem_equivalence_report(R, S, samples=4, pi_fibration=make_fibration(other, FibrationKind.PI_FULL))


@pytest.mark.parametrize("check, kind", [(base_osserman_check, FibrationKind.PI_FULL),
                                         (base_null_osserman_check, FibrationKind.TAU)])
def test_base_deciders_refuse_fibrations_of_another_structure(check, kind):
    # refused, not judged: its per-sample errors would read as a failed verdict on the instance
    S = canonical_structure(2, 3)
    F = make_fibration(conjugated_structure(2, 3, seed=5), kind)
    with pytest.raises(ValueError, match="fibration of its own structure"):
        check(phi_model_family(S, 1.0, 1.0), S, F, samples=4)


def test_theorem_requires_s_at_least_two():
    S = canonical_structure(2, 1)
    with pytest.raises(ValueError):
        theorem_equivalence_report(constant_curvature(S.g, 1.0), S, samples=4)


# -- remark identities --------------------------------------------------------

def test_remark_identity_holds_for_random_tensors():
    S = conjugated_structure(2, 3, seed=81)
    for seed in range(5):
        R = random_algebraic_curvature(S.g, seed=seed)
        for kind in RemarkKind:
            report = remark_sectional_conditions(R, S, kind, samples=10, seed=seed)
            assert report.identity_passed, report.identity_residual_max


def test_remark_necessary_condition_sasaki():
    # s = 3: the flagged condition reads k(x, phi x) = 1
    S = canonical_structure(2, 3)
    R = phi_model_family(S, -2.0, 1.0)  # a + 3b = 1
    report = remark_sectional_conditions(R, S, RemarkKind.SASAKI_BASE, samples=12, seed=0)
    assert report.target == 1.0
    assert report.identity_passed and report.necessary_all
    off = remark_sectional_conditions(phi_model_family(S, 1.0, 1.0), S,
                                      RemarkKind.SASAKI_BASE, samples=12, seed=0)
    assert off.identity_passed and not off.necessary_all


def test_remark_necessary_condition_lorentz_sasaki():
    # s = 2: the flagged condition reads k(x, phi x) = -4
    S = canonical_structure(1, 2)
    report = remark_sectional_conditions(constant_curvature(S.g, -4.0), S,
                                         RemarkKind.LORENTZ_SASAKI_BASE, samples=12, seed=0)
    assert report.target == -4.0
    assert report.identity_passed and report.necessary_all
    report = remark_sectional_conditions(phi_model_family(S, -1.0, -1.0), S,
                                         RemarkKind.LORENTZ_SASAKI_BASE, samples=12, seed=0)
    assert report.identity_passed and report.necessary_all


def test_remark_vertical_norm_equals_sign_sum():
    S = canonical_structure(1, 4)
    R = constant_curvature(S.g, 1.0)
    report = remark_sectional_conditions(R, S, RemarkKind.SASAKI_BASE, samples=4, seed=0)
    for a_norm_sq in report.a_norm_sq:
        assert a_norm_sq == pytest.approx(S.s - 3, abs=1e-10)
    report = remark_sectional_conditions(R, S, RemarkKind.LORENTZ_SASAKI_BASE, samples=4, seed=0)
    for a_norm_sq in report.a_norm_sq:
        assert a_norm_sq == pytest.approx(S.s - 1, abs=1e-10)


def test_full_desk_scale_instance():
    # largest supported size (n=3, s=4, dim 10): all pipelines stay coherent
    S = canonical_structure(3, 4)
    a, b = 0.5, -1.0
    R = phi_model_family(S, a, b)
    report = theorem_equivalence_report(R, S, samples=6, seed=0)
    assert report.hypothesis_holds and report.internal_consistency_ok
    assert report.agreement_holds
    direct = report.phi_null.direct.records[0].spectrum
    assert direct.multiplicities == (1, 8)  # a+3b = -2.5 below a = 0.5
    assert direct.eigenvalues[0] == pytest.approx(a + 3 * b, abs=1e-9)
    base = report.base.records[0].spectrum
    assert base.multiplicities == (4, 1)
    assert base.eigenvalues == pytest.approx([a, a + 3 * b + 3 * (S.s - 2)], abs=1e-9)


def test_r_star_form_symmetry():
    S = conjugated_structure(1, 2, seed=93)
    F = make_fibration(S, FibrationKind.TAU)
    R = random_algebraic_curvature(S.g, seed=15)
    rng = np.random.default_rng(7)
    x = sample_phi_celestial(S, 1, seed=0)[0]
    for _ in range(10):
        y, z = horizontal_draw(F, rng), horizontal_draw(F, rng)
        assert r_star_form(R, S.g, F, x, y, z) == pytest.approx(
            r_star_form(R, S.g, F, x, z, y), abs=1e-9
        )


# -- batched transfer form ----------------------------------------------------

def _families(S):
    return {
        "constant": constant_curvature(S.g, -1.3),
        "phi_model": phi_model_family(S, 0.7, -1.1),
        "random": random_algebraic_curvature(S.g, seed=21),
    }


def _vertical_sum(F):
    """V, the sum of the fibration's vertical frame vectors, from the structure's xi."""
    return F.structure.xi[list(F.vertical_indices)].sum(axis=0)


def _oracle_forms(R, F, xs, domains):
    """B[n, i, j] = g(Rstar_x(d_j), d_i) for x = xs[n], by the brute-force ``bf_transfer_form``."""
    S = F.structure
    return np.array([bf_transfer_form(R.components, S.g.components, S.phi, _vertical_sum(F), x, D)
                     for x, D in zip(xs, domains)])


@pytest.mark.parametrize("conjugated", [False, True])
def test_transfer_forms_match_per_vector_oracle(conjugated):
    S = conjugated_structure(2, 3, seed=17) if conjugated else canonical_structure(2, 3)
    rng = np.random.default_rng(3)
    xs = sample_phi_celestial(S, 5, seed=2)
    for name, R in _families(S).items():
        for kind in KINDS_S2:
            F = make_fibration(S, kind)
            domains = np.array([[horizontal_draw(F, rng) for _ in range(3)] for _ in xs])
            C = jacobi_covectors(slot4_contraction(R, xs), xs, domains)
            batched = transfer_forms(S.g, F, xs, domains, C)
            oracle = _oracle_forms(R, F, xs, domains)
            scale = max(1.0, float(np.abs(oracle).max()))
            assert np.abs(batched - oracle).max() < 1e-12 * scale, (name, kind)
            # the per-vector names are one-row calls of these routes, held to the oracles too
            for x, (z, y, _), B in zip(xs, domains, oracle):
                assert abs(r_star_form(R, S.g, F, x, y, z) - B[0, 1]) < 1e-12 * scale, (name, kind)
                A = -(x @ S.g.components @ S.phi @ z) * _vertical_sum(F)
                assert np.abs(oneill_A(F, x, z) - A).max() <= 1e-13 * max(np.abs(A).max(), 1.0), kind


@pytest.mark.parametrize("conjugated", [False, True])
def test_stacked_base_operators_match_per_vector_assembly(conjugated):
    S = conjugated_structure(2, 2, seed=19) if conjugated else canonical_structure(2, 2)
    xs = sample_phi_celestial(S, 6, seed=4)
    F_pi = make_fibration(S, FibrationKind.PI_FULL)
    F_tau = make_fibration(S, FibrationKind.TAU)
    for name, R in _families(S).items():
        us = S.xi[0] + xs
        for build, F, bases in ((r_star_stack, F_pi, xs), (base_null_stack, F_tau, us)):
            stack = build(slot4_contraction(R, bases), S.g, F, bases)
            assert stack.errors == [None] * len(xs)
            oracle = _oracle_forms(R, F, stack.bases, stack.domains)
            oracle = 0.5 * (oracle + oracle.transpose(0, 2, 1))
            rows = zip(stack.bases, stack.domains, stack.signs, stack.matrices, oracle)
            for base, D, signs, matrix, B in rows:
                # the domain: horizontal, g-orthogonal to the base, of full rank, g-orthonormal
                # with its signs, so the operator is signs * B
                assert np.abs(vertical_part(F, D)).max() < 1e-10
                assert np.abs(D @ S.g.components @ base).max() < 1e-10
                assert np.linalg.matrix_rank(D) == D.shape[0]
                assert np.abs(D @ S.g.components @ D.T - np.diag(signs)).max() < 1e-12
                assert np.abs(matrix - signs[:, None] * B).max() < 1e-10, (name, F.kind)


def _oracle_base_domain(G, H, base, null):
    """Rows of base-perp within the span of H from an SVD, and for a null base the restricted
    Gram's nondegenerate eigendirections: the bases the engine used before its reflections."""
    _, _, vh = np.linalg.svd((base @ G @ H.T)[None])
    perp = vh[1:] @ H
    if not null:
        return perp
    evals, evecs = np.linalg.eigh(perp @ G @ perp.T)
    return evecs[:, np.abs(evals) > 1e-9 * np.abs(evals).max()].T @ perp


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**16), st.booleans())
def test_reflected_base_domains_match_the_oracle_spectra(conjugation, seed, axis):
    # x on the phi-celestial sphere, or along a frame axis of Im(phi); u = xi_1 + x
    S = canonical_structure(2, 3) if conjugation == 0 else conjugated_structure(2, 3, seed=conjugation)
    x = S.image_frame.vectors[seed % (2 * S.n)] if axis else sample_phi_celestial(S, 1, seed)[0]
    G = S.g.components
    for kind, build, base, null in ((FibrationKind.PI_FULL, r_star_stack, x, False),
                                    (FibrationKind.TAU, base_null_stack, S.xi[0] + x, True)):
        F = make_fibration(S, kind)
        for name, R in _families(S).items():
            stack = build(slot4_contraction(R, base[None]), S.g, F, base[None])
            D, signs = stack.domains[0], stack.signs[0]
            # g-orthonormal, horizontal and g-orthogonal to the base, at round-off of their scale
            scale = np.abs(D) @ np.abs(G) @ np.abs(D).T
            assert (np.abs(D @ G @ D.T - np.diag(signs)) <= 1e-13 * scale).all()
            assert (np.abs(D @ G @ base) <= 1e-13 * (np.abs(D) @ np.abs(G) @ np.abs(base))).all()
            assert np.abs(vertical_part(F, D)).max() <= 1e-13 * S.dim * np.abs(D).max() * np.abs(G).max()
            rows = _oracle_base_domain(G, F.horizontal.vectors, base, null)
            B = _oracle_forms(R, F, base[None], rows[None])[0]
            oracle = scipy.linalg.eigh(0.5 * (B + B.T), rows @ G @ rows.T, eigvals_only=True)
            engine, grouped = stack_records(stack)[0].spectrum, SpectralData.from_values(oracle)
            assert engine.multiplicities == grouped.multiplicities, (kind, name)
            scale = max(1.0, np.abs(oracle).max()) * max(1.0, base @ base) * S.dim  # as for x-perp
            moved = np.abs(np.subtract(engine.eigenvalues, grouped.eigenvalues)).max()
            assert moved <= 1e-12 * scale, (kind, name)


@pytest.mark.parametrize("kind", [FibrationKind.PI_FULL, FibrationKind.TAU])
def test_sentinel_sees_a_tiny_sigma_tamper(kind, monkeypatch):
    S = conjugated_structure(2, 3, seed=23)
    R = random_algebraic_curvature(S.g, seed=5)
    F = make_fibration(S, kind)
    tampered = dataclasses.replace(F, sigma=F.sigma + 1e-6)
    clean = theorem_equivalence_report(R, S, samples=6, seed=0)
    if kind is FibrationKind.PI_FULL:  # as the CLI's --tamper-sigma passes it
        report = theorem_equivalence_report(R, S, samples=6, seed=0, pi_fibration=tampered)
    else:  # the report builds its own tau fibration
        monkeypatch.setattr(importlib.import_module("phinull.submersion"), "make_fibration",
                            lambda S, built: tampered if built is kind else make_fibration(S, built))
        report = theorem_equivalence_report(R, S, samples=6, seed=0)
    assert clean.internal_consistency_ok and clean.sigma_identity_residual < 1e-12
    assert not report.internal_consistency_ok
    assert 1e-7 < report.sigma_identity_residual < 1e-5


@pytest.mark.parametrize("kind", [FibrationKind.PI_FULL, FibrationKind.TAU])
def test_a_nan_sigma_fails_the_sentinel(kind, monkeypatch):
    # NaN compares False with everything, so a fold by Python's max keeps or drops it by where it
    # stands; a NaN on either fibration's route must reach the residual and fail the sentinel
    S = canonical_structure(2, 3)
    R = phi_model_family(S, 1.0, 1.0)
    tampered = dataclasses.replace(make_fibration(S, kind), sigma=float("nan"))
    if kind is FibrationKind.PI_FULL:
        report = theorem_equivalence_report(R, S, samples=6, seed=0, pi_fibration=tampered)
    else:
        monkeypatch.setattr(importlib.import_module("phinull.submersion"), "make_fibration",
                            lambda S, built: tampered if built is kind else make_fibration(S, built))
        report = theorem_equivalence_report(R, S, samples=6, seed=0)
    assert np.isnan(report.sigma_identity_residual)
    assert not report.internal_consistency_ok
    assert report.to_dict()["internal_consistency"] == "failed"


@pytest.mark.parametrize("frame_vector", [0, 1])
def test_a_vertical_leak_in_the_sphere_makes_the_sentinel_raise(monkeypatch, frame_vector):
    # the pi horizontal check runs once, before the shared x-perp frame is built; a sample off
    # the horizontal space of either fibration still stops the report with the sentinel's message
    submersion = importlib.import_module("phinull.submersion")
    S = canonical_structure(2, 3)
    drawn = submersion.sample_phi_celestial

    def leaky(S, count, seed):
        xs = drawn(S, count, seed).copy()
        xs[3] += 0.5 * S.xi[frame_vector]
        return xs

    monkeypatch.setattr(submersion, "sample_phi_celestial", leaky)
    message = "first argument of A must be horizontal: vertical component 5.000e-01"
    with pytest.raises(GeometryError, match=f"^{message}$"):
        theorem_equivalence_report(phi_model_family(S, 1.0, 1.0), S, samples=6, seed=0)


def _nan_at(values: np.ndarray, n: int) -> np.ndarray:
    """A copy of values with entry n NaN: not the first, which Python's max would keep."""
    out = np.array(values, dtype=float)
    out[n] = np.nan
    return out


def test_a_nan_remark_residual_fails_the_identity(tmp_path, monkeypatch):
    submersion = importlib.import_module("phinull.submersion")
    path = str(tmp_path / "phi_model.json")
    save_instance(path, generate_instance("phi_model", 2, 2))
    assert run(["remarks", path, "--kind", "lorentz_sasaki_base"]) == 0
    computed = submersion.sectional_curvatures
    monkeypatch.setattr(submersion, "sectional_curvatures", lambda *args: _nan_at(computed(*args), 2))
    S = canonical_structure(2, 2)
    report = remark_sectional_conditions(phi_model_family(S, 1.0, 1.0), S, RemarkKind.LORENTZ_SASAKI_BASE,
                                         samples=6, seed=0)
    assert np.isnan(report.identity_residual[2]) and np.isfinite(report.identity_residual[:2]).all()
    assert np.isnan(report.identity_residual_max) and not report.identity_passed
    assert run(["remarks", path, "--kind", "lorentz_sasaki_base"]) == 4


def test_a_nan_hypothesis_residual_does_not_hold(monkeypatch):
    submersion = importlib.import_module("phinull.submersion")
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 1.0, 1.0)
    clean = theorem_equivalence_report(R, S, samples=6, seed=0)
    assert clean.hypothesis_holds and clean.agreement_scope == "all-three"
    computed = submersion._hypothesis_residuals
    monkeypatch.setattr(submersion, "_hypothesis_residuals", lambda *args: _nan_at(computed(*args), 2))
    report = theorem_equivalence_report(R, S, samples=6, seed=0)
    assert np.isnan(report.hypothesis_residual)
    assert report.to_dict()["hypothesis_flag"] is False
    assert report.agreement_scope == "phi-null-vs-base"  # s = 2; never all-three


STACK_SAMPLES = 32


@functools.cache
def _stack_case(name: str) -> tuple:
    """The structure and tensor of a stock dim-12 instance, or phi_model on a dim-11 generic frame."""
    if name.startswith("conjugated"):
        S = conjugated_structure(4, 3, seed=int(name[-1]))
        return S, phi_model_family(S, 0.5, 1.5)
    inst = generate_instance(name, 5, 2, seed=7)
    return inst.structure, inst.curvature


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["constant", "phi_model", "random", "conjugated-1", "conjugated-2"]),
       st.sets(st.integers(1, STACK_SAMPLES - 1), max_size=8), st.integers(0, 2**16))
@example("conjugated-1", set(range(1, STACK_SAMPLES)), 0)
@example("constant", set(range(1, STACK_SAMPLES)), 0)
def test_a_base_record_does_not_depend_on_its_stack(name, cuts, seed):
    # every product and sum on a base's way to its record runs one base at a time, so the stack
    # cut anywhere gives each base the record it has in the whole stack, bit for bit
    S, R = _stack_case(name)
    F_pi, F_tau = make_fibration(S, FibrationKind.PI_FULL), make_fibration(S, FibrationKind.TAU)
    sphere = sample_phi_celestial(S, STACK_SAMPLES, seed)
    us = S.xi[0] + sphere
    timelike = sample_unit_causal(S.g, CausalCharacter.TIMELIKE, STACK_SAMPLES, seed)
    builders = {  # each builder with the bases it is given in the deciders
        "timelike": (lambda RX, xs: jacobi_stack(RX, S.g, xs), timelike),
        "direct": (lambda RX, xs: jacobi_stack(RX, S.g, xs), sphere),
        "null": (lambda RU, us: null_jacobi_stack(RU, S.g, us), us),
        "r_star": (lambda RX, xs: r_star_stack(RX, S.g, F_pi, xs), sphere),
        "base_null": (lambda RU, us: base_null_stack(RU, S.g, F_tau, us), us),
    }
    edges = [0, *sorted(cuts), STACK_SAMPLES]
    for kind, (build, bases) in builders.items():
        def rows(xs):
            return build(slot4_contraction(R, xs), xs)._table(DEFAULT_GROUPING_TOL).tolist()

        whole = rows(bases)
        parts = [row for a, b in zip(edges[:-1], edges[1:]) for row in rows(bases[a:b])]
        assert exact(parts) == exact(whole), kind


def _assert_the_table_is_the_loop(stack, grouping_tol: float = DEFAULT_GROUPING_TOL, tol: float = 1e-8) -> None:
    """The stack's spectra table, its decision and the records of both against the records built one
    base at a time and judged one record at a time (``helpers.records_loop``), bit for bit."""
    records = records_loop(stack, grouping_tol)
    want = decide_constancy_loop(records, tol)
    table = stack._table(grouping_tol)
    got = decide_constancy("c", table, 0, tol, grouping_tol)
    assert exact((got.passed, got.groups, got.failure)) == exact((want["passed"], want["groups"], want["failure"]))
    assert exact(table.tolist()) == exact(want["rows"])
    assert exact(got.records) == exact(records) == exact(stack_records(stack, grouping_tol))
    assert json.loads(dump_json(got.to_dict()))["per_sample_spectra"] == json.loads(json.dumps(want["rows"]))


@pytest.mark.parametrize("family, n, s", [(family, n, s) for family in ("constant", "phi_model", "random")
                                          for n, s in ((2, 2), (4, 3), (5, 2))])
def test_every_builders_table_is_the_per_record_path(family, n, s):
    inst = generate_instance(family, n, s, seed=7)
    R, S = inst.curvature, inst.structure
    F_pi, F_tau = make_fibration(S, FibrationKind.PI_FULL), make_fibration(S, FibrationKind.TAU)
    sphere = sample_phi_celestial(S, DEFAULT_SAMPLES, 0)
    us = S.xi[0] + sphere
    spacelike, timelike = (sample_unit_causal(S.g, kind, DEFAULT_SAMPLES, 0)
                           for kind in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE))
    celestial = np.array([rec.base for rec in is_null_osserman_wrt(R, S.g, S.xi[0], samples=16).records])
    null = S.xi[0] + celestial
    mixed = np.vstack([spacelike[:8], timelike[:8]])[np.random.default_rng(0).permutation(16)]
    stacks = [
        jacobi_stack(slot4_contraction(R, spacelike), S.g, spacelike),
        jacobi_stack(slot4_contraction(R, timelike), S.g, timelike),
        jacobi_stack(slot4_contraction(R, sphere), S.g, sphere),
        jacobi_stack(slot4_contraction(R, mixed), S.g, mixed),  # definite and indefinite domains
        null_jacobi_stack(slot4_contraction(R, us), S.g, us),
        null_jacobi_stack(slot4_contraction(R, null), S.g, null),
        r_star_stack(slot4_contraction(R, sphere), S.g, F_pi, sphere),
        base_null_stack(slot4_contraction(R, us), S.g, F_tau, us),
    ]
    for stack in stacks:
        _assert_the_table_is_the_loop(stack)
    # the theorem report's four decisions, the pi one on the sentinel's frame, are those stacks'
    report = theorem_equivalence_report(R, S, seed=0)
    for decision, k in ((report.phi_null.direct, 2), (report.base, 6), (report.base_null, 7)):
        assert exact(decision.records) == exact(records_loop(stacks[k], DEFAULT_GROUPING_TOL))
    quotient = dataclasses.replace(stacks[4], bases=sphere)  # its records name their sphere points
    assert exact(report.phi_null.quotient.records) == exact(records_loop(quotient, DEFAULT_GROUPING_TOL))


def test_tables_with_error_rows_and_mixed_patterns_are_the_per_record_path():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 1.0, 1.0)
    xs = sample_phi_celestial(S, 5, seed=0)
    F_pi, F_tau = make_fibration(S, FibrationKind.PI_FULL), make_fibration(S, FibrationKind.TAU)
    bad = xs.copy()
    bad[1] *= 2.0  # not unit
    bad[3] += 0.5 * S.xi[1]  # leaks into the vertical space
    _assert_the_table_is_the_loop(r_star_stack(slot4_contraction(R, bad), S.g, F_pi, bad))
    us = S.xi[0] + xs
    us[2] = S.xi[0] + 2.0 * xs[2]  # not null
    us[4] += S.xi[1]  # not horizontal
    _assert_the_table_is_the_loop(base_null_stack(slot4_contraction(R, us), S.g, F_tau, us))
    # the timelike phi_model stack at grouping tolerance 1e-2: patterns (4, 1) and (5,) in one table
    inst = generate_instance("phi_model", 2, 2)
    timelike = sample_unit_causal(inst.structure.g, CausalCharacter.TIMELIKE, DEFAULT_SAMPLES, 0)
    stack = jacobi_stack(slot4_contraction(inst.curvature, timelike), inst.structure.g, timelike)
    patterns = {block["spectrum"]["multiplicities"] for _, block in stack._table(1e-2).blocks}
    assert patterns == {(4, 1), (5,)}
    _assert_the_table_is_the_loop(stack, grouping_tol=1e-2)
    # null, zero and non-null bases among good ones: every row an error, or none
    bases = np.vstack([xs[:2], us[:1], np.zeros((1, S.dim)), xs[2:]])
    _assert_the_table_is_the_loop(jacobi_stack(slot4_contraction(R, bases), S.g, bases))
    _assert_the_table_is_the_loop(null_jacobi_stack(slot4_contraction(R, xs), S.g, xs))


def test_bad_sample_errors_only_that_sample():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 1.0, 1.0)
    xs = sample_phi_celestial(S, 5, seed=0)
    F_pi = make_fibration(S, FibrationKind.PI_FULL)
    bad = xs.copy()
    bad[1] *= 2.0  # not unit
    bad[3] += 0.5 * S.xi[1]  # leaks into the vertical space
    records = stack_records(r_star_stack(slot4_contraction(R, bad), S.g, F_pi, bad))
    assert records[1].error == "Rstar base must be unit spacelike: g(x,x) = 4.000000e+00"
    assert records[3].error == "base of Rstar must be horizontal: vertical component 5.000e-01"
    for n in (0, 2, 4):
        single = spectrum(r_star(R, S.g, F_pi, xs[n]))
        assert records[n].error is None
        assert records[n].spectrum.multiplicities == single.multiplicities
        assert records[n].spectrum.eigenvalues == pytest.approx(single.eigenvalues, abs=1e-12)
    table = r_star_stack(slot4_contraction(R, bad), S.g, F_pi, bad)._table(1e-6)
    decision = decide_constancy("base-osserman[pi_full]", table, 0, 1e-8, 1e-6)
    assert decision.failure == f"sample 1: {records[1].error}"

    F_tau = make_fibration(S, FibrationKind.TAU)
    bad = xs.copy()
    bad[2] *= 2.0  # xi_1 + 2x is not null: the quotient kernel vanishes
    bad[4] += S.xi[1]
    us = S.xi[0] + bad
    records = stack_records(base_null_stack(slot4_contraction(R, us), S.g, F_tau, us))
    assert records[2].error == "base null quotient: restricted Gram kernel is not one-dimensional"
    assert records[4].error == "first argument of A must be horizontal: vertical component 1.000e+00"
    us = S.xi[0] + xs
    good = stack_records(base_null_stack(slot4_contraction(R, us), S.g, F_tau, us))
    for n in (0, 1, 3):
        assert records[n].error is None
        assert records[n].spectrum.multiplicities == good[n].spectrum.multiplicities
        assert records[n].spectrum.eigenvalues == pytest.approx(good[n].spectrum.eigenvalues, abs=1e-12)
