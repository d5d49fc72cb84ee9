"""Fibration models: integrability tensor, curvature transfer, theorem report."""

import dataclasses

import numpy as np
import pytest

from helpers import bf_form_matrix, conjugated_structure, horizontal_draw
from phinull.curvature import constant_curvature, phi_model_family, random_algebraic_curvature
from phinull.gff import canonical_structure, phi_image_frame, sample_phi_celestial, validate_gff
from phinull.cli import run
from phinull.io import dump_json, generate_instance, save_instance
from phinull.jacobi import (
    DEFAULT_SAMPLES,
    decide_constancy,
    is_phi_null_osserman_wrt,
    jacobi_covectors,
    slot4_contraction,
    spectrum,
)
from phinull.linalg import GeometryError, inner, nullspace
from phinull.submersion import (
    FibrationKind,
    _hypothesis_residuals,
    _sentinel_frame,
    _shift_identity_defects,
    RemarkKind,
    base_null_osserman_check,
    base_null_stack,
    base_osserman_check,
    base_structure,
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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
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
            x = sample_phi_celestial(S, 1, seed=1000 + i).points[0]
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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
    assert np.abs(r_star(R, S.g, F, x).matrix).max() < 1e-12


def test_r_star_constant_curvature_closed_form():
    # Rstar_x y = c y + 3(s-2) g(y, phi x) phi x on x-perp in Im(phi)
    S = conjugated_structure(2, 3, seed=41)
    c = -1.5
    R = constant_curvature(S.g, c)
    F = make_fibration(S, FibrationKind.PI_FULL)
    x = sample_phi_celestial(S, 1, seed=3).points[0]
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
    for x in sample_phi_celestial(S, 10, seed=4).points:
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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
    with pytest.raises(GeometryError):
        r_star(R, S.g, F, 2.0 * x)  # not unit


# -- shift identity -----------------------------------------------------------

def _v_draw(S, x, rng):
    """Random vector in x-perp within Im(phi)."""
    frame = phi_image_frame(S)
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
            x = sample_phi_celestial(S, 1, seed=seed).points[0]
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
    x = sample_phi_celestial(S, 1, seed=1).points[0]
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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
    with pytest.raises(ValueError):
        shift_identity_residual(R, S, F, x, S.xi[1])


def test_v_leak_reported_for_generic_tensors():
    S = canonical_structure(2, 2)
    F = make_fibration(S, FibrationKind.PI_FULL)
    R = random_algebraic_curvature(S.g, seed=12)
    x = sample_phi_celestial(S, 1, seed=2).points[0]
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
    sphere = sample_phi_celestial(S, DEFAULT_SAMPLES, seed).points
    hypothesis = _hypothesis_residuals(slot4_contraction(R, sphere), S, sphere).max()
    sentinel = 0.0
    for F in (F_pi, F_tau):
        frame = _sentinel_frame(slot4_contraction(R, sphere), S, sphere)
        defects, scales = _shift_identity_defects(S.g, F, sphere, frame)
        sentinel = max(sentinel, float((np.abs(defects).max(axis=(1, 2)) / scales).max()))
    assert report.hypothesis_residual == hypothesis
    assert report.sigma_identity_residual == sentinel


@pytest.mark.parametrize("argv, expected", [
    (["verify-theorem"], {"sphere": 1, "frame": 1, "slot4": 2}),
    (["check", "--condition", "phi-null-osserman"], {"sphere": 1, "frame": 1, "slot4": 2}),
    (["remarks", "--kind", "lorentz_sasaki_base"], {"sphere": 1, "frame": 1, "slot4": 1}),
], ids=["verify-theorem", "check-phi-null", "remarks"])
def test_one_sphere_one_frame_one_contraction_per_stack(tmp_path, monkeypatch, argv, expected):
    import phinull.gff as gff

    path = str(tmp_path / "instance.json")
    save_instance(path, generate_instance("phi_model", 2, 2))
    counts = {"sphere": 0, "frame": 0, "slot4": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    np_einsum = np.einsum

    def einsum(subscripts, *operands, **kwargs):
        counts["slot4"] += subscripts == "abcd,nd->nabc"  # the slot-4 contraction
        return np_einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(gff, "sample_unit_sphere", counted("sphere", gff.sample_unit_sphere))
    monkeypatch.setattr(gff, "phi_image_frame", counted("frame", gff.phi_image_frame))
    monkeypatch.setattr(np, "einsum", einsum)
    assert run([argv[0], path, *argv[1:]]) == 0
    assert counts == expected


def test_theorem_refuses_fibrations_of_another_structure():
    # the report shares one sphere and its contractions with both fibrations
    S, other = canonical_structure(2, 2), canonical_structure(2, 2)
    R = phi_model_family(S, 1.0, 1.0)
    for slot, kind in (("pi_fibration", FibrationKind.PI_FULL), ("tau_fibration", FibrationKind.TAU)):
        with pytest.raises(ValueError, match="fibrations of its own structure"):
            theorem_equivalence_report(R, S, samples=4, **{slot: make_fibration(other, kind)})


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
    for sample in report.samples:
        assert sample.a_norm_sq == pytest.approx(S.s - 3, abs=1e-10)
    report = remark_sectional_conditions(R, S, RemarkKind.LORENTZ_SASAKI_BASE, samples=4, seed=0)
    for sample in report.samples:
        assert sample.a_norm_sq == pytest.approx(S.s - 1, abs=1e-10)


# -- base structures ----------------------------------------------------------

def test_base_structure_complex_type():
    S = conjugated_structure(2, 3, seed=91)
    F = make_fibration(S, FibrationKind.PI_FULL)
    base = base_structure(F)
    J = base.complex_structure
    assert np.abs(J @ J + np.eye(4)).max() < 1e-10
    assert base.contact is None


def test_base_structure_contact_type():
    S = conjugated_structure(2, 3, seed=92)
    F = make_fibration(S, FibrationKind.TAU)
    base = base_structure(F)
    assert base.contact is not None
    assert (base.contact.n, base.contact.s, base.contact.dim) == (2, 1, 5)
    assert validate_gff(base.contact).passed


def test_base_structure_s1_specialization():
    S = conjugated_structure(2, 1, seed=94)
    F = make_fibration(S, FibrationKind.PI_PRIME)
    base = base_structure(F)
    assert np.abs(base.complex_structure @ base.complex_structure + np.eye(4)).max() < 1e-10


def test_base_structure_corrupted_phi_surfaces():
    S = canonical_structure(2, 3)
    F = make_fibration(S, FibrationKind.PI_FULL)
    phi_bad = S.phi.copy()
    phi_bad[0, 1] += 0.05
    S_bad = dataclasses.replace(S, phi=phi_bad)
    F_bad = dataclasses.replace(F, structure=S_bad)
    with pytest.raises(GeometryError):
        base_structure(F_bad)


def test_base_structure_unsupported_kind():
    S = canonical_structure(1, 3)
    F = make_fibration(S, FibrationKind.REMARK_SASAKI)
    with pytest.raises(ValueError):
        base_structure(F)


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
    x = sample_phi_celestial(S, 1, seed=0).points[0]
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


def _oracle_forms(R, F, xs, domains):
    """B[n, i, j] = r_star_form(x_n, d_j, d_i), one vector pair at a time."""
    return np.array([
        [[r_star_form(R, F.structure.g, F, x, dj, di) for dj in D] for di in D]
        for x, D in zip(xs, domains)
    ])


@pytest.mark.parametrize("conjugated", [False, True])
def test_transfer_forms_match_per_vector_oracle(conjugated):
    S = conjugated_structure(2, 3, seed=17) if conjugated else canonical_structure(2, 3)
    rng = np.random.default_rng(3)
    xs = sample_phi_celestial(S, 5, seed=2).points
    for name, R in _families(S).items():
        for kind in KINDS_S2:
            F = make_fibration(S, kind)
            domains = np.array([[horizontal_draw(F, rng) for _ in range(3)] for _ in xs])
            C = jacobi_covectors(slot4_contraction(R, xs), xs, domains)
            batched = transfer_forms(S.g, F, xs, domains, C)
            oracle = _oracle_forms(R, F, xs, domains)
            scale = max(1.0, float(np.abs(oracle).max()))
            assert np.abs(batched - oracle).max() < 1e-12 * scale, (name, kind)


@pytest.mark.parametrize("conjugated", [False, True])
def test_stacked_base_operators_match_per_vector_assembly(conjugated):
    S = conjugated_structure(2, 2, seed=19) if conjugated else canonical_structure(2, 2)
    xs = sample_phi_celestial(S, 6, seed=4).points
    F_pi = make_fibration(S, FibrationKind.PI_FULL)
    F_tau = make_fibration(S, FibrationKind.TAU)
    for name, R in _families(S).items():
        for stack, F in ((r_star_stack(R, S.g, F_pi, xs), F_pi), (base_null_stack(R, S.g, F_tau, xs), F_tau)):
            assert stack.errors == [None] * len(xs)
            oracle = _oracle_forms(R, F, stack.bases, stack.domains)
            oracle = 0.5 * (oracle + oracle.transpose(0, 2, 1))
            for base, D, gram, matrix, B in zip(stack.bases, stack.domains, stack.grams, stack.matrices, oracle):
                # the domain: horizontal, g-orthogonal to the base, of full rank
                assert np.abs(vertical_part(F, D)).max() < 1e-10
                assert np.abs(D @ S.g.components @ base).max() < 1e-10
                assert np.linalg.matrix_rank(D) == D.shape[0]
                assert np.array_equal(gram, D @ S.g.components @ D.T)
                assert np.abs(matrix - np.linalg.solve(gram, B)).max() < 1e-10, (name, F.kind)


@pytest.mark.parametrize("kind", [FibrationKind.PI_FULL, FibrationKind.TAU])
def test_sentinel_sees_a_tiny_sigma_tamper(kind):
    S = conjugated_structure(2, 3, seed=23)
    R = random_algebraic_curvature(S.g, seed=5)
    F = make_fibration(S, kind)
    tampered = dataclasses.replace(F, sigma=F.sigma + 1e-6)
    slot = "pi_fibration" if kind is FibrationKind.PI_FULL else "tau_fibration"
    clean = theorem_equivalence_report(R, S, samples=6, seed=0)
    report = theorem_equivalence_report(R, S, samples=6, seed=0, **{slot: tampered})
    assert clean.internal_consistency_ok and clean.sigma_identity_residual < 1e-12
    assert not report.internal_consistency_ok
    assert 1e-7 < report.sigma_identity_residual < 1e-5


def test_bad_sample_errors_only_that_sample():
    S = canonical_structure(2, 2)
    R = phi_model_family(S, 1.0, 1.0)
    xs = sample_phi_celestial(S, 5, seed=0).points
    F_pi = make_fibration(S, FibrationKind.PI_FULL)
    bad = xs.copy()
    bad[1] *= 2.0  # not unit
    bad[3] += 0.5 * S.xi[1]  # leaks into the vertical space
    records = r_star_stack(R, S.g, F_pi, bad).records()
    assert records[1].error == "Rstar base must be unit spacelike: g(x,x) = 4.000000e+00"
    assert records[3].error == "base of Rstar must be horizontal: vertical component 5.000e-01"
    for n in (0, 2, 4):
        single = spectrum(r_star(R, S.g, F_pi, xs[n]))
        assert records[n].error is None
        assert records[n].spectrum.multiplicities == single.multiplicities
        assert records[n].spectrum.eigenvalues == pytest.approx(single.eigenvalues, abs=1e-12)
    decision = decide_constancy("base-osserman[pi_full]", records, 0, 1e-8, 1e-6)
    assert decision.failure == f"sample 1: {records[1].error}"

    F_tau = make_fibration(S, FibrationKind.TAU)
    bad = xs.copy()
    bad[2] *= 2.0  # xi_1 + 2x is not null: the quotient kernel vanishes
    bad[4] += S.xi[1]
    records = base_null_stack(R, S.g, F_tau, bad).records()
    assert records[2].error == "base null quotient: restricted Gram kernel is not one-dimensional"
    assert records[4].error == "first argument of A must be horizontal: vertical component 1.000e+00"
    good = base_null_stack(R, S.g, F_tau, xs).records()
    for n in (0, 1, 3):
        assert records[n].error is None
        assert records[n].spectrum.multiplicities == good[n].spectrum.multiplicities
        assert records[n].spectrum.eigenvalues == pytest.approx(good[n].spectrum.eigenvalues, abs=1e-12)
