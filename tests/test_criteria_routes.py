"""The acceptance criteria run the engine's routes.

Each per-vector name a criterion checks is a one-row call of a batched route that the CLI runs, so
a fault planted in that route, here with ``monkeypatch``, fails the criterion itself: a sign flip in
the coefficients of O'Neill's A fails the composition law (criterion 4), and a doubled frame vector
in the shift x -> xi_1 + x fails the congruence/sphere correspondence (criterion 9).
"""

import importlib

import pytest

import test_acceptance
from phinull.linalg import CausalCharacterError


def test_a_sign_flip_in_the_a_coefficients_fails_criterion_4(monkeypatch):
    submersion = importlib.import_module("phinull.submersion")
    computed = submersion._a_coefficients
    monkeypatch.setattr(submersion, "_a_coefficients", lambda *args: tuple(-c for c in computed(*args)))
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_04_composition_law()


def test_a_doubled_frame_vector_in_the_shift_fails_criterion_9(monkeypatch):
    # psi_inverse returns 2 xi_1 + x, which is not null: psi refuses it, or the constraints fail
    monkeypatch.setattr(importlib.import_module("phinull.gff"), "_shift", lambda z, xs: 2.0 * z + xs)
    with pytest.raises((AssertionError, CausalCharacterError)):
        test_acceptance.test_criterion_09_congruence_sphere_correspondence()
