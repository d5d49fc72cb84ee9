"""Instance files and the command-line front end (exit codes, determinism)."""

import dataclasses
import io
import json
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinull import cli, gff, jacobi, reports, submersion
from phinull.cli import run
from phinull.curvature import MAX_COMPONENT, validate_curvature
from phinull.gff import canonical_structure, validate_gff
from phinull.io import (
    InstanceValidationError,
    curvature_from_dict,
    curvature_to_dict,
    dump_json,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    structure_from_dict,
    structure_to_dict,
)
from phinull.jacobi import _spectra_table
from phinull.reports import Table
from phinull.submersion import theorem_equivalence_report


# -- structure files ----------------------------------------------------------

def test_structure_round_trip():
    S = canonical_structure(2, 3)
    back = structure_from_dict(structure_to_dict(S))
    assert np.allclose(back.g.components, S.g.components)
    assert np.allclose(back.phi, S.phi)
    assert np.allclose(back.xi, S.xi)
    assert back.epsilon.tolist() == S.epsilon.tolist()


def test_structure_loader_reorders_timelike_frame_vector():
    S = canonical_structure(1, 3)
    data = structure_to_dict(S)
    # store the timelike frame vector second
    for key in ("xi", "eta", "epsilon"):
        data[key] = [data[key][1], data[key][0], data[key][2]]
    loaded = structure_from_dict(data)
    assert loaded.epsilon[0] == -1.0
    assert validate_gff(loaded).passed
    assert np.allclose(loaded.xi[0], S.xi[0])


def test_structure_loader_rejects_wrong_timelike_count():
    S = canonical_structure(1, 2)
    data = structure_to_dict(S)
    data["epsilon"] = [1.0, 1.0]
    with pytest.raises(InstanceValidationError):
        structure_from_dict(data)


def test_structure_loader_rejects_invalid_structure():
    S = canonical_structure(1, 2)
    data = structure_to_dict(S)
    data["phi"][0] = 0.5  # corrupt one entry
    with pytest.raises(InstanceValidationError) as excinfo:
        structure_from_dict(data)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.passed


def test_structure_loader_shape_errors():
    S = canonical_structure(1, 1)
    data = structure_to_dict(S)
    data["dim"] = 5
    with pytest.raises(ValueError):
        structure_from_dict(data)
    data = structure_to_dict(S)
    del data["eta"]
    with pytest.raises(ValueError):
        structure_from_dict(data)


# -- curvature files ----------------------------------------------------------

def test_curvature_dense_round_trip():
    inst = generate_instance("phi_model", 1, 2, {"a": 1.0, "b": -0.5})
    data = curvature_to_dict(inst.curvature)
    back = curvature_from_dict(data, inst.structure.g)
    assert np.allclose(back.components, inst.curvature.components)


def test_curvature_sparse_entries_are_symmetrized():
    g = canonical_structure(1, 1).g
    data = {"dim": 3, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "value": 6.0}]}
    R = curvature_from_dict(data, g)
    assert validate_curvature(R, g).passed
    # the single seed entry spreads over its symmetry orbit
    assert R.components[0, 1, 0, 1] != 0.0
    assert R.components[0, 1, 0, 1] == pytest.approx(-R.components[1, 0, 0, 1])


def test_curvature_sparse_rejects_bad_indices():
    g = canonical_structure(1, 1).g
    with pytest.raises(ValueError):
        curvature_from_dict({"dim": 3, "entries": [{"i": 0, "j": 1, "k": 0, "l": 9, "value": 1.0}]}, g)


def test_curvature_dense_rejects_asymmetric_with_indices():
    g = canonical_structure(1, 1).g
    comps = np.zeros((3, 3, 3, 3))
    comps[0, 1, 0, 1] = 1.0  # no symmetry partners
    with pytest.raises(InstanceValidationError) as excinfo:
        curvature_from_dict({"dim": 3, "components": comps.reshape(-1).tolist()}, g)
    assert "residual" in str(excinfo.value)
    assert "indices" in str(excinfo.value)


# -- instances ----------------------------------------------------------------

def test_generate_families_and_round_trip(tmp_path):
    for family, params in (
        ("constant", {"c": -1.0}),
        ("phi_model", {"a": 1.0, "b": 1.0}),
        ("random", {"scale": 0.5}),
    ):
        inst = generate_instance(family, 1, 2, params, seed=3)
        assert inst.metadata.family == f"canonical+{family}"
        path = tmp_path / f"{family}.json"
        save_instance(path, inst)
        loaded = load_instance(path)
        assert loaded.metadata.parameters == params
        assert np.allclose(loaded.curvature.components, inst.curvature.components)


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate_instance("froobly", 1, 1)


@pytest.mark.parametrize("family, params", [
    ("constant", {"c": float("nan")}),
    ("constant", {"c": float("inf")}),
    ("constant", {"c": float("1e400")}),
    ("phi_model", {"a": 1.0, "b": float("-inf")}),
    ("random", {"scale": float("nan")}),
])
def test_generate_rejects_non_finite_parameters(family, params):
    bad = next(key for key, value in params.items() if not np.isfinite(value))
    with pytest.raises(ValueError, match=f"parameter {bad} must be a finite number"):
        generate_instance(family, 1, 2, params)


def test_generate_rejects_parameters_that_overflow_the_tensor():
    with pytest.raises(ValueError, match="overflow the curvature components"):
        generate_instance("random", 1, 2, {"scale": 1e308})


@pytest.mark.parametrize("family, params, takes", [
    ("constant", {"bogus": 1.0}, "c"),
    ("constant", {"C": 5.0}, "c"),
    ("phi_model", {"a": 1.0, "c": 1.0}, "a, b"),
    ("random", {"c": 1.0}, "scale"),
])
def test_generate_rejects_unknown_parameters(family, params, takes):
    with pytest.raises(ValueError, match=f"for family {family}; it takes {takes}$"):
        generate_instance(family, 1, 2, params)


def test_instance_rejects_unknown_family_field():
    inst = generate_instance("constant", 1, 1, {"c": 1.0})
    data = instance_to_dict(inst)
    data["metadata"]["family"] = "bogus"
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_instance_requires_all_blocks():
    inst = generate_instance("constant", 1, 1, {"c": 1.0})
    data = instance_to_dict(inst)
    del data["curvature"]
    with pytest.raises(ValueError):
        instance_from_dict(data)


# -- CLI ----------------------------------------------------------------------

@pytest.fixture
def phi_model_file(tmp_path):
    path = tmp_path / "phi_model.json"
    save_instance(path, generate_instance("phi_model", 2, 3, {"a": 1.0, "b": 1.0}, seed=7))
    return str(path)


def test_cli_generate_and_validate(tmp_path, capsys):
    out = str(tmp_path / "inst.json")
    assert run(["generate", "--family", "phi_model", "--n", "2", "--s", "3",
                "--param", "a=1", "--param", "b=1", "--seed", "7", "--out", out]) == 0
    assert run(["validate", out]) == 0
    text = capsys.readouterr().out
    assert "gff-structure: pass" in text
    assert "curvature: pass" in text


def test_cli_generate_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["generate", "--family", "random", "--n", "1", "--s", "2", "--seed", "11"]
    assert run(argv + ["--out", a]) == 0
    assert run(argv + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_cli_validate_catches_perturbed_phi(tmp_path, capsys):
    inst = generate_instance("constant", 1, 2, {"c": 1.0})
    data = instance_to_dict(inst)
    data["structure"]["phi"][0] += 1e-3
    path = tmp_path / "broken.json"
    path.write_text(dump_json(data))
    assert run(["validate", str(path)]) == 2
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "phi" in text  # a named phi check is listed as failing


def test_cli_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 3
    assert run(["validate", str(tmp_path / "missing.json")]) == 3
    # what the parser itself raises: RecursionError (exit 1, a traceback), and a UnicodeDecodeError
    # or the int-digit ValueError (exit 2, as a validation error)
    for content in (b"[" * 1100 + b"]" * 1100, b'{"structure": "\xff"}', b'{"n": ' + b"7" * 5000 + b"}"):
        path.write_bytes(content)
        capsys.readouterr()
        for argv in (["validate"], ["check", "--condition", "osserman"], ["verify-theorem"]):
            assert run([argv[0], str(path), *argv[1:]]) == 3
            err = capsys.readouterr().err
            assert err.startswith("parse error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"i": 0, "j": 1, "k": 0, "value": 6.0}, "missing the 'l' field"),
        ({"i": 0, "j": 1, "k": 0, "l": 1}, "missing the 'value' field"),
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": "six"}, "six"),
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": None}, "not numeric"),
        ([0, 1, 0, 1, 6.0], "not an object"),
        ({"i": float("inf"), "j": 1, "k": 0, "l": 1, "value": 6.0}, "not numeric"),
        # int() truncated a fractional index to 0
        ({"i": 0.5, "j": 1, "k": 0, "l": 1, "value": 6.0}, "not numeric: 'i' must be an integer, got 0.5"),
        # float() parsed a numeric string
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": "1.5"}, "not numeric: 'value' must hold finite numbers"),
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": float("nan")}, "not numeric: 'value' must hold finite"),
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": [1.5]}, "not numeric: 'value' must be a number"),
    ],
)
def test_cli_bad_sparse_curvature_entry_is_a_validation_error(tmp_path, capsys, entry, message):
    data = instance_to_dict(generate_instance("constant", 1, 1, {"c": 1.0}))
    data["curvature"] = {"dim": 3, "entries": [entry]}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    assert run(["check", str(path), "--condition", "osserman", "--samples", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err


def _without(block: dict, key: str) -> dict:
    return {k: v for k, v in block.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: 5, "instance file must hold a JSON object, not int"),
        (lambda d: {**d, "structure": 5}, "the 'structure' block must be an object, not int"),
        (lambda d: {**d, "curvature": [1]}, "the 'curvature' block must be an object, not list"),
        (lambda d: {**d, "metadata": 3}, "the 'metadata' block must be an object, not int"),
        (lambda d: {**d, "metadata": {**d["metadata"], "parameters": 3}},
         "metadata.parameters must be an object, not int"),
        (lambda d: {**d, "structure": {**d["structure"], "metric": d["structure"]["metric"][:35]}},
         "metric must be 6x6 (flat or nested), got shape (35,)"),
        (lambda d: {**d, "curvature": _without(d["curvature"], "dim")},
         "curvature block is missing the 'dim' field"),
        (lambda d: {**d, "curvature": _without(d["curvature"], "components")},
         "curvature block needs either 'components' or 'entries'"),
        # dim 6 = 2n + s at n = 0: six frame vectors, one of them timelike
        (lambda d: {**d, "structure": {**d["structure"], "n": 0, "s": 6, "xi": np.eye(6), "eta": np.eye(6),
                                       "epsilon": [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0]}},
         "require n >= 1 and s >= 1"),
    ],
    ids=["top-level", "structure", "curvature", "metadata", "parameters",
         "metric-size", "curvature-dim", "curvature-data", "n-zero"],
)
def test_cli_non_object_block_is_a_validation_error(tmp_path, capsys, edit, message):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(edit(instance_to_dict(generate_instance("constant", 2, 2))),
                               default=np.ndarray.tolist))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {message}\n"


@pytest.mark.parametrize("block, key", [
    ("metadata", "seed"), ("structure", "dim"), ("structure", "n"), ("structure", "s"), ("curvature", "dim"),
])
def test_cli_non_integer_field_is_a_validation_error(tmp_path, capsys, block, key):
    # int() raised TypeError (exit 1, a traceback) on a list, an object or null, and
    # OverflowError on an infinity
    for value in ([6], {"value": 6}, None, float("inf")):
        data = instance_to_dict(generate_instance("constant", 1, 1))
        data[block][key] = value
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(data, default=np.ndarray.tolist))
        assert run(["validate", str(path)]) == 2, value
        err = capsys.readouterr().err
        assert err == f"validation error: {block}.{key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("block, key, value", [
    ("metadata", "seed", 3.7), ("structure", "dim", 3.5), ("structure", "n", 1.5),
    ("structure", "s", True), ("curvature", "dim", "3"),
])
def test_cli_non_integral_field_is_a_validation_error(tmp_path, capsys, block, key, value):
    # int() truncated a fraction and parsed a string; a bool is an int to Python, not to JSON
    data = instance_to_dict(generate_instance("constant", 1, 1))
    path = tmp_path / "fields.json"
    data[block][key] = float(data[block][key])  # an integral float is still an integer
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    data[block][key] = value
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"validation error: {block}.{key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("block, key, value", [
    ("structure", "metric", {"x": 1}),
    ("structure", "phi", {"x": 1}),
    ("structure", "xi", [{"a": 1}]),
    ("structure", "eta", [[1, "b"]]),
    ("structure", "epsilon", None),
    ("curvature", "components", {"x": 1}),
    ("structure", "metric", [float("nan")] * 36),
    ("structure", "phi", [float("inf")] * 36),
    ("structure", "xi", [[True] * 6] * 2),
    ("structure", "eta", [[0.0] * 6, [0.0] * 5]),
])
def test_cli_non_numeric_field_is_a_validation_error(tmp_path, capsys, block, key, value):
    # An object raised TypeError out of cli.run (exit 1, a traceback); a NaN metric read
    # "Eigenvalues did not converge"
    data = instance_to_dict(generate_instance("constant", 2, 2))
    data[block][key] = value
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {block}.{key} must hold finite numbers (nested lists of numbers)\n"


@pytest.mark.parametrize("entries", [5, None, {"x": 1}, "ab"])
def test_cli_sparse_entries_must_be_a_list(tmp_path, capsys, entries):
    # 5 and null raised TypeError; an object or a string was iterated as keys or characters
    data = instance_to_dict(generate_instance("constant", 1, 1))
    data["curvature"] = {"dim": 3, "entries": entries}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: curvature.entries must be a list, not {type(entries).__name__}\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-2**70, 2**70) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=7) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=40,
)
_fields = [("structure", key) for key in ("dim", "n", "s", "metric", "phi", "xi", "eta", "epsilon")]
_fields += [("curvature", key) for key in ("dim", "components", "entries")]
_fields += [("metadata", key) for key in ("name", "seed", "family", "parameters")]
# one nonzero element of each array, each key of one sparse entry, and the family parameter
_fields += [("structure", "metric", 7), ("structure", "phi", 9), ("structure", "epsilon", 0)]
_fields += [("structure", "xi", 0, 4), ("structure", "eta", 0, 4), ("curvature", "components", 37)]
_fields += [("curvature", "entries", 0, key) for key in ("i", "j", "k", "l", "value")]
_fields += [("metadata", "parameters", "c")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_fields), _json_values)
def test_cli_never_raises_on_any_field_value(field, value):
    *parents, key = field
    data = json.loads(dump_json(instance_to_dict(generate_instance("constant", 2, 2))))
    if "entries" in parents:  # R(e_0, e_1, e_0, e_1) = 1, the rest by symmetry
        data["curvature"] = {"dim": 6, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "value": 1.0}]}
    target = data
    for parent in parents:
        target = target[parent]
    target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, default=np.ndarray.tolist)
        with mock.patch("sys.stdout", new=io.StringIO()), mock.patch("sys.stderr", new=io.StringIO()) as err:
            code = run(["validate", path])
            assert code in (0, 2, 3), (code, err.getvalue())
            if code:
                assert err.getvalue() or "FAIL" in sys.stdout.getvalue()
            assert run(["check", path, "--condition", "phi-null-osserman", "--samples", "4"]) in (0, 1, 2, 3)


def test_cli_nan_residual_is_named_as_the_worst_check(tmp_path, capsys):
    # NaN never compares greater, so ranking by residual / threshold alone
    # named a passing check with residual 0.
    # A finite metric entry whose products overflow gives the NaN residual (a NaN in the file is
    # refused on reading; see test_cli_non_numeric_field_is_a_validation_error).
    data = instance_to_dict(generate_instance("constant", 2, 2))
    data["structure"]["metric"][0] = 1.7e308
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    with np.errstate(over="ignore", invalid="ignore"):  # numpy's overflow warnings would go to stderr
        assert run(["check", str(path), "--condition", "osserman", "--samples", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: structure validation failed:")
    assert err.endswith(" residual nan\n")


def test_cli_sample_off_the_phi_sphere_is_a_validation_error(tmp_path, capsys, monkeypatch):
    # Sampled points 1e-6 off the unit sphere (g(p, p) = 1 + 2e-6) fail the samplers' own
    # constraint check, which reaches the user as a validation error.
    path = str(tmp_path / "constant.json")
    save_instance(path, generate_instance("constant", 2, 2))
    draw = gff.sample_unit_sphere
    monkeypatch.setattr(gff, "sample_unit_sphere", lambda *args: (1.0 + 1e-6) * draw(*args))
    for argv in (
        ["check", path, "--condition", "phi-null-osserman"],
        ["verify-theorem", path],
        ["remarks", path, "--kind", "sasaki_base"],
    ):
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "violates S_phi constraints" in err


def test_cli_near_tolerance_metric_passes_validation_and_sampling(tmp_path, capsys):
    # g(e_0, e_4) = 5e-12 passes validation, and its samples miss their constraints by about as
    # much; an absolute 1e-12 sampler check turned every sampling command into exit 2.
    data = instance_to_dict(generate_instance("constant", 2, 2))
    exact = str(tmp_path / "exact.json")
    save_instance(exact, instance_from_dict(data))
    data["structure"]["metric"][0 * 6 + 4] = data["structure"]["metric"][4 * 6 + 0] = 5e-12
    tilted = str(tmp_path / "tilted.json")
    with open(tilted, "w", encoding="utf-8") as fh:
        fh.write(dump_json(data))
    assert run(["validate", tilted]) == 0
    for argv in (
        ["check", "--condition", "phi-null-osserman"],
        ["check", "--condition", "null-osserman"],
        ["verify-theorem"],
        ["remarks", "--kind", "sasaki_base"],
        ["remarks", "--kind", "lorentz_sasaki_base"],
    ):
        want = run([argv[0], exact, *argv[1:]])
        capsys.readouterr()
        assert run([argv[0], tilted, *argv[1:]]) == want == 0, argv
        assert capsys.readouterr().err == ""


def test_cli_check_conditions(phi_model_file, tmp_path, capsys):
    assert run(["check", phi_model_file, "--condition", "phi-null-osserman", "--samples", "8"]) == 0
    assert run(["check", phi_model_file, "--condition", "null-osserman", "--samples", "8"]) == 1
    constant = str(tmp_path / "const.json")
    run(["generate", "--family", "constant", "--n", "1", "--s", "2", "--param", "c=2",
         "--out", constant])
    assert run(["check", constant, "--condition", "osserman", "--samples", "8"]) == 0
    random_file = str(tmp_path / "rand.json")
    run(["generate", "--family", "random", "--n", "2", "--s", "1", "--seed", "3", "--out", random_file])
    assert run(["check", random_file, "--condition", "phi-null-osserman", "--samples", "8"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_theorem_exit_codes(phi_model_file, tmp_path, capsys):
    assert run(["verify-theorem", phi_model_file, "--samples", "6"]) == 0
    assert run(["verify-theorem", phi_model_file, "--samples", "4", "--tamper-sigma", "9.0"]) == 4
    rand_s2 = str(tmp_path / "rand2.json")
    run(["generate", "--family", "random", "--n", "2", "--s", "2", "--seed", "5", "--out", rand_s2])
    assert run(["verify-theorem", rand_s2, "--samples", "6"]) == 0  # hypothesis-false, reported
    # n=1 at s=2: trivially constant base spectrum can break the s=2
    # expectation for generic tensors; recorded in the report, exit stays 0
    rand_n1 = str(tmp_path / "rand_n1.json")
    run(["generate", "--family", "random", "--n", "1", "--s", "2", "--seed", "5", "--out", rand_n1])
    capsys.readouterr()
    assert run(["verify-theorem", rand_n1, "--samples", "6"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "recorded, not a sentinel" in out


@pytest.mark.parametrize("sigma, residual",
                         [("nan", "nan"), ("inf", "nan"), ("-inf", "nan"), ("5", "9.71e-01")])
def test_cli_tampered_sigma_fails_the_sentinel_and_says_so(tmp_path, capsys, sigma, residual):
    # a non-finite sigma makes the sentinel's residual NaN, which must fail it as a finite tamper
    # does (a fold by Python's max dropped the NaN: exit 0, residual 2.96e-16), with no numpy warning
    path = str(tmp_path / "phi_model.json")
    save_instance(path, generate_instance("phi_model", 2, 2))
    # argparse reads a bare "-inf" as an option, so a negative value is given in the = form
    tamper = [f"--tamper-sigma={sigma}"] if sigma.startswith("-") else ["--tamper-sigma", sigma]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify-theorem", path, *tamper]) == 4
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-1] == (
            f"  internal consistency: FAILED (shift-identity residual {residual}, not below 1e-09)")
        # the JSON report is unchanged: no text line joins it on stdout
        assert run(["verify-theorem", path, *tamper, "--json", "-"]) == 4
        out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["internal_consistency"] == "failed"


def test_cli_names_the_verdict_that_disagrees_under_the_hypothesis(phi_model_file, capsys, monkeypatch):
    # under the eigenvector hypothesis the three verdicts must agree; exit 4 says which did not
    computed = submersion.theorem_equivalence_report

    def base_failed(*args, **kwargs):
        report = computed(*args, **kwargs)
        return dataclasses.replace(report, base=dataclasses.replace(report.base, passed=False))

    monkeypatch.setattr(submersion, "theorem_equivalence_report", base_failed)
    assert run(["verify-theorem", phi_model_file, "--samples", "6"]) == 4
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  agreement (all-three): VIOLATED",
        "  engine defect: verdicts disagree under the eigenvector hypothesis"
        " (PASS: phi-null Osserman (direct), base null Osserman (tau); FAIL: base Osserman (pi))",
    ]


def test_cli_verify_theorem_rejects_s1(tmp_path, capsys):
    path = str(tmp_path / "s1.json")
    run(["generate", "--family", "constant", "--n", "1", "--s", "1", "--out", path])
    assert run(["verify-theorem", path, "--samples", "4"]) == 2


def test_cli_remarks(phi_model_file, capsys):
    assert run(["remarks", phi_model_file, "--kind", "sasaki_base", "--samples", "6"]) == 0
    assert run(["remarks", phi_model_file, "--kind", "lorentz_sasaki_base", "--samples", "6"]) == 0
    out = capsys.readouterr().out
    assert "transfer identity: PASS" in out


def test_cli_spectrum(phi_model_file, capsys):
    assert run(["spectrum", phi_model_file, "--vector", "1,0,0,0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "+1" in out and "x5" in out.replace(" ", "")
    assert run(["spectrum", phi_model_file, "--vector", "1,0,0,0,1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "null-jacobi" in out
    # timelike base: the family acts as -a on the complement of the frame vector
    assert run(["spectrum", phi_model_file, "--vector", "0,0,0,0,1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "timelike" in out and "-1" in out and "x6" in out.replace(" ", "")
    assert run(["spectrum", phi_model_file, "--vector", "0,0,0,0,0,0,0"]) == 2
    assert run(["spectrum", phi_model_file, "--vector", "1,2,oops"]) == 2


def test_cli_spectrum_of_a_small_spacelike_vector(tmp_path, capsys):
    # g(x, x) = 1e-12 fell under the absolute null cutoff: the vector was taken for null and
    # refused with "kernel dimension 0"; its character is judged against its size
    path = str(tmp_path / "constant.json")
    assert run(["generate", "--family", "constant", "--n", "2", "--s", "2", "--out", path]) == 0
    capsys.readouterr()
    assert run(["spectrum", path, "--vector", "0,1e-6,0,0,0,0"]) == 0
    assert capsys.readouterr().out == "jacobi (spacelike base): +1e-12 (x5)\n"


@pytest.mark.parametrize("vector, norm_sq", [
    ("0,1e200,0,0,0,0", "inf"), ("1e200,0,0,0,1e200,0", "inf"),  # spacelike and null
    ("0,1e-200,0,0,0,0", "0.000e+00"), ("1e-200,0,0,0,1e-200,0", "0.000e+00"),
    ("0,1e-160,0,0,0,0", "1.000e-320"),  # subnormal: its spectrum had lost digits
    ("0,0,0,0,0,0", "0.000e+00"),
])
def test_cli_spectrum_refuses_a_vector_whose_square_is_not_a_normal_float(tmp_path, capsys, vector, norm_sq):
    # 1e200 printed numpy RuntimeWarnings, then "Eigenvalues did not converge"; 1e-200 was taken
    # for null ("kernel dimension 0"); 1e-160 printed +9.999888672e-321 (x5)
    path = str(tmp_path / "constant.json")
    assert run(["generate", "--family", "constant", "--n", "2", "--s", "2", "--out", path]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["spectrum", path, "--vector", vector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: --vector has |x|^2 = {norm_sq}, not a positive finite normal float\n"


def test_cli_spectrum_refuses_an_operator_that_overflows(tmp_path, capsys):
    # |x|^2 = 1e308 is finite, the Jacobi operator's symmetrization is not
    path = str(tmp_path / "constant.json")
    assert run(["generate", "--family", "constant", "--n", "2", "--s", "2", "--out", path]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["spectrum", path, "--vector", "1e154,0,0,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("validation error: the jacobi (spacelike base) operator at --vector "
                                "has a non-finite entry\n")
        for vector, line in (("0,1e150,0,0,0,0", "+1e+300 (x5)"), ("0,1e-9,0,0,0,0", "+1e-18 (x5)")):
            assert run(["spectrum", path, "--vector", vector]) == 0
            assert capsys.readouterr().out == f"jacobi (spacelike base): {line}\n"


def test_cli_spectrum_vector_must_be_finite_of_the_dimension(phi_model_file, capsys):
    # a NaN or inf entry reached the SVD ("did not converge"), inf with numpy warnings on stderr
    for vector in ("nan,0,0,0,0,0,1", "inf,0,0,0,0,0,1", "1,0,0,0,0,0", "1,0,0,0,0,0,0,0"):
        assert run(["spectrum", phi_model_file, "--vector", vector]) == 2, vector
        err = capsys.readouterr().err
        assert err == f"validation error: --vector must hold 7 finite numbers, got {vector!r}\n"


@pytest.mark.parametrize("flag", ["--tol", "--grouping-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8", "tiny"])
def test_cli_tolerances_must_be_positive_finite(phi_model_file, capsys, flag, value):
    # a NaN tolerance passed every decision: NaN comparisons are False, so nothing failed
    commands = [["check", phi_model_file, "--condition", "osserman"], ["verify-theorem", phi_model_file]]
    if flag == "--grouping-tol":
        commands.append(["spectrum", phi_model_file, "--vector", "1,0,0,0,0,0,0"])
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--samples", "4", f"{flag}={value}"])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive finite number, got {value!r}" in err


def test_cli_remarks_takes_no_grouping_tol(tmp_path, capsys):
    # remarks groups no eigenvalues: it accepted the flag and ignored it
    path = tmp_path / "constant.json"
    save_instance(path, generate_instance("constant", 2, 2))
    with pytest.raises(SystemExit) as exc:
        run(["remarks", str(path), "--kind", "sasaki_base", "--grouping-tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grouping-tol 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, tolerances", [
    (["check", "--condition", "osserman", "--tol", "1e-6", "--grouping-tol", "1e-3"],
     {"constancy": 1e-6, "grouping": 1e-3}),
    (["verify-theorem", "--tol", "1e-6", "--grouping-tol", "1e-3"],
     {"constancy": 1e-6, "grouping": 1e-3, "identity": submersion.IDENTITY_ATOL}),
    (["remarks", "--kind", "sasaki_base", "--tol", "1e-6"],
     {"identity": submersion.IDENTITY_ATOL, "necessary": 1e-6}),
], ids=["check", "verify-theorem", "remarks"])
def test_cli_tolerance_flags_reach_the_report(phi_model_file, tmp_path, capsys, argv, tolerances):
    out = tmp_path / "report.json"
    assert run([argv[0], phi_model_file, *argv[1:], "--samples", "4", "--json", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["tolerances"] == tolerances


def test_cli_verify_theorem_asserts_no_agreement_when_s_exceeds_two(tmp_path, capsys):
    # a random tensor fails the eigenvector hypothesis, and at s > 2 the theorem then says nothing
    path, out = tmp_path / "random43.json", tmp_path / "theorem.json"
    save_instance(path, generate_instance("random", 4, 3))
    assert run(["verify-theorem", str(path), "--samples", "8", "--json", str(out)]) == 0
    assert "agreement: not asserted (hypothesis false, s > 2); verdicts reported" in capsys.readouterr().out
    assert json.loads(out.read_text())["agreement"] == {"holds": None, "required": False, "scope": None}


@pytest.mark.parametrize("argv", [
    ["check", "--condition", "osserman"],
    ["check", "--condition", "null-osserman"],
    ["check", "--condition", "phi-null-osserman"],
    ["remarks", "--kind", "sasaki_base"],
    ["verify-theorem"],
])
def test_cli_an_allocation_too_large_is_a_validation_error(phi_model_file, capsys, argv):
    # 10**15 samples ask for petabytes, past any address space, so numpy refuses them before
    # any memory is touched; the MemoryError was a traceback with exit 1, "condition failed"
    assert run([argv[0], phi_model_file, *argv[1:], "--samples", str(10**15)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: Unable to allocate ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--condition", "osserman"],
    ["check", "--condition", "null-osserman"],
    ["check", "--condition", "phi-null-osserman"],
    ["verify-theorem"],
])
def test_cli_a_single_sample_is_a_validation_error(phi_model_file, capsys, argv):
    # one sample passed a constancy decision with spread 0 that 2, 3 and 8 samples fail
    assert run([argv[0], phi_model_file, *argv[1:], "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: a constancy decision needs at least 2 samples, got 1\n"


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["check", "--condition", "osserman"],
    ["verify-theorem"],
    ["remarks", "--kind", "sasaki_base"],
    ["spectrum", "--vector", "1,0,0,0,0,0,0"],
])
def test_cli_json_may_not_name_the_input(phi_model_file, tmp_path, capsys, argv):
    # the report replaced the instance, and the next command on it was a validation error
    original = Path(phi_model_file).read_bytes()
    link = tmp_path / "link.json"
    link.symlink_to(phi_model_file)
    samples = [] if argv[0] in ("validate", "spectrum") else ["--samples", "4"]
    for target in (phi_model_file, str(link), str(Path(phi_model_file).parent / "." / "phi_model.json")):
        assert run([argv[0], phi_model_file, *argv[1:], *samples, "--json", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"validation error: --json {target} names the input file; "
                                "the report would replace it\n")
        assert Path(phi_model_file).read_bytes() == original
    code = run([argv[0], phi_model_file, *argv[1:], *samples])
    capsys.readouterr()
    assert run([argv[0], phi_model_file, *argv[1:], *samples, "--json", "-"]) == code
    json.loads(capsys.readouterr().out)
    report = tmp_path / "report.json"
    report.write_text("stale")
    assert run([argv[0], phi_model_file, *argv[1:], *samples, "--json", str(report)]) == code
    json.loads(report.read_text())
    assert Path(phi_model_file).read_bytes() == original


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["check", "--condition", "phi-null-osserman", "--samples", "4"],
    ["verify-theorem", "--samples", "4"],
    ["remarks", "--kind", "sasaki_base", "--samples", "4"],
    ["spectrum", "--vector", "1,0,0,0,0,0,0"],
])
def test_cli_a_failed_serialization_leaves_the_json_target_as_it_was(phi_model_file, tmp_path, capsys,
                                                                      monkeypatch, argv):
    # the target was opened, and so emptied, before the report was serialized
    def fail(data):
        raise MemoryError("no room for the report")

    report = tmp_path / "report.json"
    report.write_bytes(b'{"earlier": "report"}\n')
    monkeypatch.setattr(cli, "dump_json", fail)
    assert run([argv[0], phi_model_file, *argv[1:], "--json", str(report)]) == 2
    assert capsys.readouterr().err == "validation error: no room for the report\n"
    assert report.read_bytes() == b'{"earlier": "report"}\n'


@pytest.mark.parametrize("argv", [
    ["check", "--condition", "osserman"],
    ["check", "--condition", "null-osserman"],
    ["check", "--condition", "phi-null-osserman"],
    ["verify-theorem"],
    ["remarks", "--kind", "lorentz_sasaki_base"],
])
def test_cli_builds_no_record_and_no_row_dict(tmp_path, capsys, monkeypatch, argv):
    # the per-sample spectra go from the eigen step to the report bytes as arrays: no SampleRecord,
    # no records view and no row dict of a table is built on the CLI path
    path = str(tmp_path / "random.json")
    save_instance(path, generate_instance("random", 2, 2, seed=5))  # error rows in some stacks
    expected = run([argv[0], path, *argv[1:], "--json", str(tmp_path / "before.json")])

    def refuse(*args, **kwargs):
        raise AssertionError("built on the CLI path")

    for owner, name in ((jacobi.SampleRecord, "__init__"), (jacobi, "_records"), (reports.Table, "tolist"),
                        (reports, "_rows")):
        monkeypatch.setattr(owner, name, refuse)
    assert run([argv[0], path, *argv[1:], "--json", str(tmp_path / "after.json")]) == expected
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    capsys.readouterr()


def _asymmetric_metric_file(tmp_path, tilt: float) -> str:
    data = instance_to_dict(generate_instance("phi_model", 2, 2))
    metric = data["structure"]["metric"]  # 6x6 flat: entries 1 and 6 are g[0][1] and g[1][0]
    metric[1], metric[6] = metric[1] + tilt, metric[6] - tilt
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["check", "--condition", "osserman"],
    ["verify-theorem"],
    ["remarks", "--kind", "sasaki_base"],
    ["spectrum", "--vector", "1,0,0,0,0,0"],
])
def test_cli_an_asymmetric_metric_is_a_validation_error(tmp_path, capsys, argv):
    # the scalar product averages g and g^T, so validate saw residuals 0 and every command ran on
    # the average
    path = _asymmetric_metric_file(tmp_path, 0.5)
    assert run([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("validation error: structure.metric is not symmetric: "
                            "|g[0][1] - g[1][0]| = 1.000e+00 > 1e-10\n")


def test_an_asymmetry_below_the_validation_bound_still_loads(tmp_path):
    path = _asymmetric_metric_file(tmp_path, 1e-12)
    assert run(["validate", path]) == 0
    g = load_instance(path).structure.g.components
    assert np.array_equal(g, g.T)


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "constant", "--n", "2", "--s", "2"],
    ["generate", "--family", "random", "--n", "2", "--s", "2"],
    ["check", "<path>", "--condition", "osserman"],
    ["verify-theorem", "<path>"],
    ["remarks", "<path>", "--kind", "sasaki_base"],
])
def test_cli_a_negative_seed_is_a_usage_error(phi_model_file, tmp_path, capsys, argv):
    # numpy refused it with a message that names no flag, or generate wrote "seed": -3 into the file
    out = tmp_path / "x.json"
    argv = [phi_model_file if a == "<path>" else a for a in argv]
    argv += ["--out", str(out)] if argv[0] == "generate" else []
    for seed in ("-1", "-3"):
        with pytest.raises(SystemExit) as info:
            run([*argv, "--seed", seed])
        assert info.value.code == 2
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_bad_param(tmp_path):
    assert run(["generate", "--family", "constant", "--n", "1", "--s", "1",
                "--param", "c", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("param", ["c=nan", "c=inf", "c=1e400", "c=1e200", "bogus=1", "C=5", "scale=1e6"])
def test_cli_generate_rejects_parameters_before_writing(tmp_path, capsys, param):
    # scale=1e6: the random family's round-off fails validate_curvature's absolute 1e-10 at dim 12
    family, n = ("random", "5") if param.startswith("scale") else ("constant", "2")
    out = tmp_path / "x.json"
    assert run(["generate", "--family", family, "--n", n, "--s", "2",
                "--param", param, "--out", str(out)]) == 2
    assert not out.exists()
    assert param.split("=")[0] in capsys.readouterr().err


def test_cli_generate_writes_what_validate_passes(tmp_path):
    out = str(tmp_path / "x.json")
    assert run(["generate", "--family", "random", "--n", "5", "--s", "2",
                "--param", "scale=1e5", "--out", out]) == 0
    assert run(["validate", out]) == 0


def test_cli_components_above_the_bound_fail_validation(tmp_path, capsys):
    data = instance_to_dict(generate_instance("constant", 2, 2))
    data["curvature"]["components"] = [1e200 * v for v in data["curvature"]["components"]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data, default=np.ndarray.tolist))
    assert run(["validate", str(path)]) == 2
    assert "[FAIL] component_magnitude: residual 1.000e+200" in capsys.readouterr().out
    assert run(["verify-theorem", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: curvature validation failed: component_magnitude")


@pytest.mark.parametrize("n, s", [(5, 2), (9, 2)], ids=["dim12", "dim20"])
def test_cli_components_just_under_the_bound_run_without_overflow(tmp_path, n, s):
    # every command on a constant-curvature instance at 0.99 MAX_COMPONENT: no numpy warning (an
    # overflow or an invalid value) and no NaN or infinity in any report
    path, report = str(tmp_path / "big.json"), str(tmp_path / "report.json")
    save_instance(path, generate_instance("constant", n, s, {"c": 0.99 * MAX_COMPONENT}))
    commands = [["verify-theorem"], ["validate"]]
    commands += [["remarks", "--kind", k] for k in ("sasaki_base", "lorentz_sasaki_base")]
    commands += [["check", "--condition", c] for c in ("osserman", "null-osserman", "phi-null-osserman")]
    commands.append(["check", "--condition", "osserman", "--causal-kind", "timelike"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in commands:
            assert run([argv[0], path, *argv[1:], "--json", report]) in (0, 1, 4), argv
            text = Path(report).read_text()
            assert "NaN" not in text and "Infinity" not in text, argv


def test_instance_dim_mismatch_between_blocks():
    inst = generate_instance("constant", 1, 1, {"c": 1.0})
    big = generate_instance("constant", 1, 2, {"c": 1.0})
    data = instance_to_dict(inst)
    data["curvature"] = instance_to_dict(big)["curvature"]
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_cli_json_reports_are_deterministic(phi_model_file, tmp_path):
    pairs = []
    for name in ("r1.json", "r2.json"):
        target = str(tmp_path / name)
        assert run(["verify-theorem", phi_model_file, "--samples", "5", "--json", target]) == 0
        pairs.append(Path(target).read_bytes())
    assert pairs[0] == pairs[1]
    payload = json.loads(pairs[0])
    assert payload["verdicts"]["phi_null_osserman"] is True
    assert payload["hypothesis_flag"] is True


def test_cli_determinism_across_processes(phi_model_file, tmp_path):
    import subprocess
    import sys

    outputs = []
    for name in ("p1.json", "p2.json"):
        target = str(tmp_path / name)
        proc = subprocess.run(
            [sys.executable, "-m", "phinull.cli", "verify-theorem", phi_model_file,
             "--samples", "4", "--json", target],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(Path(target).read_bytes())
    assert outputs[0] == outputs[1]


LOADED_MODULES = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from phinull.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = run(sys.argv[2:])
    except SystemExit as exc:  # --help and --version
        code = exc.code
print(code, *sorted(name for name in sys.modules if name.startswith("phinull.")))
"""


def test_each_command_loads_only_the_engine_modules_it_runs(tmp_path):
    # a fresh interpreter per command: validate, generate and the parser load no engine module,
    # check and spectrum load jacobi, verify-theorem and remarks load jacobi and submersion
    inst = str(tmp_path / "phi_model.json")
    save_instance(inst, generate_instance("phi_model", 2, 2))
    parser = {"cli", "io", "gff", "curvature", "linalg", "reports"}
    commands = [
        (["validate", inst], parser),
        (["generate", "--family", "random", "--n", "2", "--s", "2", "--out", str(tmp_path / "r.json")],
         parser),
        (["--help"], parser),
        (["--version"], parser),
        (["check", inst, "--condition", "phi-null-osserman"], parser | {"jacobi"}),
        (["spectrum", inst, "--vector", "0,0,1,0,0,0"], parser | {"jacobi"}),
        (["verify-theorem", inst], parser | {"jacobi", "submersion"}),
        (["remarks", inst, "--kind", "sasaki_base"], parser | {"jacobi", "submersion"}),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv, modules in commands:
        proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, src, *argv],
                              capture_output=True, text=True, check=False)
        code, *loaded = proc.stdout.split()
        assert code == "0", (argv, proc.stderr)
        assert set(loaded) == {f"phinull.{name}" for name in modules}, argv


def test_cli_json_to_stdout(phi_model_file, tmp_path, capsys):
    assert run(["check", phi_model_file, "--condition", "phi-null-osserman",
                "--samples", "4", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["condition"] == "phi-null-osserman"
    assert payload["passed"] is True
    # every subcommand with --json writes one JSON document to stdout, or nothing when it fails
    random12 = str(tmp_path / "random12.json")
    save_instance(random12, generate_instance("random", 5, 2))
    commands = [
        ["validate", phi_model_file],
        ["check", phi_model_file, "--condition", "osserman", "--samples", "4"],
        ["verify-theorem", phi_model_file, "--samples", "4"],
        ["remarks", phi_model_file, "--kind", "sasaki_base", "--samples", "4"],
        ["spectrum", phi_model_file, "--vector", "1,0,0,0,0,0,0"],
        ["spectrum", random12, "--vector", "0,0,1,0,0,0,0,0,0,0,0,0"],  # non-real eigenvalues
    ]
    for argv in commands:
        code = run([*argv, "--json", "-"])
        captured = capsys.readouterr()
        if code == 1 and argv[0] == "spectrum":
            assert captured.out == ""
            assert "non-real eigenvalues" in captured.err and captured.err.count("\n") == 1
        else:
            assert isinstance(json.loads(captured.out), dict), argv
    assert code == 1  # the last spectrum fails: its line went to stderr


def test_cli_failed_spectrum_without_json_to_stdout(tmp_path, capsys):
    # with a report file or no --json the failed spectrum's line stays on stdout and no file is written
    path, report = str(tmp_path / "random12.json"), tmp_path / "report.json"
    save_instance(path, generate_instance("random", 5, 2))
    for extra in ([], ["--json", str(report)]):
        assert run(["spectrum", path, "--vector", "0,0,1,0,0,0,0,0,0,0,0,0", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("jacobi (spacelike base): non-real eigenvalues") and captured.err == ""
        assert not report.exists()


# -- canonical JSON -------------------------------------------------------------

def _assert_canonical(text: str, data) -> None:
    """``text`` is ``json.dumps(data, indent=2, sort_keys=True, default=lambda o: o.tolist())``
    plus a newline: a numpy array or a ``reports.Table`` is written as its ``tolist()``.

    A mismatch is reported at its first differing line: a full text diff of
    a dim-12 instance file takes minutes.
    """
    want = json.dumps(data, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
    if text != want:
        got_lines, want_lines = text.split("\n"), want.split("\n")
        k = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {k}: {got_lines[k:k + 3]!r} != json.dumps {want_lines[k:k + 3]!r}")


_text = st.text(st.sampled_from(list(',[{"\\: \u00e9\u221e\u2028\U0001f600')) | st.characters(),
                max_size=6)
_numbers = st.one_of(
    st.floats(),  # NaN, +-inf and -0.0 included
    st.sampled_from([-0.0, 1e300, -1e300, 1e-300, float("nan"), float("inf"), float("-inf")]),
    st.integers(min_value=-2**80, max_value=2**80),
    st.booleans(),
    st.none(),
)
# Floats that repeat within a document, bit patterns that compare equal (0.0, -0.0) or are
# never equal (two NaN payloads) included: the writer converts each distinct one once.
_pooled = st.sampled_from([
    0.0, -0.0, float("nan"), struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],
    float("inf"), float("-inf"), 5e-324, 1e16, 0.1,
])
_NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]  # sign bit and payload
_signed = st.sampled_from([_NEGATIVE_NAN, 0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324,
                           2.2e-308, -2.2e-308, 1.5, -1.5])
# ndarray leaves: a non-empty 1-D float64 array is written straight from its bits, any other
# array as its tolist()
_arrays = st.one_of(
    st.lists(_pooled | _signed, min_size=1, max_size=8).map(np.array),
    # x and -x: one text per magnitude
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda xs: np.array(xs + [-x for x in xs])),
    st.lists(_pooled | _signed, min_size=1, max_size=3).map(lambda xs: np.array([xs, xs[::-1]])),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda xs: np.array(xs, dtype=bool)),
    st.sampled_from([np.empty(0), np.empty((2, 0)), np.empty(0, dtype=np.int64)]),
)
_trees = st.recursive(
    _numbers | _text | _arrays | st.lists(_numbers, max_size=8)
    | st.lists(_pooled, min_size=1, max_size=8)
    | st.lists(st.integers(), min_size=1, max_size=8)  # ints of any size, as int.__repr__ writes them
    | st.lists(st.sampled_from([1, 1.0, True]) | _pooled, min_size=1, max_size=6),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_text, kids, max_size=4),
        # a number first, then anything: a list of mixed items
        st.builds(lambda head, rest: [head, *rest], _numbers, st.lists(kids, max_size=3)),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_dump_json_is_json_dumps_byte_for_byte(tree):
    _assert_canonical(dump_json(tree), tree)


def test_dump_json_repeated_and_nested_float_lists():
    nan2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    tree = {
        "one": [0.1],
        "signed zeros": [0.0, -0.0, -0.0, 0.0],
        "nested": [[0.1, 1e16], {"deeper": [[5e-324, float("nan"), nan2, 0.1]]}, (1e16,)],
        "mixed": [[1, 1.0, True], [1.0, None], [0.1, "0.1"]],
        "subclass": [np.float64(0.1), 0.1],
    }
    _assert_canonical(dump_json(tree), tree)


@pytest.mark.parametrize("family", ["constant", "phi_model", "random"])
def test_dump_json_on_dim12_theorem_reports(family):
    inst = generate_instance(family, 5, 2, seed=4)
    data = theorem_equivalence_report(inst.curvature, inst.structure, 64, 0).to_dict()
    _assert_canonical(dump_json(data), data)


# -- tables: per-sample rows written in one pass ---------------------------------

# NaN (with a sign bit and a payload), +-0.0, +-inf, subnormals, and values close enough to group
_cells = st.sampled_from([
    float("nan"), _NEGATIVE_NAN, 0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324,
    2.2e-308, 1.0, 1.0 + 1e-9, 1.5, -1.5, 0.1,
]) | st.floats()
_messages = st.text(st.sampled_from(list('"\\\n\t \u00e9\u221e\u2028\U0001f600')) | st.characters(), max_size=12)


def _float_array(draw, shape) -> np.ndarray:
    values = draw(st.lists(_cells, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def _spectra_tables(draw) -> Table:
    """A table of the deciders' shape: error rows and spectra rows of mixed multiplicity patterns."""
    size, m, d = draw(st.integers(0, 6)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    errors = draw(st.lists(st.none() | _messages, min_size=size, max_size=size))
    ok = errors.count(None)
    tol = draw(st.sampled_from([1e-6, 0.5, 2.0]))
    return _spectra_table(_float_array(draw, (size, m)), errors, _float_array(draw, (ok, d)), tol)


# the list or dict of one row's object cell, floats inside
_cell_objects = st.lists(_cells, max_size=3) | st.dictionaries(_text, _cells | st.lists(_cells, max_size=2),
                                                               max_size=3)


@st.composite
def _template(draw, rows: int, depth: int = 0) -> dict:
    template = {}
    for key in draw(st.lists(_text, min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["numbers", "number", "bool", "ints", "bools", "text", "objects", "constant"]
                                    + (["nested"] if depth < 2 else [])))
        if kind == "numbers":
            template[key] = _float_array(draw, (rows, draw(st.integers(0, 3))))
        elif kind == "number":
            template[key] = _float_array(draw, (rows,))
        elif kind == "bool":
            template[key] = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
        elif kind in ("ints", "bools"):  # 2-D: a list per row
            width = draw(st.integers(0, 3))
            values = st.integers(-2**63, 2**63 - 1) if kind == "ints" else st.booleans()
            template[key] = np.array(draw(st.lists(values, min_size=rows * width, max_size=rows * width)),
                                     dtype=np.int64 if kind == "ints" else bool).reshape(rows, width)
        elif kind == "objects":
            template[key] = np.empty(rows, dtype=object)
            for n, value in enumerate(draw(st.lists(_cell_objects, min_size=rows, max_size=rows))):
                template[key][n] = value
        elif kind == "text":
            template[key] = np.array(draw(st.lists(_messages, min_size=rows, max_size=rows)) + [None],
                                     dtype=object)[:rows]
        elif kind == "constant":
            template[key] = draw(st.sampled_from([(1, 2), (3,), (), "c", 7, None, 0.5, [1.5, -0.0], {}]))
        else:
            template[key] = draw(_template(rows, depth + 1))
    return template


@st.composite
def _column_tables(draw) -> Table:
    """A table of any row shapes: its rows dealt to one to three blocks, each of its own template."""
    size = draw(st.integers(0, 5))
    owner = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)), dtype=np.intp)
    blocks = []
    for b in np.unique(owner).tolist():
        rows = np.flatnonzero(owner == b)
        blocks.append((rows, draw(_template(len(rows)))))
    return Table(size, tuple(blocks))


_tables = _spectra_tables() | _column_tables()


@settings(max_examples=150, deadline=None)
@given(_tables, _tables, _tables)
def test_dump_json_writes_tables_as_json_dumps_of_their_rows(top, direct, quotient):
    # a table alone, then tables nested at three depths: a decision's beside the theorem's dict of
    # four, and in a list, as the reports hold them
    _assert_canonical(dump_json(top), top)
    tree = {
        "decision": {"per_sample_spectra": top, "samples": len(top), "failure": None},
        "theorem": {"per_sample_spectra": {"phi_null_direct": direct, "phi_null_quotient": quotient,
                                           "base_osserman": top, "base_null_osserman": direct}},
        "listed": [quotient, {"deeper": [direct, 0.1]}],
    }
    _assert_canonical(dump_json(tree), tree)
    assert [len(row) for row in top.tolist()] == [len(row) for row in json.loads(dump_json(top))]


@pytest.mark.parametrize("size", [0, 1])
def test_dump_json_of_empty_and_one_row_tables(size):
    spectra = _spectra_table(np.zeros((size, 2)), ["a \"quoted\" \\ \u00e9"] * size, np.empty((0, 3)), 1e-6)
    columns = Table(size, ((np.arange(size), {"base": np.full((size, 2), -0.0), "ok": np.ones(size, bool)}),))
    for table in (spectra, columns, Table(0, ())):
        _assert_canonical(dump_json(table), table)
        _assert_canonical(dump_json({"per_sample": table}), {"per_sample": table})
    assert dump_json(Table(0, ())) == "[]\n"


@pytest.mark.parametrize("tree", [
    {2: [1], 10: [], -1: {}},
    {1.5: 0, float("inf"): "x", -0.0: [2, 3]},
    {True: 1, False: [0.5]},
    {None: (1, "a,b")},
], ids=["int", "float", "bool", "none"])
def test_dump_json_non_string_keys(tree):
    _assert_canonical(dump_json(tree), tree)


def test_dump_json_layouts_of_equal_keys():
    # 1, 1.0 and True are equal dict keys that json writes apart: a layout cache keyed on the
    # keys alone wrote {True: 0} and {1.0: 0} as "1" after {1: 0}
    trees = [{1: 0}, {True: 0}, {1.0: 0}, {None: 0}, {1: 0}, {"b": 1.5, "a": [2]},
             {"a": [2], "b": 1.5}, {"x": {"b": 1.5, "a": [2]}, "y": [{"a": [2], "b": 1.5}]}]
    for tree in trees:
        _assert_canonical(dump_json(tree), tree)


def test_helper_dicts_hold_copies():
    inst = generate_instance("random", 2, 2, seed=1)
    text = dump_json(instance_to_dict(inst))
    data = instance_to_dict(inst)
    arrays = [value for block in (data["structure"], data["curvature"])
              for value in block.values() if isinstance(value, np.ndarray)]
    assert [a.ndim for a in arrays] == [1, 1, 2, 2, 1, 1]
    for array in arrays:
        assert array.dtype == np.float64
        array += 1.0  # a view of the read-only metric would raise
    assert dump_json(instance_to_dict(inst)) == text


@pytest.mark.parametrize("family", ["constant", "phi_model", "random"])
@pytest.mark.parametrize("n, s", [(2, 2), (4, 3), (5, 2)], ids=["dim6", "dim11", "dim12"])
def test_save_load_is_bit_exact(tmp_path, family, n, s):
    inst = generate_instance(family, n, s, {"c": -2.5} if family == "constant" else None, seed=3)
    path = tmp_path / "instance.json"
    save_instance(path, inst)
    back = load_instance(path)
    pairs = [(inst.curvature.components, back.curvature.components),
             (inst.structure.g.components, back.structure.g.components)]
    pairs += [(getattr(inst.structure, key), getattr(back.structure, key))
              for key in ("phi", "xi", "eta", "epsilon")]
    for want, got in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # -0.0 included
    assert back.metadata == inst.metadata


@pytest.mark.parametrize("family", ["constant", "phi_model", "random"])
def test_dump_json_on_instance_files(family):
    data = instance_to_dict(generate_instance(family, 5, 2, seed=4))
    _assert_canonical(dump_json(data), data)


def test_dump_json_on_every_report(tmp_path, monkeypatch):
    emitted = []

    def checked(data):
        text = dump_json(data)
        _assert_canonical(text, data)
        emitted.append(data)
        return text

    monkeypatch.setattr(cli, "dump_json", checked)
    report = str(tmp_path / "report.json")
    for family in ("phi_model", "random"):
        path = str(tmp_path / f"{family}.json")
        save_instance(path, generate_instance(family, 2, 2, seed=5))
        commands = [
            ["validate", path],
            ["check", path, "--condition", "osserman", "--samples", "6"],
            ["check", path, "--condition", "osserman", "--causal-kind", "timelike", "--samples", "6"],
            ["check", path, "--condition", "null-osserman", "--samples", "6"],
            ["check", path, "--condition", "phi-null-osserman", "--samples", "6"],
            ["remarks", path, "--kind", "sasaki_base", "--samples", "6"],
            ["remarks", path, "--kind", "lorentz_sasaki_base", "--samples", "6"],
            ["verify-theorem", path, "--samples", "6"],
            ["spectrum", path, "--vector", "0,0,1,0,0,0"],
        ]
        for argv in commands:
            run(argv + ["--json", report])
    # every command emits a report, except spectrum on the random tensor (exit 1)
    assert len(emitted) == 2 * len(commands) - 1


def test_cached_parser_keeps_no_state_between_calls(phi_model_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same usage layout in and out of process
    check = ["check", phi_model_file, "--condition", "osserman", "--samples", "6", "--seed", "3"]
    spectrum = ["spectrum", phi_model_file, "--vector", "1,0,0,0,0,0,0", "--json"]
    sequence = [
        check + ["--json", "{report}"],
        check,
        spectrum + ["--grouping-tol", "0.5"],
        spectrum,
        ["check", phi_model_file, "--condition", "no-such-condition"],
        ["check", phi_model_file, "--condition", "null-osserman", "--samples", "6"],
    ]
    for k, argv in enumerate(sequence):
        in_process = str(tmp_path / f"in-{k}.json")
        alone = str(tmp_path / f"alone-{k}.json")
        capsys.readouterr()
        try:
            code = run([a.format(report=in_process) for a in argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "phinull.cli",
                               *[a.format(report=alone) for a in argv]],
                              capture_output=True, text=True)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        if "{report}" in argv:
            assert Path(in_process).read_bytes() == Path(alone).read_bytes()
    assert code == 1 and "FAIL" in out
