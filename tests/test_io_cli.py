"""Instance files and the command-line front end (exit codes, determinism)."""

import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinull import cli
from phinull.cli import run
from phinull.curvature import validate_curvature
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


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"i": 0, "j": 1, "k": 0, "value": 6.0}, "missing the 'l' field"),
        ({"i": 0, "j": 1, "k": 0, "l": 1}, "missing the 'value' field"),
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": "six"}, "six"),
        ({"i": 0, "j": 1, "k": 0, "l": 1, "value": None}, "not numeric"),
        ([0, 1, 0, 1, 6.0], "not an object"),
        ({"i": float("inf"), "j": 1, "k": 0, "l": 1, "value": 6.0}, "not numeric"),
    ],
)
def test_cli_bad_sparse_curvature_entry_is_a_validation_error(tmp_path, capsys, entry, message):
    data = instance_to_dict(generate_instance("constant", 1, 1, {"c": 1.0}))
    data["curvature"] = {"dim": 3, "entries": [entry]}
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(data))
    assert run(["check", str(path), "--condition", "osserman", "--samples", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: 5, "instance file must hold a JSON object, not int"),
        (lambda d: {**d, "structure": 5}, "the 'structure' block must be an object, not int"),
        (lambda d: {**d, "curvature": [1]}, "the 'curvature' block must be an object, not list"),
        (lambda d: {**d, "metadata": 3}, "the 'metadata' block must be an object, not int"),
        (lambda d: {**d, "metadata": {**d["metadata"], "parameters": 3}},
         "metadata.parameters must be an object, not int"),
    ],
    ids=["top-level", "structure", "curvature", "metadata", "parameters"],
)
def test_cli_non_object_block_is_a_validation_error(tmp_path, capsys, edit, message):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(edit(instance_to_dict(generate_instance("constant", 1, 1)))))
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
        path.write_text(json.dumps(data))
        assert run(["validate", str(path)]) == 2, value
        err = capsys.readouterr().err
        assert err == f"validation error: {block}.{key} must be an integer, got {value!r}\n"


def test_cli_nan_residual_is_named_as_the_worst_check(tmp_path, capsys):
    # NaN never compares greater, so ranking by residual / threshold alone
    # named a passing check with residual 0.
    data = instance_to_dict(generate_instance("constant", 2, 2))
    data["structure"]["metric"][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert run(["check", str(path), "--condition", "osserman", "--samples", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: structure validation failed:")
    assert err.endswith(" residual nan\n")


def test_cli_sample_off_the_phi_sphere_is_a_validation_error(tmp_path, capsys):
    # g(e_0, e_4) = 5e-12 passes validation, but the sampled phi-celestial
    # points then miss their constraints by more than SAMPLE_ATOL.
    data = instance_to_dict(generate_instance("constant", 2, 2))
    data["structure"]["metric"][0 * 6 + 4] = data["structure"]["metric"][4 * 6 + 0] = 5e-12
    path = str(tmp_path / "tilted.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(data))
    assert run(["validate", path]) == 0
    for argv in (
        ["check", path, "--condition", "phi-null-osserman"],
        ["verify-theorem", path],
        ["remarks", path, "--kind", "sasaki_base"],
    ):
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "violates S_phi constraints" in err


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


def test_cli_generate_bad_param(tmp_path):
    assert run(["generate", "--family", "constant", "--n", "1", "--s", "1",
                "--param", "c", "--out", str(tmp_path / "x.json")]) == 2


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


def test_cli_json_to_stdout(phi_model_file, capsys):
    assert run(["check", phi_model_file, "--condition", "phi-null-osserman",
                "--samples", "4", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["condition"] == "phi-null-osserman"
    assert payload["passed"] is True


# -- canonical JSON -------------------------------------------------------------

def _assert_canonical(text: str, data) -> None:
    """``text`` is ``json.dumps(data, indent=2, sort_keys=True)`` plus a newline.

    A mismatch is reported at its first differing line: a full text diff of
    a dim-12 instance file takes minutes.
    """
    want = json.dumps(data, indent=2, sort_keys=True) + "\n"
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
_trees = st.recursive(
    _numbers | _text | st.lists(_numbers, max_size=8),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_text, kids, max_size=4),
        # a number first, then anything: the writer's flat-list path must say no
        st.builds(lambda head, rest: [head, *rest], _numbers, st.lists(kids, max_size=3)),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_dump_json_is_json_dumps_byte_for_byte(tree):
    _assert_canonical(dump_json(tree), tree)
    with mock.patch("phinull.io._SLICE", 3):  # number lists across slice boundaries
        _assert_canonical(dump_json(tree), tree)


@pytest.mark.parametrize("tree", [
    {2: [1], 10: [], -1: {}},
    {1.5: 0, float("inf"): "x", -0.0: [2, 3]},
    {True: 1, False: [0.5]},
    {None: (1, "a,b")},
], ids=["int", "float", "bool", "none"])
def test_dump_json_non_string_keys(tree):
    _assert_canonical(dump_json(tree), tree)


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
