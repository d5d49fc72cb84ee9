"""The public surface keeps one value per tolerance and one call convention per operator stack.

Every tolerance is a module constant read where it is used, defined once and documented by one
row of README's tolerance table. The only tolerance parameters are the ones the CLI's ``--tol``
and ``--grouping-tol`` set: those of the deciders, of ``spectrum`` and
``SpectralData.from_values``, and of ``OperatorStack.records``, which carries the deciders'
grouping tolerance to the spectra.

The four operator-stack builders take the slot-4 contraction of their bases first, and none has
a twin that takes the curvature tensor. Every operator lives on g-orthonormal domain rows with
their signs: the one assembly, ``operator_stack``, takes no metric, and no stack stores a Gram.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

# by module path: the package's own ``jacobi`` is the function of that name
MODULES = [importlib.import_module(f"phinull.{name}")
           for name in ("linalg", "gff", "curvature", "jacobi", "submersion", "io")]

DECIDERS = (
    "jacobi.decide_constancy",
    "jacobi.is_osserman_at",
    "jacobi.is_null_osserman_wrt",
    "jacobi.is_phi_null_osserman_wrt",
    "submersion.base_osserman_check",
    "submersion.base_null_osserman_check",
    "submersion.theorem_equivalence_report",
)
ALLOWED = (
    {(name, "tol") for name in DECIDERS + ("submersion.remark_sectional_conditions",)}
    | {(name, "grouping_tol") for name in DECIDERS}
    | {(name, "grouping_tol") for name in
       ("jacobi.spectrum", "jacobi.SpectralData.from_values", "jacobi.OperatorStack.records")}
)


def _public_callables():
    """(dotted name, callable) for every public function, and every public method of a public
    class, defined in the engine's modules."""
    for module in MODULES:
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{prefix}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") or isinstance(member, property):
                        continue
                    function = getattr(member, "__func__", member)  # classmethods and staticmethods
                    if inspect.isfunction(function):
                        yield f"{prefix}.{name}.{attr}", function


def test_only_the_cli_tolerances_are_parameters():
    found = {
        (name, param)
        for name, function in _public_callables()
        for param in inspect.signature(function).parameters
        if "tol" in param.lower()
    }
    assert found == ALLOWED


KNOB = re.compile(r"_ATOL$|_RTOL$|^MAX_COMPONENT$")
PACKAGE = Path(MODULES[0].__file__).parent


def test_each_tolerance_constant_is_one_row_of_the_readme_table():
    # a new, duplicated or undocumented constant fails here; the DEFAULT_* rows are the defaults of
    # the two tolerance parameters, not constants read in place
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"allclose|isclose", source), f"{path.name} hides a relative tolerance"
        for node in ast.parse(source).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and KNOB.search(target.id):
                    name = f"{path.stem}.{target.id}"
                    assert name not in defined, f"{name} is assigned twice"
                    defined[name] = getattr(importlib.import_module(f"phinull.{path.stem}"), target.id)
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    table = readme[readme.index("## Tolerances"):].split("\n## ", 1)[0]
    cells = [re.split(r"(?<!\\)\|", line)[1:3] for line in table.splitlines() if line.startswith("| `")]
    rows = [(name.strip(" `"), value.strip()) for name, value in cells if ".DEFAULT_" not in name]
    assert len({name for name, _ in rows}) == len(rows), "a constant has two rows"
    assert {name for name, _ in rows} == set(defined)
    for name, value in rows:  # a value column that opens with a number gives the constant's value
        if re.match(r"[\d.]+e-\d+", value):
            assert float(value.split()[0]) == defined[name], name


def test_the_walk_sees_methods_and_classmethods():
    names = {name for name, _ in _public_callables()}
    assert {"linalg.ScalarProduct.from_matrix", "linalg.orthonormalize", "jacobi.OperatorStack.records",
            "curvature.sectional_curvatures", "io.generate_instance"} <= names


BUILDERS = ("jacobi.jacobi_stack", "jacobi.null_jacobi_stack",
            "submersion.r_star_stack", "submersion.base_null_stack")


def test_operator_stacks_are_built_from_the_contraction_only():
    # one call convention: every decider passes slot4_contraction(R, bases) itself, so no function
    # that returns an OperatorStack takes the curvature tensor
    modules = {module.__name__.rsplit(".", 1)[1]: module for module in MODULES}
    for name in BUILDERS:
        prefix, attr = name.split(".")
        assert list(inspect.signature(getattr(modules[prefix], attr)).parameters)[0] in ("RX", "RU"), name
        assert not hasattr(modules[prefix], "_" + attr), f"{name} has a private twin"
    stack_builders = set()
    for prefix, module in modules.items():
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            signature = inspect.signature(obj)
            if signature.return_annotation == "OperatorStack":
                assert "CurvatureTensor" not in {p.annotation for p in signature.parameters.values()}, attr
                if attr.endswith("_stack") and attr != "operator_stack":
                    stack_builders.add(f"{prefix}.{attr}")
    assert stack_builders == set(BUILDERS)
    assert "domains" not in inspect.signature(modules["jacobi"].jacobi_stack).parameters
    # one domain representation: g-orthonormal rows and their signs, no metric or Gram beside them
    jacobi = modules["jacobi"]
    assembly = inspect.signature(jacobi.operator_stack).parameters
    assert "g" not in assembly and "ScalarProduct" not in {p.annotation for p in assembly.values()}
    fields = [field.name for field in dataclasses.fields(jacobi.OperatorStack)]
    assert fields == ["bases", "errors", "domains", "matrices", "signs"]
    for function in (jacobi._spectra, jacobi.operator_stack):
        assert inspect.signature(function).parameters["signs"].default is inspect.Parameter.empty, function
    report = modules["submersion"].theorem_equivalence_report
    assert "tau_fibration" not in inspect.signature(report).parameters


# the per-vector names the acceptance criteria import, each a one-row call of an engine route
CRITERIA_NAMES = {
    "submersion.oneill_A": ["F", "X", "Y"],
    "submersion.r_star_form": ["R", "g", "F", "x", "y", "z"],
    "submersion.r_star": ["R", "g", "F", "x"],
    "submersion.shift_identity_residual": ["R", "S", "F", "x", "y"],
    "jacobi.null_quotient": ["g", "u"],
    "jacobi.null_quotient_from_representatives": ["g", "u", "representatives"],
    "jacobi.sample_null_vectors": ["g", "count", "seed"],
    "gff.sample_celestial": ["S", "count", "seed"],
    "gff.psi": ["S", "u"],
    "gff.psi_inverse": ["S", "x"],
}


def test_the_names_the_criteria_import_keep_their_parameter_lists():
    functions = dict(_public_callables())
    for name, parameters in CRITERIA_NAMES.items():
        found = inspect.signature(functions[name]).parameters.values()
        assert [(p.name, p.kind, p.default) for p in found] == [
            (p, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty) for p in parameters
        ], name
