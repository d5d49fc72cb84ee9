"""JSON instance files: structures, curvature tensors, and bundled instances.

File formats (all numbers decimal floats, all indices 0-based):

Structure block::

    {"dim": m, "n": n, "s": s,
     "metric": [...],        # m*m row-major (flat or nested)
     "phi": [...],           # m*m row-major (flat or nested)
     "xi": [[...], ...],     # s rows of length m
     "eta": [[...], ...],    # s rows of length m
     "epsilon": [...]}       # s signs

Curvature block, dense or sparse::

    {"dim": m, "components": [...]}                      # m^4 row-major
    {"dim": m, "entries": [{"i":..,"j":..,"k":..,"l":..,"value":..}, ...]}

Sparse entries are symmetrized on load (projected onto the curvature-symmetry
class); dense components are validated as-is and rejected when a symmetry
fails, with the worst residual and its indices in the error message.

Instance file::

    {"structure": {...}, "curvature": {...},
     "metadata": {"name": .., "seed": .., "family": .., "parameters": {..}}}

Loaders normalize the frame so that the timelike frame vector comes first,
swapping rows of xi/eta/epsilon if the file stores it elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curvature import (
    CurvatureTensor,
    constant_curvature,
    phi_model_family,
    random_algebraic_curvature,
    symmetrize_curvature,
    validate_curvature,
)
from .gff import GffStructure, canonical_structure, validate_gff
from .linalg import GeometryError, ScalarProduct
from .reports import ValidationReport

FAMILIES = (
    "canonical+constant",
    "canonical+phi_model",
    "canonical+random",
    "external",
)


class InstanceValidationError(GeometryError):
    """A file parsed correctly but failed structural or curvature validation."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


def _square(data, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape == (dim * dim,):
        arr = arr.reshape(dim, dim)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim} (flat or nested), got shape {arr.shape}")
    return arr


def _integer(value, field: str) -> int:
    """``int(value)``, or a ValueError naming the field where it fails (a list, an object, null, NaN, inf)."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be an integer, got {value!r}") from None


def _floats(arr) -> list:
    """Nested lists of Python floats, as ``float(v)`` per element would give."""
    return np.asarray(arr, dtype=float).tolist()


def structure_to_dict(S: GffStructure) -> dict:
    return {
        "dim": S.dim,
        "n": S.n,
        "s": S.s,
        "metric": _floats(S.g.components.reshape(-1)),
        "phi": _floats(S.phi.reshape(-1)),
        "xi": _floats(S.xi),
        "eta": _floats(S.eta),
        "epsilon": _floats(S.epsilon),
    }


def structure_from_dict(data: dict, validate: bool = True) -> GffStructure:
    for key in ("dim", "n", "s", "metric", "phi", "xi", "eta", "epsilon"):
        if key not in data:
            raise ValueError(f"structure block is missing the '{key}' field")
    n, s, dim = (_integer(data[key], f"structure.{key}") for key in ("n", "s", "dim"))
    if dim != 2 * n + s:
        raise ValueError(f"dim = {dim} does not equal 2n+s = {2 * n + s}")
    g = ScalarProduct.from_matrix(_square(data["metric"], dim, "metric"))
    phi = _square(data["phi"], dim, "phi")
    xi = np.asarray(data["xi"], dtype=float)
    eta = np.asarray(data["eta"], dtype=float)
    epsilon = np.asarray(data["epsilon"], dtype=float)
    if xi.shape != (s, dim) or eta.shape != (s, dim) or epsilon.shape != (s,):
        raise ValueError("xi/eta must be s rows of length dim, epsilon length s")

    negatives = np.flatnonzero(epsilon < 0)
    if negatives.size != 1:
        raise InstanceValidationError(
            f"expected exactly one timelike frame vector, found {negatives.size}"
        )
    tl = int(negatives[0])
    if tl != 0:
        # normalize: the timelike frame vector leads
        order = [tl] + [a for a in range(s) if a != tl]
        xi, eta, epsilon = xi[order], eta[order], epsilon[order]

    S = GffStructure(n=n, s=s, g=g, phi=phi, xi=xi, eta=eta, epsilon=epsilon)
    if validate:
        report = validate_gff(S)
        if not report.passed:
            worst = report.worst()
            raise InstanceValidationError(
                f"structure validation failed: {worst.name} residual {worst.residual:.3e}",
                report=report,
            )
    return S


def curvature_to_dict(R: CurvatureTensor) -> dict:
    return {
        "dim": R.dim,
        "components": _floats(R.components.reshape(-1)),
    }


def curvature_from_dict(data: dict, g: ScalarProduct, validate: bool = True) -> CurvatureTensor:
    if "dim" not in data:
        raise ValueError("curvature block is missing the 'dim' field")
    dim = _integer(data["dim"], "curvature.dim")
    if dim != g.dim:
        raise ValueError(f"curvature dim {dim} does not match structure dim {g.dim}")
    if "components" in data:
        comps = np.asarray(data["components"], dtype=float)
        if comps.shape == (dim**4,):
            comps = comps.reshape((dim,) * 4)
        if comps.shape != (dim,) * 4:
            raise ValueError(f"components must be rank-4 of size {dim}, got shape {comps.shape}")
    elif "entries" in data:
        comps = np.zeros((dim,) * 4)
        for entry in data["entries"]:
            if not isinstance(entry, dict):
                raise ValueError(f"sparse entry {entry!r} is not an object")
            for key in ("i", "j", "k", "l", "value"):
                if key not in entry:
                    raise ValueError(f"sparse entry {entry!r} is missing the '{key}' field")
            try:
                idx = tuple(int(entry[k]) for k in ("i", "j", "k", "l"))
                value = float(entry["value"])
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"sparse entry {entry!r} is not numeric: {exc}") from None
            if any(not 0 <= q < dim for q in idx):
                raise ValueError(f"sparse entry index {idx} out of range for dim {dim}")
            comps[idx] = value
        comps = symmetrize_curvature(comps)
    else:
        raise ValueError("curvature block needs either 'components' or 'entries'")
    R = CurvatureTensor(components=comps)
    if validate:
        report = validate_curvature(R, g)
        if not report.passed:
            worst = report.worst()
            raise InstanceValidationError(
                f"curvature validation failed: {worst.name} residual {worst.residual:.3e} ({worst.detail})",
                report=report,
            )
    return R


@dataclass
class InstanceMetadata:
    name: str
    seed: int
    family: str
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "family": self.family,
            "parameters": dict(sorted(self.parameters.items())),
        }


@dataclass
class InstanceFile:
    """A structure and a curvature tensor bundled with provenance metadata."""

    structure: GffStructure
    curvature: CurvatureTensor
    metadata: InstanceMetadata


def instance_to_dict(inst: InstanceFile) -> dict:
    return {
        "structure": structure_to_dict(inst.structure),
        "curvature": curvature_to_dict(inst.curvature),
        "metadata": inst.metadata.to_dict(),
    }


def instance_from_dict(data: dict, validate: bool = True) -> InstanceFile:
    if not isinstance(data, dict):
        raise ValueError(f"instance file must hold a JSON object, not {type(data).__name__}")
    for key in ("structure", "curvature", "metadata"):
        if key not in data:
            raise ValueError(f"instance file is missing the '{key}' block")
        if not isinstance(data[key], dict):
            raise ValueError(f"the '{key}' block must be an object, not {type(data[key]).__name__}")
    meta_raw = data["metadata"]
    family = str(meta_raw.get("family", "external"))
    if family not in FAMILIES:
        raise ValueError(f"unknown family '{family}'; expected one of {FAMILIES}")
    parameters = meta_raw.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ValueError(f"metadata.parameters must be an object, not {type(parameters).__name__}")
    metadata = InstanceMetadata(
        name=str(meta_raw.get("name", "")),
        seed=_integer(meta_raw.get("seed", 0), "metadata.seed"),
        family=family,
        parameters=dict(parameters),
    )
    structure = structure_from_dict(data["structure"], validate=validate)
    curvature = curvature_from_dict(data["curvature"], structure.g, validate=validate)
    return InstanceFile(structure=structure, curvature=curvature, metadata=metadata)


def load_instance(path: str | Path, validate: bool = True) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_dict(data, validate=validate)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_SLICE = 4096  # values per C-encoder pass: a long number list leaves no large temporary string


def _write(data, indent: str, out: list) -> None:
    """Append ``json.dumps(data, indent=2, sort_keys=True)``, nested at ``indent``, to ``out``."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(data, dict) and data:
        for k, key in enumerate(sorted(data)):
            # a key that is not a str is quoted the way json.dumps quotes it
            name = _encode(key if isinstance(key, str) else _encode(key))
            out.append((sep if k else "{\n" + inner) + name + ": ")
            _write(data[key], inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(data, (list, tuple)) and data:
        # The first item only spares lists of containers or strings a wasted
        # pass. The compact encoding decides: with no quote and no inner
        # bracket, every item is a number, a bool, null or {}.
        if not isinstance(data[0], (dict, list, tuple, str)):
            flats = [_encode(data[i:i + _SLICE]) for i in range(0, len(data), _SLICE)]
            if not any('"' in flat or "[" in flat[1:] for flat in flats):
                for k, flat in enumerate(flats):
                    out += [sep if k else "[\n" + inner, flat[1:-1].replace(",", sep)]
                out.append("\n" + indent + "]")
                return
        for k, item in enumerate(data):
            out.append(sep if k else "[\n" + inner)
            _write(item, inner, out)
        out.append("\n" + indent + "]")
    else:
        out.append(_encode(data))  # a scalar, [] or {}


def dump_json(data: dict) -> str:
    """Canonical serialization of a report or an instance file.

    The contract is byte for byte ``json.dumps(data, indent=2,
    sort_keys=True) + "\\n"``: sorted keys, a two-space indent, ``","`` and
    ``": "`` as separators, ASCII escapes, a trailing newline. ``json`` drops
    to its pure-Python encoder whenever ``indent`` is set, so the layout is
    written here and every scalar and every flat list of scalars goes through
    the C encoder. Pieces are joined once, at the end.
    """
    out: list[str] = []
    _write(data, "", out)
    out.append("\n")
    return "".join(out)


def save_instance(path: str | Path, inst: InstanceFile) -> None:
    Path(path).write_text(dump_json(instance_to_dict(inst)), encoding="utf-8")


def instance_reports(inst: InstanceFile) -> tuple[ValidationReport, ValidationReport]:
    """(structure report, curvature report) for an already-parsed instance."""
    return validate_gff(inst.structure), validate_curvature(inst.curvature, inst.structure.g)


def generate_instance(
    family: str,
    n: int,
    s: int,
    parameters: dict | None = None,
    seed: int = 0,
    name: str | None = None,
) -> InstanceFile:
    """Build a canonical-structure instance of one of the stock families.

    ``constant`` takes parameter ``c``; ``phi_model`` takes ``a`` and ``b``;
    ``random`` takes an optional ``scale``. Deterministic per seed.
    """
    params = dict(parameters or {})
    S = canonical_structure(n, s)
    if family == "constant":
        c = float(params.get("c", 1.0))
        R = constant_curvature(S.g, c)
        params = {"c": c}
    elif family == "phi_model":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        R = phi_model_family(S, a, b)
        params = {"a": a, "b": b}
    elif family == "random":
        scale = float(params.get("scale", 1.0))
        R = random_algebraic_curvature(S.g, seed=seed, scale=scale)
        params = {"scale": scale}
    else:
        raise ValueError(f"unknown family '{family}'; expected constant, phi_model or random")
    metadata = InstanceMetadata(
        name=name or f"{family}-n{n}-s{s}-seed{seed}",
        seed=seed,
        family=f"canonical+{family}",
        parameters=params,
    )
    return InstanceFile(structure=S, curvature=R, metadata=metadata)
