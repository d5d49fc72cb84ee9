"""JSON instance files: structures, curvature tensors, and bundled instances.

File formats (all numbers decimal floats, all indices 0-based):

Structure block::

    {"dim": m, "n": n, "s": s,
     "metric": [...],        # m*m row-major (flat or nested)
     "phi": [...],           # m*m row-major (flat or nested)
     "xi": [[...], ...],     # s rows of length m
     "eta": [[...], ...],    # s rows of length m
     "epsilon": [...]}       # s signs

Curvature block, as its pair block, dense or sparse::

    {"dim": m, "pairs": [...]}                           # M(M+1)/2, M = m(m-1)/2
    {"dim": m, "components": [...]}                      # m^4 row-major
    {"dim": m, "entries": [{"i":..,"j":..,"k":..,"l":..,"value":..}, ...]}

``pairs`` is the upper triangle, row-major, of B[p, q] = R[i_p, j_p, i_q, j_q]
over the pairs (i_p, j_p) of ``np.triu_indices(m, 1)``: one number per
unordered pair of index pairs, which R_abcd = -R_bacd = -R_abdc = R_cdab leave
free (2,211 of 20,736 components at m = 12). It is the form files are written
in. A loader reads ``pairs`` if the block has it, else ``components``, else
``entries``. The pair block is filled out with exact index symmetries; sparse
entries are symmetrized on load (projected onto the curvature-symmetry class);
dense components are taken as they are. Every loaded tensor goes through all
five checks of ``validate_curvature`` and is rejected when one fails, with the
worst residual and its indices in the error message.

Instance file::

    {"structure": {...}, "curvature": {...},
     "metadata": {"name": .., "seed": .., "family": .., "parameters": {..}}}

Loaders normalize the frame so that the timelike frame vector comes first,
swapping rows of xi/eta/epsilon if the file stores it elsewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curvature import (
    MAX_COMPONENT,
    CurvatureTensor,
    _from_pairs,
    _pair_block,
    constant_curvature,
    phi_model_family,
    random_algebraic_curvature,
    symmetrize_curvature,
    validate_curvature,
)
from .gff import VALIDATE_ATOL, GffStructure, canonical_structure, validate_gff
from .linalg import GeometryError, ScalarProduct
from .reports import Table, ValidationReport

# the stock families of ``generate_instance``, with their parameters
FAMILY_PARAMETERS = {"constant": ("c",), "phi_model": ("a", "b"), "random": ("scale",)}
FAMILIES = (*(f"canonical+{family}" for family in FAMILY_PARAMETERS), "external")


class InstanceParseError(ValueError):
    """A file that does not parse as JSON: bad syntax or UTF-8, too deep a nesting, too long an int."""


class InstanceValidationError(GeometryError):
    """A file parsed correctly but failed structural or curvature validation."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


def _numbers(value, field: str) -> np.ndarray:
    """A float array of a number or nested lists of numbers. An object, a string, null, a list of
    bools, a ragged list or a NaN or infinity anywhere in it is a ValueError naming the field; a
    bool among numbers reads as 0 or 1, as ``float`` reads it."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{field} must hold finite numbers (nested lists of numbers)")
    return arr.astype(float, copy=False)


def _square(data, dim: int, what: str) -> np.ndarray:
    arr = _numbers(data, f"structure.{what}")
    if arr.shape == (dim * dim,):
        arr = arr.reshape(dim, dim)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim} (flat or nested), got shape {arr.shape}")
    return arr


def _integer(value, field: str) -> int:
    """An int that is not a bool, or an integral float, as an int; anything else (a
    fraction, a string, a list, an object, null, NaN, inf) is a ValueError naming the field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def structure_to_dict(S: GffStructure) -> dict:
    """The structure block of ``S``: its numbers as float64 copies, never views (1-D ``metric``,
    ``phi`` and ``epsilon``, 2-D ``xi`` and ``eta``). ``dump_json`` writes it as it stands;
    ``json.dumps`` needs ``default=np.ndarray.tolist``."""
    return {
        "dim": S.dim,
        "n": S.n,
        "s": S.s,
        "metric": np.asarray(S.g.components, dtype=np.float64).flatten(),
        "phi": np.asarray(S.phi, dtype=np.float64).flatten(),
        "xi": np.array(S.xi, dtype=np.float64),
        "eta": np.array(S.eta, dtype=np.float64),
        "epsilon": np.array(S.epsilon, dtype=np.float64),
    }


def structure_from_dict(data: dict, validate: bool = True) -> GffStructure:
    for key in ("dim", "n", "s", "metric", "phi", "xi", "eta", "epsilon"):
        if key not in data:
            raise ValueError(f"structure block is missing the '{key}' field")
    n, s, dim = (_integer(data[key], f"structure.{key}") for key in ("n", "s", "dim"))
    if dim != 2 * n + s:
        raise ValueError(f"dim = {dim} does not equal 2n+s = {2 * n + s}")
    metric = _square(data["metric"], dim, "metric")
    asymmetry = np.abs(metric - metric.T)
    if asymmetry.max(initial=0.0) > VALIDATE_ATOL:  # from_matrix would average g and g^T: no check sees the rest
        i, j = np.unravel_index(np.argmax(asymmetry), asymmetry.shape)
        raise ValueError(f"structure.metric is not symmetric: |g[{i}][{j}] - g[{j}][{i}]| = "
                         f"{asymmetry[i, j]:.3e} > {VALIDATE_ATOL:.0e}")
    g = ScalarProduct.from_matrix(metric)
    phi = _square(data["phi"], dim, "phi")
    xi, eta, epsilon = (_numbers(data[key], f"structure.{key}") for key in ("xi", "eta", "epsilon"))
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
    """The pair block of ``R`` (see the module docstring): ``pairs`` is a 1-D float64 copy, never
    a view. It is lossless for a tensor with exact index symmetries, which every generated
    tensor has; any other tensor is read back as its pair block filled out. ``dump_json`` writes
    it as it stands; ``json.dumps`` needs ``default=np.ndarray.tolist``."""
    return {"dim": R.dim, "pairs": _pair_block(np.asarray(R.components, dtype=np.float64))}


def curvature_from_dict(data: dict, g: ScalarProduct, validate: bool = True) -> CurvatureTensor:
    if "dim" not in data:
        raise ValueError("curvature block is missing the 'dim' field")
    dim = _integer(data["dim"], "curvature.dim")
    if dim != g.dim:
        raise ValueError(f"curvature dim {dim} does not match structure dim {g.dim}")
    if "pairs" in data:
        upper = _numbers(data["pairs"], "curvature.pairs")
        size = dim * (dim - 1) // 2
        count = size * (size + 1) // 2
        if upper.shape != (count,):
            raise ValueError(f"curvature.pairs must be a list of {count} numbers at dim {dim}, got shape {upper.shape}")
        comps = _from_pairs(upper, dim)
    elif "components" in data:
        comps = _numbers(data["components"], "curvature.components")
        if comps.shape == (dim**4,):
            comps = comps.reshape((dim,) * 4)
        if comps.shape != (dim,) * 4:
            raise ValueError(f"components must be rank-4 of size {dim}, got shape {comps.shape}")
    elif "entries" in data:
        if not isinstance(data["entries"], list):
            raise ValueError(f"curvature.entries must be a list, not {type(data['entries']).__name__}")
        comps = np.zeros((dim,) * 4)
        for entry in data["entries"]:
            if not isinstance(entry, dict):
                raise ValueError(f"sparse entry {entry!r} is not an object")
            for key in ("i", "j", "k", "l", "value"):
                if key not in entry:
                    raise ValueError(f"sparse entry {entry!r} is missing the '{key}' field")
            idx = tuple(_integer(entry[k], f"sparse entry {entry!r} is not numeric: '{k}'") for k in "ijkl")
            value = _numbers(entry["value"], f"sparse entry {entry!r} is not numeric: 'value'")
            if value.ndim:
                raise ValueError(f"sparse entry {entry!r} is not numeric: 'value' must be a number")
            if any(not 0 <= q < dim for q in idx):
                raise ValueError(f"sparse entry index {idx} out of range for dim {dim}")
            comps[idx] = value
        comps = symmetrize_curvature(comps)
    else:
        raise ValueError("curvature block needs one of 'pairs', 'components' or 'entries'")
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
    """The instance file of ``inst``, its numbers as in ``structure_to_dict`` and
    ``curvature_to_dict``: ``json.dumps`` needs ``default=np.ndarray.tolist``."""
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
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, or an int of too many digits
            raise InstanceParseError(str(exc)) from exc
    return instance_from_dict(data, validate=validate)


# The C encoder that ``json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode`` builds on
# every call, built once. It keeps no cycle markers (None): a markers dict shared between calls
# would hold on to the containers of every encoding that raised, and ``_write``, which owns the
# recursion, checks for no cycles either.
_c_encoder = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True,
)
_quote = json.encoder.encode_basestring_ascii
_LAYOUT_CACHE_SIZE = 256  # dict layouts kept; reports use a few dozen key sets


def _encode(data) -> str:
    """``data`` in compact JSON with sorted keys, as ``json.dumps`` writes it without an indent."""
    return "".join(_c_encoder(data, 0))


# (keys in insertion order, indent) -> _layout's result, for dicts whose keys are all ``str``
_layouts: dict = {}


def _layout(cache_key: tuple) -> tuple:
    """The layout of a non-empty dict written at ``indent``, for ``cache_key`` = (its keys,
    indent): ((key, the text before its value), ...) in sorted-key order, the indent of the
    values, and the closing text.

    Only dicts of ``str`` keys are cached. Keys of other types compare equal across types
    (``1 == 1.0 == True``), and ``json.dumps`` writes them apart.
    """
    keys, indent = cache_key
    inner = indent + "  "
    keys = sorted(keys)
    # a key that is not a str is quoted the way json.dumps quotes it
    heads = [_quote(key if isinstance(key, str) else _encode(key)) + ": " for key in keys]
    heads = ["{\n" + inner + heads[0]] + [",\n" + inner + head for head in heads[1:]]
    layout = tuple(zip(keys, heads)), inner, "\n" + indent + "}"
    if len(_layouts) < _LAYOUT_CACHE_SIZE and all(type(key) is str for key in keys):
        _layouts[cache_key] = layout
    return layout


def _write(data, indent: str, out: list, floats: list) -> None:
    """Append ``json.dumps(data, indent=2, sort_keys=True, default=lambda o: o.tolist())``,
    nested at ``indent``, to ``out``.

    One kind of placeholder is left, a number array: a non-empty 1-D float64 array leaves one in
    ``out`` and its (position, values, separator) in ``floats``, and a ``Table`` its (position,
    numbers, ``_table_layout``), for ``_fill_floats`` to write. Any other value, a float alone
    included, is written where it stands.
    """
    if isinstance(data, dict) and data:
        cache_key = (tuple(data), indent)
        pairs, inner, close = _layouts.get(cache_key) or _layout(cache_key)
        for key, head in pairs:
            out.append(head)
            _write(data[key], inner, out, floats)
        out.append(close)
    elif isinstance(data, (list, tuple)) and data:
        inner = indent + "  "
        sep = ",\n" + inner
        for k, item in enumerate(data):
            out.append(sep if k else "[\n" + inner)
            _write(item, inner, out, floats)
        out.append("\n" + indent + "]")
    elif isinstance(data, np.ndarray):
        if type(data) is np.ndarray and data.ndim == 1 and data.dtype == np.float64 and data.size:
            inner = indent + "  "
            out += ["[\n" + inner, None, "\n" + indent + "]"]
            floats.append((len(out) - 2, data, ",\n" + inner))
        else:
            _write(np.ndarray.tolist(data), indent, out, floats)
    elif type(data) is Table:
        out.append(None)
        floats.append((len(out) - 1, *_table_layout(data, indent)))
    else:
        out.append(_encode(data))  # any other scalar, [] or {}


def _row_layout(template, indent: str, layout: tuple) -> None:
    """Extend ``layout`` = (texts, numeric, columns, others) by a ``Table`` row of ``template`` at
    ``indent``. Fixed text extends ``texts[-1]``; each slot is one flag in ``numeric`` and opens
    the next fixed text. A float64 column gives a number slot per value of its row (``columns``
    gets it as 2-D), any other column one slot of each row's text (``others``)."""
    texts, numeric, columns, others = layout
    if isinstance(template, dict) and template:
        cache_key = (tuple(template), indent)
        pairs, inner, close = _layouts.get(cache_key) or _layout(cache_key)
        for key, head in pairs:
            texts[-1] += head
            _row_layout(template[key], inner, layout)
        texts[-1] += close
    elif not isinstance(template, np.ndarray):
        texts[-1] += _dumps(template, indent)  # a constant
    elif template.dtype == np.float64 and (template.ndim == 1 or template.ndim == 2 and template.shape[1]):
        inner = indent + "  "
        columns.append(template[:, None] if template.ndim == 1 else template)
        texts[-1] += "[\n" + inner if template.ndim == 2 else ""
        for k in range(columns[-1].shape[1]):
            texts[-1] += ",\n" + inner if k else ""
            numeric.append(True)
            texts.append("")
        texts[-1] += "\n" + indent + "]" if template.ndim == 2 else ""
    else:
        others.append(np.array([_dumps(v, indent) if isinstance(v, (list, dict)) else _encode(v)
                                for v in template.tolist()], dtype=object))
        numeric.append(False)
        texts.append("")


def _table_layout(table: Table, indent: str) -> tuple:
    """Every number of ``table``, block by block and row by row, in one array; and what
    ``_table_text`` needs to write it at ``indent``: per block its rows, its row's fixed texts (an
    object array, the first led by the separator of a row that is not the first), the slots
    between them that take numbers and those that take the block's other texts, and those texts."""
    inner = indent + "  "
    blocks, numbers = [], []
    for rows, template in table.blocks:
        texts, numeric, columns, others = layout = ([",\n" + inner], [], [], [])
        _row_layout(template, inner, layout)
        numeric = np.array(numeric, dtype=bool)
        if columns:
            numbers.append(np.concatenate(columns, axis=1).ravel())
        # a row's cells: fixed texts at the even places, slots at the odd ones
        blocks.append((rows, np.array(texts, dtype=object), 1 + 2 * np.flatnonzero(numeric),
                       1 + 2 * np.flatnonzero(~numeric), others))
    return np.concatenate([*numbers, np.empty(0)]), (table.size, indent, blocks)


def _table_text(layout: tuple, strings: np.ndarray) -> str:
    """The text of a table from its ``_table_layout`` and the texts of its numbers, in order: per
    block one object array of cells, a row's fixed texts with its slots between them, each row's
    cells joined once and the rows once."""
    size, indent, blocks = layout
    if not size:
        return "[]"
    lines: list = [None] * size
    used = 0
    for rows, texts, number_cells, text_cells, others in blocks:
        cells = np.empty((len(rows), 2 * len(texts) - 1), dtype=object)
        cells[:, 0::2] = texts
        count = len(rows) * len(number_cells)
        cells[:, number_cells] = strings[used:used + count].reshape(len(rows), len(number_cells))
        used += count
        if others:
            cells[:, text_cells] = np.stack(others, axis=1)
        for n, row in zip(rows.tolist(), cells.tolist()):
            lines[n] = "".join(row)
    lines[0] = "[\n" + lines[0][2:]  # the first row has no separator before it
    return "".join(lines) + "\n" + indent + "]"


def _fill_floats(out: list, floats: list) -> None:
    """Write the arrays and tables ``_write`` left as placeholders, each distinct magnitude among
    their numbers converted once.

    Values are told apart by their bits, so ``0.0`` and ``-0.0`` each keep their own text. One
    sign rule gives every text from its magnitude's, as ``float.__repr__`` writes it: a bit
    pattern that is negative and not a NaN is ``"-"`` and that text (``-0.0``, ``-Infinity``),
    any other is that text alone (a NaN is ``NaN`` whatever its sign bit).
    """
    if not floats:
        return
    values = np.concatenate([data for _, data, _ in floats])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    magnitudes, of_bits = np.unique(np.abs(bits.view(np.float64)), return_inverse=True)
    texts = np.array(_encode(magnitudes.tolist())[1:-1].split(","), dtype=object)[of_bits]
    negative = (bits < 0) & ~np.isnan(magnitudes[of_bits])
    texts[negative] = "-" + texts[negative]
    strings = texts[inverse]
    start = 0
    for pos, data, sep in floats:  # sep: the separator of an array, a table's layout
        stop = start + len(data)
        out[pos] = sep.join(strings[start:stop].tolist()) if type(sep) is str else _table_text(sep, strings[start:stop])
        start = stop


def _dumps(data, indent: str = "", end: str = "") -> str:
    """``data`` written by ``_write`` at ``indent``, then ``end``."""
    out: list[str] = []
    floats: list = []
    _write(data, indent, out, floats)
    _fill_floats(out, floats)  # its temporaries are freed before the join
    out.append(end)
    return "".join(out)


def dump_json(data: dict) -> str:
    """Canonical serialization of a report or an instance file.

    The contract is byte for byte ``json.dumps(data, indent=2, sort_keys=True,
    default=lambda o: o.tolist()) + "\\n"``: sorted keys, a two-space indent,
    ``","`` and ``": "`` as separators, ASCII escapes, a trailing newline, and
    a numpy array or a ``reports.Table`` written as its ``tolist()``. ``json``
    drops to its pure-Python encoder whenever ``indent`` is set, so the layout
    is written here. Most numbers are floats in 1-D float64 arrays (taken as
    they are, with no Python list in between) or in tables, and most of them
    repeat within a document. Only these are deferred, as one kind of
    placeholder, a number array: their numbers are written last, with one
    float-to-text conversion per distinct float magnitude in the whole
    document, all in one pass of a C encoder built at import, and one sign
    rule (``"-"`` before the magnitude's text for a negative bit pattern that
    is not a NaN). A table is written in one pass, with no row dict built: the
    fixed text of a row is laid out once per block, the texts of every row's
    values are placed between its fixed texts as cells of one object array per
    block, and each row's cells are joined once, then the rows. A list is
    written item by item; any other scalar, a float alone included, goes
    through the same encoder where it stands, and keys through the C quoting
    function, once per layout of a dict of ``str`` keys (a bounded cache).
    Pieces are joined once, at the end.
    """
    return _dumps(data, end="\n")


def save_instance(path: str | Path, inst: InstanceFile) -> None:
    Path(path).write_text(dump_json(instance_to_dict(inst)), encoding="utf-8")


def generate_instance(
    family: str,
    n: int,
    s: int,
    parameters: dict | None = None,
    seed: int = 0,
) -> InstanceFile:
    """Build a canonical-structure instance of one of the stock families.

    ``constant`` takes parameter ``c``; ``phi_model`` takes ``a`` and ``b``;
    ``random`` takes ``scale``; each defaults to 1. Any other key, a value
    that is not a finite number, or one so large that a curvature component
    exceeds ``MAX_COMPONENT``, is a ValueError: no command reads such a file back.
    So is a tensor that fails ``validate_curvature``, as the random family's
    round-off does at large ``scale``. The tensor is its pair block filled out
    (``curvature._from_pairs``), which moves only the random family's
    components, by round-off. Deterministic per seed.
    """
    if family not in FAMILY_PARAMETERS:
        raise ValueError(f"unknown family '{family}'; expected one of {', '.join(FAMILY_PARAMETERS)}")
    keys = FAMILY_PARAMETERS[family]
    given = parameters or {}
    unknown = [key for key in given if key not in keys]
    if unknown:
        raise ValueError(
            f"unknown parameter {unknown[0]!r} for family {family}; it takes {', '.join(keys)}"
        )
    params = {key: float(given.get(key, 1.0)) for key in keys}
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"parameter {key} must be a finite number, got {value}")
    S = canonical_structure(n, s)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        if family == "constant":
            R = constant_curvature(S.g, params["c"])
        elif family == "phi_model":
            R = phi_model_family(S, params["a"], params["b"])
        else:
            R = random_algebraic_curvature(S.g, seed=seed, scale=params["scale"])
        # the tensor its file holds: exact index symmetries, so save and load are bit for bit
        R = CurvatureTensor(_from_pairs(_pair_block(R.components), S.dim))
    if not np.abs(R.components).max() <= MAX_COMPONENT:  # also an inf or NaN component
        raise ValueError(f"parameters {params} overflow the curvature components (bound {MAX_COMPONENT:.3e})")
    report = validate_curvature(R, S.g)
    if not report.passed:
        worst = report.worst()
        raise ValueError(f"parameters {params} give a curvature that fails validation: "
                         f"{worst.name} residual {worst.residual:.3e} >= {worst.threshold:.1e}")
    metadata = InstanceMetadata(
        name=f"{family}-n{n}-s{s}-seed{seed}",
        seed=seed,
        family=f"canonical+{family}",
        parameters=params,
    )
    return InstanceFile(structure=S, curvature=R, metadata=metadata)
