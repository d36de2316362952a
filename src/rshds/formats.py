"""Group-spec strings and the cayley-v1 / dset-v1 / hadamard-v1 file formats.

cayley-v1 and dset-v1 are JSON documents; hadamard-v1 is plain text with a
one-line header.  All writers emit byte-identical output for identical
inputs.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .groups import (
    C4PowerGroup,
    CayleyTableGroup,
    FiniteGroup,
    GnkGroup,
    Subgroup,
    _index_set,
    _indices,
    closure,
)

CAYLEY_FORMAT = "cayley-v1"
HADAMARD_HEADER = "hadamard-v1"
_HADAMARD_TOKENS = {1: "1", -1: "-1"}


class FormatError(ValueError):
    pass


def _read_object(path: Union[str, Path], kind: str) -> dict:
    """The JSON object a document file holds; anything else raises FormatError."""
    p = Path(path)
    if not p.exists():
        raise FormatError(f"no such file: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"not a {kind} document: {p}")
    return doc


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------

_GNK_RE = re.compile(r"^gnk:([0-9]+),([0-9]+)$")
_C4N_RE = re.compile(r"^c4n:([0-9]+)$")


class GroupSpec(NamedTuple):
    """Parseable group description: gnk:n,k | c4n:n | file:<path>."""

    kind: str
    n: Optional[int] = None
    k: Optional[int] = None
    path: Optional[str] = None

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        text = text.strip()
        m = _GNK_RE.match(text)
        if m:
            return cls("gnk", n=int(m.group(1)), k=int(m.group(2)))
        m = _C4N_RE.match(text)
        if m:
            return cls("c4n", n=int(m.group(1)))
        if text.startswith("file:") and len(text) > 5:
            return cls("file", path=text[5:])
        raise FormatError(f"unrecognized group spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "gnk":
            return f"gnk:{self.n},{self.k}"
        if self.kind == "c4n":
            return f"c4n:{self.n}"
        return f"file:{self.path}"


def build_group(spec: Union[str, GroupSpec]) -> FiniteGroup:
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    if spec.kind == "gnk":
        return GnkGroup(spec.n, spec.k)
    if spec.kind == "c4n":
        return C4PowerGroup(spec.n)
    return read_cayley(spec.path)


# ---------------------------------------------------------------------------
# cayley-v1
# ---------------------------------------------------------------------------


def write_cayley(group: FiniteGroup, path: Union[str, Path]) -> None:
    doc = {
        "format": CAYLEY_FORMAT,
        "order": group.order,
        "table": group.table,
        "names": [group.element_name(a) for a in range(group.order)],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _cayley_document(path: Union[str, Path]) -> Tuple[dict, int]:
    """A cayley-v1 document read as JSON only, and its ``order``, which must be an int."""
    doc = _read_object(path, CAYLEY_FORMAT)
    if doc.get("format") != CAYLEY_FORMAT:
        raise FormatError(f"not a {CAYLEY_FORMAT} document: {path}")
    order = doc.get("order")
    if type(order) is not int:
        raise FormatError(f"order/table mismatch in {path}")
    return doc, order


def read_cayley(path: Union[str, Path]) -> CayleyTableGroup:
    """Parse a cayley-v1 document; ``CayleyTableGroup`` proves the table and names."""
    doc, order = _cayley_document(path)
    table = doc.get("table")
    if not isinstance(table, list) or len(table) != order:
        raise FormatError(f"order/table mismatch in {path}")
    try:
        return CayleyTableGroup(table, names=doc.get("names"))
    except ValueError as exc:  # GroupError, with the witness of a GroupTableError
        witness = getattr(exc, "witness", None) or ""
        raise FormatError(f"invalid cayley-v1 group in {path}: {exc} {witness}".rstrip()) from exc


# ---------------------------------------------------------------------------
# dset-v1
# ---------------------------------------------------------------------------


def write_dset(
    path: Union[str, Path],
    group_spec: Union[str, GroupSpec],
    subgroup: Union[str, Sequence[int]],
    elements: Sequence[int],
) -> None:
    """Write a difference-set document.

    ``subgroup`` is either the literal string "distinguished" or a list of
    generator indices whose closure is the subgroup.  Indices obey
    ``groups._indices`` for the group's order, so no index outside it is
    written.  A gnk: or c4n: spec takes it from ``build_group(spec)``, so a
    spec that ``read_dset`` refuses raises the same GroupError here (a
    ``GnkGroup`` builds no table).  A file: spec takes the ``order`` field of
    its cayley-v1 document, read as JSON with no table proof and refused,
    as ``read_cayley`` refuses it, unless it is an int.
    """
    spec = group_spec if isinstance(group_spec, GroupSpec) else GroupSpec.parse(group_spec)
    order = _cayley_document(spec.path)[1] if spec.kind == "file" else build_group(spec).order
    if isinstance(subgroup, str):
        if subgroup != "distinguished":
            raise FormatError(f"unknown subgroup token {subgroup!r}")
        sub_field: Union[str, List[int]] = "distinguished"
    else:
        sub_field = _indices(subgroup, order, FormatError)
    dset = sorted(_index_set(elements, order, FormatError))
    doc = {"group": str(spec), "subgroup": sub_field, "elements": dset}
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def read_dset(
    path: Union[str, Path]
) -> Tuple[FiniteGroup, Subgroup, Tuple[int, ...], GroupSpec]:
    doc = _read_object(path, "dset-v1")
    for key in ("group", "subgroup", "elements"):
        if key not in doc:
            raise FormatError(f"dset-v1 document missing field {key!r}: {path}")
    spec = GroupSpec.parse(str(doc["group"]))
    group = build_group(spec)
    sub_field = doc["subgroup"]
    if sub_field == "distinguished":
        sub = group.distinguished_subgroup()
        if sub is None:
            raise FormatError(f"group {spec} has no distinguished subgroup")
    elif isinstance(sub_field, list):
        sub = closure(group, _indices(sub_field, group.order, FormatError))
    else:
        raise FormatError(f"invalid subgroup field {sub_field!r}")
    if not isinstance(doc["elements"], list):
        raise FormatError("elements field must be a list")
    elems = tuple(sorted(_index_set(doc["elements"], group.order, FormatError)))
    return group, sub, elems, spec


# ---------------------------------------------------------------------------
# hadamard-v1
# ---------------------------------------------------------------------------


def write_hadamard(path: Union[str, Path], matrix: Sequence[Sequence[int]]) -> None:
    """Write a square matrix of entries equal to 1 or -1 as hadamard-v1.

    Each entry is written as the token ``1`` or ``-1`` whatever its type
    (``True`` and ``1.0`` equal 1), which is all that ``read_hadamard``
    accepts; any other entry is refused.
    """
    n = len(matrix)
    if n == 0:
        raise FormatError("hadamard-v1 matrix must not be empty")
    lines = [f"{HADAMARD_HEADER} {n}"]
    token = _HADAMARD_TOKENS.__getitem__
    for row in matrix:
        try:
            line = " ".join(map(token, row))
        except (KeyError, TypeError):  # an entry other than 1 or -1
            line = None
        if line is None or len(row) != n:
            raise FormatError("hadamard-v1 rows must be +-1 entries of full length")
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_hadamard(path: Union[str, Path]) -> List[List[int]]:
    p = Path(path)
    if not p.exists():
        raise FormatError(f"no such file: {p}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"empty hadamard-v1 file: {p}")
    header = lines[0].split()
    # ASCII digits only: str.isdigit also passes "²", which int refuses
    if len(header) != 2 or header[0] != HADAMARD_HEADER or not re.fullmatch("[0-9]+", header[1]):
        raise FormatError(f"bad hadamard-v1 header: {lines[0]!r}")
    n = int(header[1])
    if n < 1:
        raise FormatError(f"hadamard-v1 size must be at least 1, got {n}")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    matrix = []
    for i in range(1, n + 1):
        row = lines[i].split()
        if len(row) != n or any(x not in ("1", "-1") for x in row):
            raise FormatError(f"bad hadamard-v1 row {i}")
        matrix.append([int(x) for x in row])
    return matrix
