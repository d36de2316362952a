from __future__ import annotations

import json
from pathlib import Path

import pytest

from rshds import cli, fixtures, formats
from rshds.formats import (
    FormatError,
    read_cayley,
    read_dset,
    read_hadamard,
    write_cayley,
    write_hadamard,
)

G36_FILE = Path(formats.__file__).parent / "data" / "g36_1.json"


def test_g36_golden_file_reads_as_the_fixture():
    group, fixture = read_cayley(G36_FILE), fixtures.g36_1()
    assert group.table == fixture.table
    assert group.names == fixture.names


def test_g36_golden_file_is_written_byte_for_byte(tmp_path):
    out = tmp_path / "g36_1.json"
    write_cayley(fixtures.g36_1(), out)
    assert out.read_bytes() == G36_FILE.read_bytes()


def _json(doc) -> str:
    return json.dumps(doc)


_DSET = {"group": "gnk:2,0", "subgroup": "distinguished", "elements": [4, 5, 6]}
_TABLE = [[0, 1], [1, 0]]
_V4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def _v4_with(row: int, col: int, entry) -> str:
    """A cayley-v1 document of the Klein group with one entry replaced."""
    table = [list(r) for r in _V4]
    table[row][col] = entry
    return _json({"format": "cayley-v1", "order": 4, "table": table})


MALFORMED_DSET = {
    "not-json": "{",
    "not-an-object": "[1, 2]",
    "missing-elements": _json({"group": "gnk:2,0", "subgroup": "distinguished"}),
    "bad-spec": _json({**_DSET, "group": "gnk:two"}),
    "gnk-spec-not-ascii-digits": _json({**_DSET, "group": "gnk:\u0662,\u0660"}),
    "c4n-spec-not-ascii-digits": _json({**_DSET, "group": "c4n:\u0662"}),
    "bad-subgroup": _json({**_DSET, "subgroup": "everything"}),
    "subgroup-not-integers": _json({**_DSET, "subgroup": ["x"]}),
    "elements-not-integers": _json({**_DSET, "elements": ["x"]}),
    "element-out-of-range": _json({**_DSET, "elements": [16]}),
    "duplicate-elements": _json({**_DSET, "elements": [4, 4]}),
    "elements-boolean": _json({**_DSET, "elements": [True, 5, 6]}),
    "subgroup-boolean": _json({**_DSET, "subgroup": [True, 2]}),
    "distinguished-on-a-file-group": _json({**_DSET, "group": f"file:{G36_FILE}"}),
    "elements-not-a-list": _json({**_DSET, "elements": 4}),
}
MALFORMED_CAYLEY = {
    "not-json": "{",
    "wrong-format": _json({"format": "cayley-v0", "order": 2, "table": _TABLE}),
    "order-mismatch": _json({"format": "cayley-v1", "order": 3, "table": _TABLE}),
    "ragged": _json({"format": "cayley-v1", "order": 2, "table": [[0, 1], [1]]}),
    "not-integers": _json({"format": "cayley-v1", "order": 2, "table": [[0, "a"], [1, 0]]}),
    "fractional": _json({"format": "cayley-v1", "order": 2, "table": [[0, 1.5], [1, 0]]}),
    "row-not-a-list": _json({"format": "cayley-v1", "order": 2, "table": [[0, 1], 1]}),
    "not-a-group": _json({"format": "cayley-v1", "order": 2, "table": [[0, 1], [0, 1]]}),
    "short-names": _json({"format": "cayley-v1", "order": 2, "table": _TABLE, "names": ["1"]}),
    "names-not-strings": _json({"format": "cayley-v1", "order": 2, "table": _TABLE,
                                "names": [1, 2.5]}),
    "boolean-entries": _json({"format": "cayley-v1", "order": 2,
                              "table": [[False, True], [True, False]]}),
    "boolean-order": _json({"format": "cayley-v1", "order": True, "table": [[0]]}),
    # order 4, so that h = 2 passes |G| = h^2 and only the table can be refused
    "order-4-false-for-0": _v4_with(1, 1, False),
    "order-4-integral-float": _v4_with(0, 2, 2.0),
    "order-4-entry-equal-to-order": _v4_with(3, 3, 4),
}
MALFORMED_HADAMARD = {
    "empty": "",
    "wrong-header": "hadamard-v0 2\n1 1\n1 -1\n",
    "size-not-a-number": "hadamard-v1 two\n1 1\n1 -1\n",
    "size-not-ascii-digits": "hadamard-v1 \u00b2\n1 1\n1 -1\n",
    "missing-row": "hadamard-v1 2\n1 1\n",
    "entry-not-a-sign": "hadamard-v1 2\n1 1\n1 2\n",
    "entry-not-a-number": "hadamard-v1 2\n1 1\n1 a\n",
    "short-row": "hadamard-v1 2\n1 1\n1\n",
    "extra-line": "hadamard-v1 1\n1\ngarbage here\n",
    "zero-size": "hadamard-v1 0\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DSET))
def test_malformed_dset(tmp_path, capsys, case):
    path = tmp_path / "bad.dset.json"
    path.write_text(MALFORMED_DSET[case], encoding="utf-8")
    with pytest.raises(FormatError):
        read_dset(path)
    assert cli.main(["certify", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", sorted(MALFORMED_CAYLEY))
def test_malformed_cayley(tmp_path, capsys, case):
    path = tmp_path / "bad.cayley.json"
    path.write_text(MALFORMED_CAYLEY[case], encoding="utf-8")
    with pytest.raises(FormatError):
        read_cayley(path)
    assert cli.main(["screen", f"file:{path}", "2"]) == cli.EXIT_USAGE
    # every read_cayley refusal names the file; the h refusal of a valid
    # order-2 table ("group order 2 != h^2 = 4") would not
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err.splitlines()[0]


@pytest.mark.parametrize("case", sorted(MALFORMED_HADAMARD))
def test_malformed_hadamard(tmp_path, case):
    # no subcommand reads hadamard-v1, so only the reader is exercised
    path = tmp_path / "bad.hadamard.txt"
    path.write_text(MALFORMED_HADAMARD[case], encoding="utf-8")
    with pytest.raises(FormatError):
        read_hadamard(path)


def test_write_hadamard_refuses_an_empty_matrix(tmp_path):
    # "hadamard-v1 0" does not read back, so it must not be written either
    with pytest.raises(FormatError):
        write_hadamard(tmp_path / "empty.hadamard.txt", [])


@pytest.mark.parametrize("matrix", [[[True]], [[1.0]], [[1, -1.0], [1, 1]]])
def test_write_hadamard_writes_what_read_hadamard_reads(tmp_path, matrix):
    # entries equal to 1 or -1 are written as the tokens 1 and -1
    path = tmp_path / "h.txt"
    write_hadamard(path, matrix)
    assert read_hadamard(path) == [[int(x) for x in row] for row in matrix]


@pytest.mark.parametrize("matrix", [[[2]], [[False]], [["1"]], [[0.5]], [[[1]]], [[1, 1], [1]]])
def test_write_hadamard_refuses_other_entries(tmp_path, matrix):
    with pytest.raises(FormatError):
        write_hadamard(tmp_path / "h.txt", matrix)


def test_missing_files(tmp_path):
    for reader in (read_dset, read_cayley, read_hadamard):
        with pytest.raises(FormatError):
            reader(tmp_path / "absent")
