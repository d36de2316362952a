from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rshds import cli
from rshds.formats import read_hadamard, write_cayley
from rshds.groups import cyclic_group, direct_product

# first 16 hex digits of the sha256 of each `dump-table` output
DUMP_TABLE_SHA256 = {
    "gnk:2,0": "a0a4be774dcc4bbe",
    "gnk:3,1": "3112e32cbde55ccc",
    "gnk:4,2": "61edca7d7d4d71e9",
    "c4n:2": "2e1a5ba55620ac7b",
    "c4n:3": "96c7bffa4551d00c",
    "c4n:4": "c4847dbaed596e41",
}


@pytest.mark.parametrize("spec", sorted(DUMP_TABLE_SHA256))
def test_dump_table_golden_hashes(tmp_path, spec):
    out = tmp_path / "table.json"
    assert cli.main(["dump-table", spec, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == DUMP_TABLE_SHA256[spec]


@pytest.mark.parametrize("spec,v", [("gnk:2,0", 16), ("gnk:3,1", 64)])
def test_construct_certify_export_chain(tmp_path, capsys, spec, v):
    dset, had = tmp_path / "d.json", tmp_path / "h.txt"
    assert cli.main(["construct", spec, "--out", str(dset)]) == cli.EXIT_OK
    assert cli.main(["certify", str(dset)]) == cli.EXIT_OK
    assert cli.main(["export-hadamard", str(dset), "--out", str(had)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out and f"({v}x{v})" in out
    h = np.asarray(read_hadamard(had))
    assert np.array_equal(h @ h.T, v * np.eye(v, dtype=h.dtype))


def test_exit_codes_fail_and_refusal(tmp_path, capsys):
    # the self-inverse C4^2 set is a difference set but not an m = 0 partition set
    dset = tmp_path / "c4.json"
    assert cli.main(["construct", "c4n:2", "--out", str(dset)]) == cli.EXIT_OK
    assert cli.main(["certify", str(dset)]) == cli.EXIT_FAIL
    assert "FAIL rshds-structure" in capsys.readouterr().out
    had = tmp_path / "h.txt"
    assert cli.main(["export-hadamard", str(dset), "--out", str(had)]) == cli.EXIT_FAIL
    assert "refusing to export" in capsys.readouterr().err
    assert not had.exists()


def test_exit_codes_usage_errors(tmp_path, capsys):
    assert cli.main(["construct", "gnk:3,2"]) == cli.EXIT_USAGE
    assert cli.main(["construct", "nonsense"]) == cli.EXIT_USAGE
    assert cli.main(["certify", str(tmp_path / "absent.json")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.count("error: ") == 3


def test_exit_code_budget(capsys):
    assert cli.main(["search", "gnk:3,1", "distinguished", "--budget", "3"]) == cli.EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_search_within_budget(capsys):
    assert cli.main(["search", "gnk:2,0", "distinguished", "--budget", "1000"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("found 16 difference set(s)")


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--budget", "5"]])
def test_removed_and_search_only_flags_are_usage_errors(tmp_path, capsys, flag):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:2,0", "--out", str(dset)]) == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", str(dset), *flag])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


G36_SPEC = "file:" + str(Path(cli.__file__).parent / "data" / "g36_1.json")


@pytest.fixture
def c6xc6_spec(tmp_path):
    path = tmp_path / "c6xc6.json"
    write_cayley(direct_product(cyclic_group(6), cyclic_group(6)), path)
    return f"file:{path}"


def test_screen_g36_passes_with_its_normal_subgroup(capsys):
    assert cli.main(["screen", G36_SPEC, "6", "--json"]) == cli.EXIT_OK
    [report] = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["witnesses"]["T3"]["normal_subgroups_of_order_h"] == 1
    assert report["witnesses"]["T4"] == {"pass": True}


def test_screen_c6xc6_fails(capsys, c6xc6_spec):
    assert cli.main(["screen", c6xc6_spec, "6"]) == cli.EXIT_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_search_resolves_the_auto_subgroup(capsys):
    assert cli.main(["search", G36_SPEC, "auto-6"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("found 0 difference set(s)")


def test_auto_subgroup_must_be_unique(capsys, c6xc6_spec):
    assert cli.main(["search", c6xc6_spec, "auto-2"]) == cli.EXIT_USAGE
    assert "expected exactly one normal subgroup of order 2" in capsys.readouterr().err
