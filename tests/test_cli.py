from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rshds import algebra, certify, cli, schur, screen
from rshds.formats import read_hadamard, write_cayley
from rshds.screen import cyclic_group, dihedral_group, direct_product, elementary_abelian_2_group

G36_SPEC = "file:" + str(Path(cli.__file__).parent / "data" / "g36_1.json")


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


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
    assert sha16(out.read_bytes()) == DUMP_TABLE_SHA256[spec]


# first 16 hex digits of the sha256 of each `construct` dset-v1 file
CONSTRUCT_SHA256 = {
    "gnk:2,0": "33039f02f6efa9b1",
    "gnk:3,1": "ac256d11bb645a8d",
    "gnk:4,2": "7a6abd1253e9b336",
    "c4n:2": "7adeb55bbc3ff92b",
    "c4n:3": "d7c7ff131c248ab6",
    "c4n:4": "6e266c8f3248ad59",
}


@pytest.mark.parametrize("spec", sorted(CONSTRUCT_SHA256))
def test_construct_golden_hashes(tmp_path, spec):
    out = tmp_path / "d.json"
    assert cli.main(["construct", spec, "--out", str(out)]) == cli.EXIT_OK
    assert sha16(out.read_bytes()) == CONSTRUCT_SHA256[spec]


# `thm81` stdout and written dset-v1 file; the C2^4 table has no distinguished
# subgroup, so gens=1,2 goes through the generic coordinates on H
THM81_SHA256 = {
    ("gnk:3,1", "distinguished"): ("1249597d990bc804", "5bf4ddd40e1fbd9d"),
    ("c4n:3", "distinguished"): ("5bdbab24a298eaaa", "c5217a96c9c588e3"),
    ("file:c2x4.json", "gens=1,2"): ("be09d93697000e45", "ba32124cca303dd2"),
}


@pytest.mark.parametrize("spec,subgroup", sorted(THM81_SHA256))
def test_thm81_golden_hashes(tmp_path, monkeypatch, capsys, spec, subgroup):
    monkeypatch.chdir(tmp_path)
    write_cayley(elementary_abelian_2_group(4), "c2x4.json")
    assert cli.main(["thm81", spec, subgroup, "--out", "d.json"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out.encode()
    assert (sha16(stdout), sha16((tmp_path / "d.json").read_bytes())) == THM81_SHA256[spec, subgroup]


# `certify --json` stdout on each `construct` file: its exit code and the first
# 16 hex digits of its sha256; the self-inverse c4n:3 set fails the m = 0
# preconditions of schur, spectrum and hadamard
CERTIFY_SHA256 = {
    "gnk:2,0": (cli.EXIT_OK, "3781ec6f67ca0819"),
    "gnk:3,1": (cli.EXIT_OK, "eecaf1821c715139"),
    "gnk:4,2": (cli.EXIT_OK, "9b591c647c86618e"),
    "c4n:3": (cli.EXIT_FAIL, "9dedcefa3a9734ff"),
}


@pytest.mark.parametrize("spec", sorted(CERTIFY_SHA256))
def test_certify_json_golden_hashes(tmp_path, capsys, spec):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", spec, "--out", str(dset)]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["certify", str(dset), "--json"])
    assert (code, sha16(capsys.readouterr().out.encode())) == CERTIFY_SHA256[spec]


def test_thm81_certify_json_golden_hash(tmp_path, capsys):
    # the thm81 set is self-inverse, so it too fails the m = 0 preconditions
    dset = tmp_path / "d.json"
    assert cli.main(["thm81", "gnk:4,2", "distinguished", "--out", str(dset)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["certify", str(dset), "--json"]) == cli.EXIT_FAIL
    assert sha16(capsys.readouterr().out.encode()) == "544665b8dce7f8f7"


def test_construct_writes_a_default_name_in_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "gnk:2,0"]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith("wrote gnk_2_0.dset.json\n")
    assert sha16((tmp_path / "gnk_2_0.dset.json").read_bytes()) == CONSTRUCT_SHA256["gnk:2,0"]


def test_thm81_prints_none_when_no_matching_exists(tmp_path, monkeypatch, capsys):
    # {0, 4, 8, 12} is a normal C2^2 of D4 x C2 that no hyperplane matching
    # fits, so nothing is certified and no file is written
    monkeypatch.chdir(tmp_path)
    write_cayley(direct_product(dihedral_group(4), cyclic_group(2)), "d4c2.json")
    assert cli.main(["thm81", "file:d4c2.json", "gens=4,8"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "none\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d4c2.json"]


def test_export_hadamard_golden_hash(tmp_path):
    dset, had = tmp_path / "d.json", tmp_path / "h.txt"
    assert cli.main(["construct", "gnk:3,1", "--out", str(dset)]) == cli.EXIT_OK
    assert cli.main(["export-hadamard", str(dset), "--out", str(had)]) == cli.EXIT_OK
    assert sha16(had.read_bytes()) == "f67380cdcebd33fe"


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


def test_certify_convolution_count(tmp_path, monkeypatch, capsys):
    # dset and rshds share one D*D^-1; schur, spectrum and hadamard share one
    # structure, read from five products and the certified D*D^-1
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:3,1", "--out", str(dset)]) == cli.EXIT_OK
    calls = []
    real = algebra.convolve

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(algebra, "convolve", counted)
    monkeypatch.setattr(certify, "convolve", counted)
    monkeypatch.setattr(schur, "convolve", counted)
    assert cli.main(["certify", str(dset)]) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 6


# a default run convolves D*D^-1 once for dset and rshds together, and five
# class products once for schur, spectrum and hadamard together, which read
# D*D^-1 off the rshds report; the self-inverse c4n:4 set fails the m = 0
# precondition of the last three
@pytest.mark.parametrize("spec,code,stdout_sha,failed", [
    ("gnk:3,1", cli.EXIT_OK, "eecaf1821c715139", []),
    ("c4n:4", cli.EXIT_FAIL, "544665b8dce7f8f7", ["rshds-structure", "schur", "spectrum", "hadamard"]),
])
def test_certify_builds_the_schur_structure_once(
    tmp_path, monkeypatch, capsys, spec, code, stdout_sha, failed
):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", spec, "--out", str(dset)]) == cli.EXIT_OK
    capsys.readouterr()
    calls = []
    real = certify.convolve

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(certify, "convolve", counted)
    monkeypatch.setattr(schur, "convolve", counted)
    assert cli.main(["certify", str(dset), "--json"]) == code
    out = capsys.readouterr().out
    assert sha16(out.encode()) == stdout_sha
    reports = json.loads(out)
    assert [r["checkName"] for r in reports if not r["pass"]] == failed
    assert [r["checkName"] for r in reports if "precondition" in r["witnesses"]] == failed[1:]
    assert len(calls) <= 6


@pytest.mark.parametrize("h, stdout", [
    ("8", "(v,k,lambda)=(64,28,12)\n"),
    ("4", "(v,k,lambda)=(16,6,2)\n"),
])
def test_params_prints_the_parameters_only(capsys, h, stdout):
    assert cli.main(["params", h]) == cli.EXIT_OK
    assert capsys.readouterr().out == stdout


def test_search_out_round_trips_through_certify(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert cli.main(["search", "gnk:2,0", "distinguished", "--out", str(out)]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.startswith("found 16 difference set(s)")
    assert len([line for line in stdout.splitlines() if line.startswith("  ")]) == 16
    first = stdout.splitlines()[1].strip()
    doc = json.loads(out.read_text())
    assert doc["subgroup"] == "distinguished"
    assert ",".join(map(str, doc["elements"])) == first
    assert cli.main(["certify", str(out)]) == cli.EXIT_OK


def test_search_out_writes_nothing_when_none_is_found(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert cli.main(["search", G36_SPEC, "auto-6", "--out", str(out)]) == cli.EXIT_OK
    assert "not written" in capsys.readouterr().out
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["thm81", "gnk:2,0", "gens=a"],
        ["screen", "gnk:2,0", "4", "gens=1,x"],
        ["quotient", "DSET", "--kernel", "gens=1,b"],
        ["certify", "DSET", "--checks", ","],
        ["certify", "DSET", "--checks", " , "],
        ["certify", "DSET", "--checks", ""],
        ["screen", "gnk:2,0", "4", "gens=\u0661"],
        ["screen", "gnk:2,0", "4", "gens=1_0"],
        ["screen", "gnk:2,0", "4", "gens= 2"],
        ["screen", "gnk:2,0", "4", "auto-\u0661"],
        ["screen", "gnk:\u0662,\u0660", "4"],
        ["screen", "c4n:\u0662", "4"],
        # a ConstructionError is a GroupError, which main reports like the rest
        ["construct", "c4n:1"],
        ["search", "gnk:2,0", "gens=1"],
        ["thm81", "c4n:2", "gens=4"],
        # distinguished is the one name for the distinguished subgroup, and an
        # order is ASCII digits alone
        ["search", "gnk:2,0", "auto"],
        ["search", G36_SPEC, "auto-n6"],
        # construct builds gnk: and c4n: sets only, --checks takes known
        # names only, and a table read from a file has no distinguished subgroup
        ["construct", G36_SPEC],
        ["certify", "DSET", "--checks", "dset,nope"],
        ["thm81", G36_SPEC, "distinguished"],
    ],
)
def test_bad_subgroup_tokens_and_empty_check_lists_are_usage_errors(tmp_path, capsys, argv):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:2,0", "--out", str(dset)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main([str(dset) if a == "DSET" else a for a in argv]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_budget(capsys):
    assert cli.main(["search", "gnk:3,1", "distinguished", "--budget", "3"]) == cli.EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_search_within_budget(capsys):
    assert cli.main(["search", "gnk:2,0", "distinguished", "--budget", "1000"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("found 16 difference set(s)")


# each entry is a full command line; DSET stands for a constructed dset-v1 file.
# --workers is gone, --budget belongs to search (not to thm81's matching
# search), and --json and --out go only to the subcommands that read them
@pytest.mark.parametrize(
    "flag",
    [
        ["certify", "DSET", "--workers", "2"],
        ["certify", "DSET", "--budget", "5"],
        ["certify", "DSET", "--out", "x.json"],
        ["dump-table", "gnk:2,0", "--json"],
        ["params", "4", "--json"],
        ["params", "4", "--out", "x.json"],
        ["screen", "gnk:2,0", "4", "--out", "x.json"],
        ["quotient", "DSET", "--out", "x.json"],
        ["search", "gnk:2,0", "distinguished", "--json"],
        ["thm81", "c4n:2", "distinguished", "--budget", "5"],
    ],
)
def test_removed_and_search_only_flags_are_usage_errors(tmp_path, capsys, flag):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:2,0", "--out", str(dset)]) == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main([str(dset) if a == "DSET" else a for a in flag])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_profile_is_a_check_of_certify_not_a_subcommand(tmp_path, capsys):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:2,0", "--out", str(dset)]) == cli.EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile", str(dset)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'profile'" in capsys.readouterr().err
    assert cli.main(["certify", str(dset), "--checks", "profile"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "PASS coset-profile (h=4, v=16, k=6, lambda=2, m=None)\n"


def test_export_hadamard_requires_out(tmp_path, capsys):
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:2,0", "--out", str(dset)]) == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["export-hadamard", str(dset)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "the following arguments are required: --out" in capsys.readouterr().err


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


@pytest.mark.parametrize("token", [[], ["auto-3"]], ids=["no-token", "auto-3"])
def test_screen_refuses_a_non_square_order_before_any_walk(monkeypatch, capsys, token):
    def ran(*args):
        raise AssertionError("a normal walk ran")

    monkeypatch.setattr(screen, "_normal_subgroups_dividing", ran)
    assert cli.main(["screen", G36_SPEC, "3", *token]) == cli.EXIT_USAGE
    assert "error: group order 36 != h^2 = 9" in capsys.readouterr().err


def test_screen_of_a_plain_table_walks_the_normal_lattice_once(monkeypatch):
    # H, the unique normal subgroup of order 6, comes from the screen's own walk;
    # order 9, the kernel order of C2^2, is counted off G/K_2 and not walked
    calls = []
    real = screen._normal_subgroups_dividing

    def counted(group, orders):
        calls.append(sorted(orders))
        return real(group, orders)

    monkeypatch.setattr(screen, "_normal_subgroups_dividing", counted)
    assert cli.main(["screen", G36_SPEC, "6"]) == cli.EXIT_OK
    assert calls == [[3, 4, 6]]


def test_quotient_checks_every_prime_index_kernel_by_default(tmp_path, capsys):
    # gnk:3,1 has 7 kernels of index 2, and its set passes against each
    dset = tmp_path / "d.json"
    assert cli.main(["construct", "gnk:3,1", "--out", str(dset)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["quotient", str(dset), "--json"]) == cli.EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 7
    assert all(r["pass"] and r["witnesses"]["case"] == "prime-index" for r in reports)


def test_search_resolves_the_auto_subgroup(capsys):
    assert cli.main(["search", G36_SPEC, "auto-6"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("found 0 difference set(s)")


def test_auto_subgroup_must_be_unique(capsys, c6xc6_spec):
    assert cli.main(["search", c6xc6_spec, "auto-2"]) == cli.EXIT_USAGE
    assert "expected exactly one normal subgroup of order 2" in capsys.readouterr().err


# `search` stdout (16 hex digits of its sha256; the budget stop prints nothing
# there) and the start of the stats line it ends stderr with.  The sets are as
# first released; the node and leaf counts are those of the reduced walk.  The
# c4n:1 stdout is its two sets after the line "warning: degenerate h=2, lambda = 0".
SEARCH_RUNS = [
    (["gnk:2,0", "distinguished"], cli.EXIT_OK, "ed8a38e6a96a8bdf",
     "search: 34 nodes, 8 leaves, "),
    ([G36_SPEC, "auto-6"], cli.EXIT_OK, "f21660e63fcfd62f",
     "search: 2992 nodes, 0 leaves, "),
    (["gnk:3,1", "distinguished", "--budget", "10000"], cli.EXIT_BUDGET, "e3b0c44298fc1c14",
     "search: 10001 nodes, 24 leaves, "),
    (["c4n:1", "distinguished"], cli.EXIT_OK, "09bcbb97f308f643",
     "search: 1 nodes, 1 leaves, "),
]


@pytest.mark.parametrize("argv, code, stdout_sha, stats", SEARCH_RUNS,
                         ids=["gnk:2,0", "G36_1", "budget-stop", "h=2"])
def test_search_prints_its_stats_to_stderr_only(capsys, argv, code, stdout_sha, stats):
    assert cli.main(["search", *argv]) == code
    captured = capsys.readouterr()
    assert sha16(captured.out.encode()) == stdout_sha
    lines = [line for line in captured.err.splitlines() if line.startswith("search: ")]
    assert len(lines) == 1
    assert re.fullmatch(re.escape(stats) + r"\d+\.\d{3} s, \d+ nodes/s", lines[0])
