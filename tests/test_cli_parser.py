"""The command table reads every command line as the argparse parser did.

``oracles.build_parser_reference`` is the argparse parser the CLI had before
its command table.  Each valid command line below must give the same command,
handler and attribute values on both; each invalid one must exit 2 on both,
and the table's parser must print a usage line and an error line to stderr and
nothing to stdout.  The one intended difference is that argparse took a unique
prefix of an option (``--js`` for ``--json``) and the table does not.  The
table also keeps the Python 3.10/3.11 reading of ``ENDS_POSITIONALS`` on later
versions, whose argparse reads that command line differently.
"""
from __future__ import annotations

import sys

import pytest

from oracles import build_parser_reference
from rshds import cli

VALID = [
    ["params", "4"],
    ["params", "-4"],
    ["params", "--", "-4"],
    ["params", "٤"],
    ["construct", "gnk:2,0"],
    ["construct", "--json", "gnk:2,0", "--out", "x"],
    ["construct", "gnk:2,0", "--out=x", "--json"],
    ["construct", "gnk:2,0", "--out=", "--json"],
    ["construct", "gnk:2,0", "--out", "a", "--out", "b"],
    ["construct", "gnk:2,0", "--json", "--json"],
    ["construct", "gnk:2,0", "--out", "-"],
    ["construct", "gnk:2,0", "--out", "-5"],
    ["construct", "-"],
    ["construct", "--", "-x"],
    ["certify", "d", "--checks", "dset,profile"],
    ["certify", "--checks=dset", "d", "--json"],
    ["thm81", "gnk:3,1", "--json", "distinguished", "--out", "t"],
    ["thm81", "--out", "t", "gnk:3,1", "distinguished"],
    ["screen", "gnk:3,1", "8"],
    ["screen", "gnk:3,1", "8", "distinguished", "--json"],
    ["screen", "--json", "gnk:3,1", "8", "distinguished"],
    ["screen", "gnk:3,1", "--json", "8", "distinguished"],
    ["screen", "gnk:3,1", "-8"],
    ["screen", "g", "8", "--", "sub"],
    ["search", "gnk:2,0", "distinguished", "--budget", "5"],
    ["search", "--budget=-5", "gnk:2,0", "distinguished"],
    ["search", "gnk:2,0", "--budget", "-5", "distinguished", "--out", "s"],
    ["quotient", "d", "--kernel", "gens=1"],
    ["quotient", "--kernel=auto-2", "d", "--json"],
    ["export-hadamard", "d", "--out", "h"],
    ["export-hadamard", "--out=h", "--json", "d"],
    ["export-hadamard", "d", "--out="],
    ["dump-table", "gnk:2,0", "--out", "t"],
    ["dump-table", "--out", "t", "gnk:2,0"],
    # a dash-led word with a space in it is a value, unless it sets a flag
    ["construct", "gnk:2,0", "--out", "-my out.json"],
    ["construct", "-my spec"],
    ["certify", "-a b.json", "--checks", "-dset, profile"],
    ["construct", "gnk:2,0", "--out=my out.json"],
    ["construct", "--bogus=a b"],
]

INVALID = [
    [],
    ["nonsense"],
    ["profile", "d"],
    ["--json"],
    ["-x", "params", "4"],
    ["params"],
    ["params", "x"],
    ["params", "4", "5"],
    ["params", "-.5"],
    ["certify"],
    ["certify", "d", "e"],
    ["certify", "d", "--", "--json"],
    ["thm81", "gnk:3,1"],
    ["screen", "gnk:3,1", "8x"],
    ["search", "gnk:2,0", "distinguished", "--budget", "x"],
    ["search", "gnk:2,0", "distinguished", "--budget", "1.5"],
    ["search", "gnk:2,0", "distinguished", "--budget"],
    ["search", "g", "s", "--budget="],
    ["construct", "gnk:2,0", "--out"],
    ["construct", "gnk:2,0", "--out", "--json"],
    ["construct", "gnk:2,0", "--json=1"],
    ["construct", "gnk:2,0", "-x"],
    ["params", "x", "-h"],
    ["export-hadamard", "d"],
    ["export-hadamard", "d", "--json"],
    # the flags of test_cli.test_removed_and_search_only_flags_are_usage_errors
    ["certify", "d", "--workers", "2"],
    ["certify", "d", "--budget", "5"],
    ["certify", "d", "--out", "x.json"],
    ["dump-table", "gnk:2,0", "--json"],
    ["params", "4", "--json"],
    ["params", "4", "--out", "x.json"],
    ["screen", "gnk:2,0", "4", "--out", "x.json"],
    ["quotient", "d", "--out", "x.json"],
    ["search", "gnk:2,0", "distinguished", "--json"],
    ["thm81", "c4n:2", "distinguished", "--budget", "5"],
    ["construct", "gnk:2,0", "--out", "--json=a b"],
    ["construct", "gnk:2,0", "-my out.json"],
    ["construct", "--help=a b"],
]

# an option after every required positional ends the positionals, as it does
# in the argparse of Python 3.10 and 3.11; later argparse reads the optional
# positional after it, and the table keeps the older reading on every version
ENDS_POSITIONALS = ["screen", "gnk:3,1", "8", "--json", "distinguished"]

HELP = [["-h"], ["--help"], ["-h", "nonsense"], ["certify", "--help"], ["certify", "d", "-h"],
        ["export-hadamard", "d", "-h"], ["construct", "--bogus", "-h"]]

# argparse took these unique prefixes; the table refuses them
ABBREVIATED = [
    ["construct", "gnk:2,0", "--js"],
    ["construct", "gnk:2,0", "--o", "x"],
    ["search", "gnk:2,0", "distinguished", "--bud", "5"],
    ["certify", "d", "--check", "dset"],
]


def _reference(argv):
    return vars(build_parser_reference().parse_args(argv))


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_valid_command_line_reads_as_argparse_read_it(argv):
    assert vars(cli._parse(argv)) == _reference(argv)


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_an_invalid_command_line_exits_2_on_both_parsers(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _reference(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli._parse(argv)
    assert exc.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == "" and usage.startswith("usage: rshds") and error.startswith("error: ")


def test_an_option_after_the_required_positionals_ends_them(capsys):
    if sys.version_info < (3, 12):
        with pytest.raises(SystemExit):
            _reference(ENDS_POSITIONALS)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli._parse(ENDS_POSITIONALS)
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: distinguished\n")


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_exits_0_on_both_parsers(capsys, argv):
    for parse in (_reference, cli._parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: rshds") and err == ""


def test_the_help_names_every_command_and_each_command_its_options(capsys):
    with pytest.raises(SystemExit):
        cli._parse(["--help"])
    out = capsys.readouterr().out
    assert all(f"\n  {name} " in out for name in cli._COMMANDS)
    with pytest.raises(SystemExit):
        cli._parse(["search", "--help"])
    assert capsys.readouterr().out.startswith(
        "usage: rshds search [-h] [--out OUT] [--budget N] spec subgroup\n")


@pytest.mark.parametrize("argv", ABBREVIATED, ids=" ".join)
def test_an_abbreviated_option_is_refused(capsys, argv):
    _reference(argv)
    with pytest.raises(SystemExit) as exc:
        cli._parse(argv)
    assert exc.value.code == cli.EXIT_USAGE
    prefix = next(a for a in argv if a.startswith("--"))
    assert f"error: unrecognized arguments: {prefix}" in capsys.readouterr().err


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["rshds", "params", "4"])
    assert cli.main() == cli.EXIT_OK
    assert capsys.readouterr().out == "(v,k,lambda)=(16,6,2)\n"
