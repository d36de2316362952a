"""The command table reads command lines as the argparse parser did.

``oracles.build_parser_reference`` is the argparse parser the CLI had before
its command table.  Each valid command line below must give the same command,
handler and attribute values on both; each invalid one must exit 2 on both,
and the table's parser must print a usage line and an error line to stderr and
nothing to stdout.  The intended differences are listed in ``ABBREVIATED``
(argparse took a unique prefix of an option, ``--js`` for ``--json``, and the
table does not) and ``DIFFERENT``.  The table also keeps the Python 3.10/3.11
reading of ``ENDS_POSITIONALS`` on later versions, whose argparse reads that
command line differently.  A generative test draws command lines from
``TOKENS`` and holds the two parsers to the same reading apart from these.
"""
from __future__ import annotations

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# argparse read these differently; the table keeps its own reading, which
# ``_intended`` states for every command line of the same shape
DIFFERENT = [
    # argparse skipped a dash word before the command and obeyed a later -h;
    # the table refuses a command line that starts with no command
    ["--checks", "--help"],
    # argparse refused a value given to a bare flag (--json, -h, --help) at
    # once; the table counts it among the unrecognized arguments, which it
    # reports only after the line is read, so a later -h prints the help
    ["screen", "--json=1", "-h"],
    # argparse passed a second -- into a str or int positional as an empty
    # list; the table reads every word after the first -- as a positional
    ["search", "--", "search", "--"],
    ["screen", "--bogus=a b", "--", "--", "--budget"],
    # argparse refused a trailing -- after an option that follows the
    # positionals; the table reads no word after it
    ["construct", "distinguished", "--out=", "--"],
]

# the nine commands, each flag bare and with a value, the words that end the
# options or ask for help, negative and non-ASCII numbers, and dash-led words
# with and without a space
_FLAGS = ["--json", "--out", "--checks", "--kernel", "--budget"]
TOKENS = [*cli._COMMANDS, *_FLAGS,
          *(f"{flag}={value}" for flag in _FLAGS for value in ("", "1", "a b")),
          "--", "-", "-h", "--help", "--help=1", "-4", "-.5", "٤", "-x", "-my out", "--bogus=a b",
          "8", "d"]


def _reference(argv):
    return vars(build_parser_reference().parse_args(argv))


def _outcome(parse, argv):
    """The attributes ``parse`` reads from ``argv``, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


def _intended(argv, reference):
    """The table's reading of ``argv`` where ``DIFFERENT`` or ``ENDS_POSITIONALS``
    says that it may differ from argparse's ``reference``, else None."""
    parse = build_parser_reference().parse_args
    head = argv[:argv.index("--")] if "--" in argv else argv
    helps = [i for i, arg in enumerate(head) if arg in ("-h", "--help")]
    if helps and argv[0] not in cli._COMMANDS:
        return cli.EXIT_USAGE
    if helps and any(arg.partition("=")[0] in ("--json", "-h", "--help") and "=" in arg
                     for arg in head[1:helps[0]]):
        return cli.EXIT_OK
    if argv.count("--") > 1:  # argparse reads a stand-in word for each later --
        first = argv.index("--") + 1
        read = _outcome(parse, [*argv[:first], *("\0" if a == "--" else a for a in argv[first:])])
        if isinstance(read, dict):
            return {dest: "--" if value == "\0" else value for dest, value in read.items()}
        return read
    if argv[-1:] == ["--"]:
        return _outcome(parse, argv[:-1])
    if (sys.version_info >= (3, 12) and argv[0] == "screen" and isinstance(reference, dict)
            and reference["subgroup"] is not None):
        return cli.EXIT_USAGE
    return None


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


@pytest.mark.parametrize("argv", DIFFERENT, ids=" ".join)
def test_an_intended_difference_reads_as_documented(argv):
    reference = _outcome(build_parser_reference().parse_args, argv)
    table = _outcome(cli._parse, argv)
    assert table == _intended(argv, reference)
    if sys.version_info < (3, 12):  # later argparse reads some of them as the table does
        assert table != reference


# a line of VALID with one word after the command replaced by a value, so
# that many drawn lines are valid; any tokens; or a command and tokens
_VALUES = ["8", "d", "-4", "-.5", "٤", "-", "-my out"]


def _with_value(line, at, value):
    """``line`` with its word ``at`` after the command, counted round, set to ``value``."""
    at = 1 + at % (len(line) - 1)
    return [*line[:at], value, *line[at + 1:]]


_ARGVS = st.one_of(
    st.builds(_with_value, st.sampled_from(VALID), st.integers(0, 5), st.sampled_from(_VALUES)),
    st.lists(st.sampled_from(TOKENS), max_size=6),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(list(cli._COMMANDS)),
              st.lists(st.sampled_from(TOKENS), max_size=5)),
)


@settings(deadline=None, max_examples=400)
@given(_ARGVS)
def test_a_drawn_command_line_reads_as_argparse_read_it(argv):
    reference = _outcome(build_parser_reference().parse_args, argv)
    table = _outcome(cli._parse, argv)
    assert table == reference or table == _intended(argv, reference)
