"""A fresh ``python -m rshds.cli`` process behaves as ``cli.main`` in process.

A process runs ``cli.run``, which calls ``main()``, freezes the heap and
exits with the code; the ``rshds`` console script runs the same entry.
Each case here runs one command line both ways in one directory and
requires the same exit code and byte-equal stdout and stderr.  The one
line that differs between runs, the wall time and rate that ``search``
prints to stderr, is masked on both sides.
"""
from __future__ import annotations

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rshds import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
# the wall time and rate of the stderr line of search, the one line a rerun changes
_SEARCH_TIME = re.compile(rb"(?m)^(search: \d+ nodes, \d+ leaves, )[0-9.]+ s, \d+ nodes/s$")


def _masked(err: bytes) -> bytes:
    return _SEARCH_TIME.sub(rb"\1<time>", err)


def _fresh(directory: Path, argv: list, args: tuple = ("-m", "rshds.cli")):
    """(exit code, stdout, stderr) of ``python -m rshds.cli argv`` in a new interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args, *argv], cwd=directory, capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, _masked(proc.stderr)


def _in_process(capsysbinary, argv: list):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; a usage error's exit is its code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsysbinary.readouterr()
    return code, out, _masked(err)


@pytest.fixture
def sets(tmp_path, monkeypatch, capsysbinary):
    """A directory holding the gnk:2,0 set (g.json) and the self-inverse c4n:4 set (c.json)."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "gnk:2,0", "--out", "g.json"]) == cli.EXIT_OK
    assert cli.main(["construct", "c4n:4", "--out", "c.json"]) == cli.EXIT_OK
    capsysbinary.readouterr()
    return tmp_path


@pytest.mark.parametrize("argv, code", [
    ("certify g.json", cli.EXIT_OK),
    ("certify c.json", cli.EXIT_FAIL),
    ("export-hadamard c.json --out c.had", cli.EXIT_FAIL),
    ("certify", cli.EXIT_USAGE),
    ("certify missing.json", cli.EXIT_USAGE),
    ("search gnk:2,0 distinguished --budget 0", cli.EXIT_BUDGET),
], ids=["pass", "fail", "export-refusal", "usage", "missing-file", "budget"])
def test_a_fresh_process_matches_main(sets, capsysbinary, argv, code):
    fresh = _fresh(sets, argv.split())
    assert fresh[0] == code, fresh
    assert fresh == _in_process(capsysbinary, argv.split())
    assert fresh[1] or fresh[2]


def test_a_search_listing_arrives_whole_through_a_pipe(sets, capsysbinary):
    # stdout is a pipe here, so it is block-buffered and written out at exit
    argv = ["search", "gnk:2,0", "distinguished"]
    fresh = _fresh(sets, argv)
    assert fresh == _in_process(capsysbinary, argv)
    lines = fresh[1].decode().splitlines()
    assert fresh[0] == cli.EXIT_OK and lines[0].startswith("found 16 difference set(s)")
    assert len([line for line in lines if line.startswith("  ")]) == 16


def test_run_freezes_the_heap_and_keeps_the_exit_path(tmp_path):
    # an atexit handler still runs after run() froze the heap, and sees the freeze
    code = ("import atexit, gc, sys, rshds.cli; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
            "sys.argv = ['rshds', 'params', '4']; rshds.cli.run()")
    assert _fresh(tmp_path, [], ("-c", code)) == (0, b"(v,k,lambda)=(16,6,2)\n", b"frozen True\n")


def test_main_leaves_the_collector_unfrozen(sets, capsysbinary):
    before = gc.get_freeze_count()
    assert cli.main(["certify", "g.json"]) == cli.EXIT_OK
    assert cli.main(["certify", "c.json"]) == cli.EXIT_FAIL
    with pytest.raises(SystemExit):
        cli.main(["certify"])
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", ["params 4", "search gnk:2,0 distinguished"])
def test_a_closed_stdout_exits_141_with_no_error_line(tmp_path, argv):
    # the read end is closed before the child writes: main() must not report
    # the BrokenPipeError as a file error (exit 2), and run() must not let the
    # flush at shutdown print "Exception ignored"; it exits as SIGPIPE would
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "rshds.cli", *argv.split()], cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141, err
    assert b"error:" not in err and b"Exception" not in err and b"Traceback" not in err, err
