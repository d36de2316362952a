"""The benchmark's tracer sees the CLI handlers that ``cli.main`` runs.

``perfbench.tracer`` wraps each ``cli._cmd_<name>`` handler by setting the
module attribute, and the per-layer metrics ``cli.construct_s``,
``cli.certify_s`` and the rest read those spans.  ``cli._parse`` finds the
handler by name in the module's globals when it parses, so the wrapper is
what runs.  A command table that held the handler objects it was given at
import would run the unwrapped handlers, and those metrics would read 0
without any error; this test fails instead.

``rshds.schur`` loads only when a certify runs its checks, so in a traced
CLI process it loads after the wrappers went in and must take them from
``rshds.algebra``: otherwise ``algebra.convolve_calls`` would count one
convolution of a default certify, not six.
"""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

from rshds import cli


def test_the_tracer_records_the_construct_and_certify_handlers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer_module = importlib.import_module("perfbench.tracer")
    dset = str(tmp_path / "d.json")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main(["construct", "gnk:2,0", "--out", dset]) == cli.EXIT_OK
        assert cli.main(["certify", dset]) == cli.EXIT_OK
    finally:
        tracer.remove()
    recorded = {span[0] for span in tracer.spans}
    assert {"cli._cmd_construct", "cli._cmd_certify"} <= recorded, sorted(recorded)
    assert tracer.stats["cli._cmd_construct"][0] == tracer.stats["cli._cmd_certify"][0] == 1
    metrics = tracer_module.summarize([tracer.snapshot()])
    assert metrics["cli.construct_s"] > 0 and metrics["cli.certify_s"] > 0


def test_the_tracer_counts_the_convolutions_of_the_schur_checks(tmp_path):
    # in the benchmark's traced CLI processes rshds.schur is first loaded
    # after the tracer went in, by the certify that runs its checks, and it
    # must bind the wrapped convolve: a default certify makes 6 convolutions.
    # A new interpreter, since this one may have loaded rshds.schur already
    root = Path(__file__).resolve().parents[1]
    dset = str(tmp_path / "d.json")
    assert cli.main(["construct", "gnk:3,1", "--out", dset]) == cli.EXIT_OK
    code = ("import sys; from perfbench.tracer import Tracer, summarize; from rshds import cli; "
            "tracer = Tracer(); tracer.install(); before = 'rshds.schur' in sys.modules; "
            f"exit_code = cli.main(['certify', {dset!r}]); tracer.remove(); "
            "print(before, exit_code, summarize([tracer.snapshot()])['algebra.convolve_calls'])")
    path = os.pathsep.join(filter(None, [str(root), str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines()[-1] == "False 0 6"
