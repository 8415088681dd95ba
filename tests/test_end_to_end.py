"""The CLI as a user runs it: ``python -m pexkit.cli`` in a subprocess."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pexkit import cli

SRC = Path(cli.__file__).parents[1]

# A world model whose performs is not a list, as a corpus's gold may not be.
PERFORMS_OBJECT = {"doc_id": "10.1", "activities": ["check stock"], "participants": [],
                   "performs": {}, "follows": [], "provenance": {}}


def pex(argv, cwd, env):
    """``pex`` with ``argv`` in ``cwd``, its environment updated with ``env``."""
    return subprocess.run([sys.executable, "-m", "pexkit.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env})


@pytest.mark.parametrize("want, env, argv", [
    # A byte of argv that is not UTF-8 reaches Python as a lone surrogate.
    (2, {}, ["prompt", "--question", "q2", "--setting", "raw", "--doc", "10.1",
             "--x", b"\xff"]),
    # An API key that is not a valid header value, and a host label of 64
    # characters, which IDNA cannot encode: both before any request.
    (3, {"PEX_API_KEY": "k\n"}, ["extract", "--doc", "10.1", "--setting", "raw",
                                 "--backend", "live", "--endpoint", "http://127.0.0.1:9/v1",
                                 "--out", "model.json"]),
    (3, {"PEX_API_KEY": "ci"}, ["extract", "--doc", "10.1", "--setting", "raw",
                                "--backend", "live",
                                "--endpoint", f"http://{'a' * 64}.example/v1",
                                "--out", "model.json"]),
    (2, {}, ["evaluate", "--doc", "10.1", "--model", "performs.json"]),
], ids=["argv-not-utf8", "api-key-newline", "host-label-64", "performs-object"])
def test_malformed_input_never_gives_a_traceback(tmp_path, want, env, argv):
    (tmp_path / "performs.json").write_text(json.dumps(PERFORMS_OBJECT))
    done = pex(argv, tmp_path, env)
    assert (done.returncode, "Traceback" in done.stderr) == (want, False), done.stderr
    assert not (tmp_path / "model.json").exists()
