"""The one process entry, ``slocc.cli.run``: ``python -m slocc``, ``python -m slocc.cli`` and the
installed ``slocc`` script freeze the import-time objects out of the collector, then run
``main``, whose output, error line and exit code they pass on unchanged. ``main`` itself, the
in-process function, never freezes, and an output that cannot be written is one ``error:`` line
with exit 2."""

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slocc.cli import format_state_text, main
from slocc.multiqubit import cluster_state_4
from slocc.states import apply_local_operators, make_state
from slocc.tripartite import TripartiteClass, canonical_vector

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def child(*args, env=ENV, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` with the package source on its path."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], env=env, stderr=subprocess.PIPE, timeout=60, **kwargs
    )


@pytest.fixture
def state_files(tmp_path):
    g = np.random.default_rng(7)
    ops = [g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)) for _ in range(4)]
    states = {
        "bell.txt": make_state([2, 2], [1, 0, 0, 1]),
        "w.txt": apply_local_operators(canonical_vector(TripartiteClass.W), ops[:3]),
        "phi4.txt": apply_local_operators(cluster_state_4(), ops),
    }
    for name, state in states.items():
        (tmp_path / name).write_text(format_state_text(state))
    return tmp_path


INVOCATIONS = [  # argv ({tmp}: the directory of the state files), the exit code main returns
    (["canonical", "W"], 0),
    (["classify", "{tmp}/bell.txt"], 0),
    (["classify", "{tmp}/bell.txt", "--json"], 0),
    (["classify", "{tmp}/w.txt"], 0),
    (["classify", "{tmp}/w.txt", "--json"], 0),
    (["classify", "{tmp}/phi4.txt"], 0),
    (["classify", "{tmp}/phi4.txt", "--json"], 0),
    (["reduce", "{tmp}/w.txt", "--json"], 0),
    (["bound", "6", "3", "--split"], 0),
    (["canonical", "XYZ"], 2),
    (["reduce", "{tmp}/bell.txt"], 3),
]


@pytest.mark.parametrize(
    "argv,code",
    INVOCATIONS,
    ids=[
        "canonical", "classify-2x2", "classify-2x2-json", "classify-3q", "classify-3q-json",
        "classify-4q", "classify-4q-json", "reduce-3q", "bound-split", "unknown-name",
        "reduce-2x2",
    ],
)
def test_process_matches_main(argv, code, state_files, capsys):
    argv = [arg.format(tmp=state_files) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    got = child("-m", "slocc", *argv, cwd=state_files)
    assert (got.returncode, got.stdout, got.stderr) == (
        code, captured.out.encode(), captured.err.encode()
    )


def test_module_cli_matches_main(capsys):
    assert main(["bound", "6", "3", "--split"]) == 0
    got = child("-m", "slocc.cli", "bound", "6", "3", "--split")
    assert (got.returncode, got.stdout, got.stderr) == (0, capsys.readouterr().out.encode(), b"")


FROZEN_AT_MAIN = """
import gc, runpy, sys
import slocc.cli as cli
assert gc.get_freeze_count() == 0, "frozen before the entry"
cli.main = lambda: print(gc.get_freeze_count() > 0) or 5
if sys.argv[1] == "run":
    raise SystemExit(cli.run())
runpy.run_module("slocc", run_name="__main__")  # python -m slocc
"""


@pytest.mark.parametrize("entry", ["run", "module"])
def test_entry_freezes_before_main(entry):
    got = child("-c", FROZEN_AT_MAIN, entry)
    assert (got.returncode, got.stdout, got.stderr) == (5, b"True\n", b"")


def test_main_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    assert main(["canonical", "W"]) == 0
    assert main(["canonical", "XYZ"]) == 2
    assert gc.get_freeze_count() == before


IMPORT_PROBE = """
import gc
state = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
import slocc, slocc.cli
assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state, state
"""


def test_import_leaves_the_collector_alone():
    got = child("-c", IMPORT_PROBE)
    assert (got.returncode, got.stderr) == (0, b"")


def test_script_target_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["slocc"]
    assert target == "slocc.cli:run"
    module, attr = target.split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry)


class _Unwritable:
    """A stdout whose ``write`` or ``flush`` fails as a full device or a closed pipe does."""

    def __init__(self, failing: str, exc: OSError):
        self.failing, self.exc = failing, exc

    def write(self, text):
        if self.failing == "write":
            raise self.exc
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise self.exc


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "exc", [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")],
    ids=["full", "pipe"],
)
def test_unwritable_output_in_process(failing, exc, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _Unwritable(failing, exc))
    assert main(["canonical", "W"]) == 2
    assert capsys.readouterr().err == f"error: cannot write the output: {exc}\n"


def _one_error_line(got, reason: str):
    assert got.returncode == 2
    assert got.stderr.decode() == f"error: cannot write the output: {reason}\n"


# Python's default stdout keeps the bytes a failed flush could not write, and its flush at
# shutdown meets the same error again; PYTHONUNBUFFERED=1 (python -u) writes straight through
STDOUT_MODES = {
    "buffered": {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"},
    "unbuffered": {**ENV, "PYTHONUNBUFFERED": "1"},
}


@pytest.mark.parametrize("mode", STDOUT_MODES)
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_exits_2(mode):
    with open("/dev/full", "wb") as full:
        got = child("-m", "slocc", "canonical", "W", stdout=full, env=STDOUT_MODES[mode])
    _one_error_line(got, "[Errno 28] No space left on device")


@pytest.mark.parametrize("mode", STDOUT_MODES)
def test_closed_pipe_exits_2(mode):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: its first write meets EPIPE
    try:
        got = child("-m", "slocc", "canonical", "W", stdout=write_end, env=STDOUT_MODES[mode])
    finally:
        os.close(write_end)
    _one_error_line(got, "[Errno 32] Broken pipe")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
@pytest.mark.parametrize(
    "argv", [["canonical", "W"], ["bound", "6", "3"], ["canonical", "XYZ"]],
    ids=["canonical", "bound", "unknown-name"],
)
def test_closed_stdout_exits_2(argv):
    # with fd 1 closed at start, sys.stdout is None: one error line, no traceback
    got = child("-m", "slocc", *argv, stdout=None, preexec_fn=lambda: os.close(1))
    lines = got.stderr.decode().splitlines()
    assert (got.returncode, len(lines)) == (2, 1) and lines[0].startswith("error: "), got.stderr
