"""Golden digests: ``golden_digests.txt`` is what ``tools/output_digests.py`` prints.

That tool says what its 14 runs are, what the digests hold for and when the file
may be regenerated. The runs are made once in this process; each run is one case.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_LINES = (ROOT / "tests" / "golden_digests.txt").read_text(encoding="utf-8").splitlines()


def run_of(line: str) -> str:
    """The run of a ``<run>/<job>/<file> <digest>`` line; each sample config is a run of its own."""
    run, job, _ = line.split("/", 2)
    return f"{run}/{job}" if run == "sample" else run


def changes(lines: list[str], golden: list[str]) -> list[str]:
    """Each ``<run>/<job>/<file>`` key whose digest moved, went missing or appeared in ``lines``."""
    got, want = (dict(line.split(" ") for line in side) for side in (lines, golden))
    return [f"{key}: {'missing' if key not in got else 'appeared' if key not in want else 'moved'}"
            for key in {**want, **got} if got.get(key) != want.get(key)]


def interpreter_state() -> tuple[list[str], bool]:
    return sys.path[:], sys.dont_write_bytecode


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict:
    """The tool's digest lines, and ``interpreter_state`` before it is loaded, after loading and after its runs."""
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = False  # so that a tool which turns bytecode off shows
    try:
        states = [interpreter_state()]
        spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        states.append(interpreter_state())
        lines = tool.digest_lines(tmp_path_factory.mktemp("digests"))
        states.append(interpreter_state())
    finally:
        sys.dont_write_bytecode = flag
    return {"lines": lines, "states": states}


@pytest.mark.parametrize("run", dict.fromkeys(map(run_of, GOLDEN_LINES)))
def test_run_keeps_its_golden_digests(run, digests):
    moved = changes(*([line for line in side if run_of(line) == run] for side in (digests["lines"], GOLDEN_LINES)))
    assert not moved, "\n".join(moved)


def test_loading_and_running_the_tool_leave_sys_path_and_the_bytecode_flag_as_they_were(digests):
    before, loaded, ran = digests["states"]
    assert loaded == before
    assert ran == before
