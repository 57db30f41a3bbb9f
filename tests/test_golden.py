"""The detector's integer decisions on the benchmark workloads against committed digests."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_digests.txt"


def load_digest_tool():
    """``tools/digest.py`` as a module, with ``sys.path`` as it was before."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def golden_digests() -> dict[tuple[str, str], dict[str, str]]:
    """(workload, seed field) -> {part: digest} of every line of the golden file."""
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            workload, seed, *parts = line.split()
            golden[workload, seed] = dict(part.split("=") for part in parts)
    return golden


def test_inputs_and_decisions_match_the_golden_digests():
    tool = load_digest_tool()
    golden = golden_digests()
    assert [workload for workload, _ in golden] == list(tool.WORKLOADS)
    moved = []
    for (workload, seed), want in golden.items():
        assert seed == "seed=1" and list(want) == ["inputs", "decisions"]
        got = tool.digests(workload, 1)
        moved += [
            f"{workload} {seed}: the {part} digest moved, {want[part]} -> {got[part]}"
            for part in want
            if got[part] != want[part]
        ]
    assert not moved, "\n".join(moved)
