"""The benchmark still runs against the library: one short untraced and
one short traced run of perfbench/run.py on the tandem stream.

The traced run reads library names (the index's registry view,
SuffixTree.locate, online_builder.as_symbols); a name it cannot find is
reported as absent rather than failing the run, so the set of absent
metrics is pinned here. The four absent today time construction hooks
and a method that no longer exist.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ABSENT_TODAY = {
    "implicit_registry.leaf_added_calls",
    "implicit_registry.edge_split_calls",
    "implicit_registry.phase_ended_calls",
    "suffix_tree.min_suffix_starts_s",
}


def run_bench(trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "stream_tandem",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
def test_stream_tandem_run_is_correct(trace):
    lines, result = run_bench(trace)
    assert result["correct"] is True
    absent = {fields[1] for fields in (ln.split("\t") for ln in lines)
              if len(fields) == 4 and fields[3] == "absent"}
    assert absent <= ABSENT_TODAY, absent - ABSENT_TODAY
