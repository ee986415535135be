"""The benchmark's output digests, pinned.

Each workload of ``perfbench/``, imported as it is, is prepared at full
size; its first ``count_window`` ops run in order, cycling through the
prepared ones as a benchmark run does, and the benchmark's own ``judge``
checks every output and digests them.  The digest must be the pinned one,
so a change to the CLI's output on the benchmark's inputs fails here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402

PINNED = [
    ("optimal-desk", 101,
     "27b0b3c8fd07468194c292b754a6db09d3861f405269b074117bfc7999996803"),
    ("optimal-desk", 102,
     "8efb10684fa68c7a57e618da2745485c96de4611aa8197dbaae7a101b9deb8c0"),
    ("check-large", 101,
     "24b35afe19398ef9788a0ab8869c31ded412566acd72f3cfeddcc9c53a09fded"),
]


@pytest.mark.parametrize("name, seed, digest", PINNED,
                         ids=[f"{name}-{seed}" for name, seed, _ in PINNED])
def test_output_digest(name, seed, digest, tmp_path):
    workload = workloads.WORKLOADS[name]
    ops = workload.prepare(seed, tmp_path, False).ops
    window = [ops[i % len(ops)] for i in range(workload.count_window)]
    reasons, got = run.judge(window, [op.run() for op in window],
                             workload.count_window)
    assert reasons == []
    assert got == digest
