"""Every committed BENCH_*.json names its host and carries, for each gated
end-to-end metric of each benchmark workload, the parent's and the change's
medians."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_every_gated_median(path):
    bench = json.loads(path.read_text())
    assert isinstance(bench["host"]["nproc"], int)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            got = bench["end_to_end"][wl["name"]][metric["name"]]
            for side in ("parent", "change"):
                assert isinstance(got[side]["median"], float), (
                    path.name, wl["name"], metric["name"], side)
