"""gen-data's outputs against the benchmark's recorded SHA-256 digests.

The benchmark rejects a change whose generated instances differ by a byte
from `perfbench/reference.json`; this runs the same check at seeds 0 and 1
so that a slip in the order of random draws fails here first. It only reads
`perfbench/`.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import synth  # noqa: E402
import workloads  # noqa: E402
from clozebase.corpus import parse_roc_csv  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1])
def test_gen_data_matches_the_benchmark_reference(seed, tmp_path):
    synth.write_inputs("gen-data", seed, tmp_path)
    stories = parse_roc_csv(tmp_path / "roc.csv")
    out, _, _ = workloads._generate(stories, seed)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert {strategy: workloads.gen_digest(instances)
            for strategy, instances in out.items()} == reference["gen-data"][str(seed)]
