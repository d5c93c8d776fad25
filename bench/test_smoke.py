"""Smoke run of the benchmark at a tiny size.

Asserts only on oracle agreement and on counts, never on time:

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

ENV = run.use_checkout_sources()

import workloads  # noqa: E402
from spans import Tracer, Untraced  # noqa: E402


def make(name, tmp_path):
    return workloads.make(name, ENV, tmp_path / "work", run.CONFIG["property_layers"])


def small_ops(w, seed):
    ops = w.trace_ops(seed)
    if w.name == "decompose":
        ops = [c for c in ops if c.k <= 8]
    return [(op, w.prepare(op)) for op in ops[:18]]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.CONFIG["workloads"])


@pytest.mark.parametrize("name", ["decompose", "fuzz", "cli"])
def test_ops_agree_with_oracles_and_counts_repeat(name, tmp_path):
    w = make(name, tmp_path)
    try:
        w.setup(3)
        fixed = small_ops(w, 3)
        _, outs, counts, failures = run._one_pass(w, fixed, Untraced())
        tracer = Tracer()
        with w.tracing(tracer):
            _, _, traced_counts, traced_failures = run._one_pass(w, fixed, tracer)
        assert failures == traced_failures == []
        assert counts == traced_counts
        assert counts["trace.ops"] == len(fixed)
        assert w.layer_pass(fixed, outs, tracer) == []
        assert tracer.self_times()
    finally:
        w.close()


def test_decompose_counts_are_exact(tmp_path):
    w = make("decompose", tmp_path)
    fixed = small_ops(w, 5)
    _, _, counts, _ = run._one_pass(w, fixed, Untraced())
    assert counts["partial.sets_enumerated"] == sum(4 << c.k for c, _ in fixed)
    assert counts["partial.f_plus_size"] == sum(1 << c.n_ge0 for c, _ in fixed)
    for case, _ in fixed:
        if case.shape == "nonneg":
            assert case.n_ge0 == case.k


def test_checks_reject_a_wrong_answer(tmp_path):
    w = make("decompose", tmp_path)
    case, prepared = small_ops(w, 7)[0]
    out = list(w.run(prepared, Untraced()))
    assert w.check(case, prepared, tuple(out)) == []
    out[4] = not out[4]  # flip check_minimality plus
    assert w.check(case, prepared, tuple(out))

    c = make("cli", tmp_path)
    c.setup(7)
    try:
        op = ("jordan", 5, 0)
        prepared = c.prepare(op)
        code, stdout, stderr = c.run(prepared, Untraced())
        assert c.check(op, prepared, (code, stdout, stderr)) == []
        assert c.check(op, prepared, (code, stdout.replace(b'"0"', b'"1"'), stderr))
        assert c.check(op, prepared, (1, stdout, stderr))
    finally:
        c.close()


def test_inputs_depend_only_on_the_seed():
    assert gen.decompose_block(1, 0) == gen.decompose_block(1, 0)
    assert gen.decompose_block(1, 0) != gen.decompose_block(2, 0)
    assert gen.cli_group(1, 5) == gen.cli_group(1, 5)
    assert gen.cli_block(1, 3) == gen.cli_block(1, 3)
    assert gen.fuzz_seeds(1, 0, 4) != gen.fuzz_seeds(2, 0, 4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
