"""Tests of the benchmark itself: smoke runs, span reduction, failure counting.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from termspace import cli, engine  # noqa: E402


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def tiny_spec(tmp_path: Path, workload: str, seed: int = 5) -> tuple[dict, list]:
    pairs, ops = corpus.generate(workload, seed, "tiny", tmp_path / "corpus.jsonl")
    spec = {**ops, "workload": workload, "corpus": str(tmp_path / "corpus.jsonl"),
            "workdir": str(tmp_path), "seconds": 0.05, "trace": 0, "spans": None}
    return spec, pairs


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_metric_with_its_unit_and_no_failures(workload, trace):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.declared_metrics("per_layer" if trace == "1" else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs_and_bundle_digests(tmp_path):
    first = corpus.generate("query-mix", 9, "tiny", tmp_path / "a.jsonl")
    second = corpus.generate("query-mix", 9, "tiny", tmp_path / "b.jsonl")
    assert first == second
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    digests = []
    for _ in range(2):
        proc = bench_run("--workload", "pipeline-zipf", "--seed", "4", "--seconds", "0.1",
                         "--trace", "0", "--scale", "tiny")
        digests.append([line for line in proc.stdout.splitlines() if line.startswith("digest ")])
    assert digests[0] and digests[0] == digests[1]


def test_self_times_are_non_negative_and_sum_to_op_wall_time(tmp_path):
    spec, _ = tiny_spec(tmp_path, "pipeline-zipf")
    wl = workloads.PipelineWorkload(spec)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i in range(len(wl.names)):
            tracer.begin("bench.op", op=f"r0:{i}")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(wl._argv(i)) == 0
            tracer.end()
    finally:
        tracer.uninstall()
    assert cli.build_word_graph.__name__ == "build_word_graph"
    assert not hasattr(cli.build_word_graph, "__wrapped__")  # uninstall restored it
    own = spans.self_times(tracer.spans)
    assert min(own) >= -1e-12
    walls = spans.op_walls(tracer.spans)
    by_op = spans.per_op(tracer.spans)
    assert set(walls) == {f"r0:{i}" for i in range(len(wl.names))}
    for op, wall in walls.items():
        assert sum(by_op[op].values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
        for layer in ("triplet.context", "microcluster.graph", "engine.singleton", "cli.write", "bench.count"):
            assert by_op[op][layer] > 0


def test_self_time_excludes_overlapping_children_once():
    tree = [
        ["root", 0.0, 10.0, -1, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["b", 3.0, 6.0, 0, "op"],  # overlaps a: covered is 1..6, not 3 + 3
        ["c", 1.5, 2.0, 1, "op"],
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_wrong_query_answer_counts_as_failed(tmp_path, monkeypatch):
    spec, pairs = tiny_spec(tmp_path, "query-mix")
    original = engine.singleton

    def drops_a_document(index, term):
        event = original(index, term)
        return engine.EventSet(frozenset(sorted(event.doc_ids)[1:]))

    monkeypatch.setattr(engine, "singleton", drops_a_document)
    result = workloads.run(spec)
    assert result["failed"] == 0  # the answers are consistent between repeats
    failed, messages = checks.oracle_failures(ROOT, "query-mix", pairs, spec, result)
    assert failed >= 1 and messages


def test_wrong_snippet_answer_counts_as_failed(tmp_path):
    spec, pairs = tiny_spec(tmp_path, "ingest-snippets")
    result = workloads.run(spec)
    assert checks.oracle_failures(ROOT, "ingest-snippets", pairs, spec, result)[0] == 0
    key = next(k for k, text in result["answers"].items() if json.loads(text)["snippets"])
    wrong = json.loads(result["answers"][key])
    wrong["snippets"][0]["words"] = wrong["snippets"][0]["words"][1:]
    result["answers"][key] = json.dumps(wrong)
    failed, _ = checks.oracle_failures(ROOT, "ingest-snippets", pairs, spec, result)
    assert failed == result["same_as_first"][key] >= 1


def test_failed_theorem_check_fails_every_pipeline_op(tmp_path, monkeypatch):
    spec, _ = tiny_spec(tmp_path, "pipeline-zipf")
    monkeypatch.setattr(cli, "verify_theorem", lambda tree, mc, index: False)
    result = workloads.run(spec)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench_run("--workload", "query-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
