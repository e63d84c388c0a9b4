"""termspace benchmark: one workload, one seed, one fresh measured process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pipeline-zipf --seed 1 --seconds 15 --trace 0

The corpus and the workload's op list are generated from ``--seed`` and
written to ``.bench_run/`` first; then ``bench/workloads.py`` runs the
workload in a new process, and this process checks the sampled answers
against the repository's brute-force oracles. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``). See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_run"


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name to unit, as ``BENCHMARK.json`` declares them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=tuple(corpus.SCALES),
                        help="corpus size; 'tiny' is the smoke-test size")
    return parser.parse_args(argv)


def layout_error() -> str | None:
    for needed in ("BENCHMARK.json", "src/termspace/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}; run from a termspace checkout"
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict) -> dict[str, float]:
    op_s = result["op_s"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": percentile(op_s, 0.90) * 1e3,
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict, list]:
    """Generate the inputs, run the workload process, return its result."""
    pairs, ops = corpus.generate(args.workload, args.seed, args.scale, workdir / "corpus.jsonl")
    spec = {
        **ops,
        "workload": args.workload,
        "corpus": str(workdir / "corpus.jsonl"),
        "workdir": str(workdir),
        "seconds": args.seconds,
        "trace": args.trace,
        "spans": str(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl") if args.trace else None,
    }
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # Set-ups, the last round's overrun and a traced run's overhead come on top of --seconds.
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), str(spec_path), str(result_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=args.seconds + 120, env={**os.environ, "PYTHONHASHSEED": str(args.seed % 2**32)},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8")), spec, pairs


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    problem = layout_error()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, spec, pairs = measure(args, workdir)
        extra_failed, messages = checks.oracle_failures(ROOT, args.workload, pairs, spec, result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = result["failed"] + extra_failed
    for message in result["errors"] + messages:
        print(f"failed: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops in "
          f"{result['rounds']} rounds of {result['ops_per_round']}, "
          f"{len(result['setup_s'])} set-ups, {failed} failed")
    for term, digest in sorted(result["digests"].items()):
        print(f"digest {term} {digest}")
    if args.trace:
        values, units = result["layers"], declared_metrics("per_layer")
    else:
        values, units = end_to_end(result), declared_metrics("end_to_end")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
