"""The measured side of the benchmark: one workload in a fresh process.

Run as ``python3 bench/workloads.py SPEC.json RESULT.json``; ``run.py``
writes the spec and the corpus before it starts this process, so corpus
generation stays out of the set-up time and the peak RSS measured here.

Every workload is a closed loop with one caller on one thread: the next
operation starts when the previous one has returned. The loop runs
whole rounds of the workload's fixed op list until the time is up, so
every run does the same mix of work. Answers are checked outside the
timed region; the oracle comparison happens in ``run.py``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from termspace import cli, engine, jsonio, snippets  # noqa: E402

import spans  # noqa: E402

# Set-up runs SETUPS times, or more often when that fits in SETUP_S at the
# first set-up's speed, so a cheap set-up still gives a steady median.
SETUPS = 5
SETUP_S = 1.0


def bundle_digest(directory: Path, names: list[str]) -> tuple[str, int]:
    """SHA-256 over the named files' names and bytes, and their total size."""
    digest = hashlib.sha256()
    size = 0
    for name in sorted(names):
        data = (directory / name).read_bytes()
        size += len(data)
        digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest(), size


class Workload:
    """A fixed op list over one corpus; subclasses define the ops and checks."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.index = None
        self.names: list[str] = []
        self.tracer: spans.Tracer | None = None

    def setup(self) -> None:
        self.index = engine.build_index(engine.load_corpus(self.spec["corpus"], "jsonl"))

    def prepare(self, i: int) -> None:
        """Untimed work before op ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def key(self, i: int, out) -> object:
        """A cheap value that equal answers share, for the cross-round check."""
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """Untimed check of one answer; returns a failure message or None."""
        return None

    def answer(self, i: int, out):
        """JSON form of an answer the oracle re-checks in ``run.py``."""
        return None


class PipelineWorkload(Workload):
    """``termspace pipeline`` through ``cli.main``, one command per planted term."""

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        self.terms = spec["pipeline"]["terms"]
        self.names = [t["term"] for t in self.terms]
        self.out = Path(spec["workdir"]) / "bundles"
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        super().setup()
        self.index = None  # every pipeline command loads and indexes the corpus itself

    def _argv(self, i: int) -> list[str]:
        p = self.spec["pipeline"]
        return [
            "pipeline", "--corpus", self.spec["corpus"], "--format", "jsonl",
            "--window", str(p["window"]), "--limit", str(p["limit"]), "--alpha", p["alpha"],
            "--out", str(self.out / self.names[i]), self.names[i],
        ]

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.out / self.names[i], ignore_errors=True)

    def op(self, i: int):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(self._argv(i))
        return code, stdout.getvalue()

    def check(self, i: int, out) -> str | None:
        code, stdout = out
        term = self.names[i]
        if code != 0:
            return f"{term}: exit code {code}"
        report = json.loads(stdout)
        if report["theorem_check"] is not True:
            return f"{term}: theorem_check is {report['theorem_check']}"
        expected = self.terms[i]["snippets"]
        if report["stages"]["snippets"]["count"] != expected:
            return f"{term}: {report['stages']['snippets']['count']} snippets, planted {expected}"
        bundle = self.out / term
        on_disk = sorted(p.name for p in bundle.iterdir())
        if on_disk != sorted(report["artifacts"]):
            return f"{term}: bundle holds {on_disk}, report lists {report['artifacts']}"
        if (bundle / "report.json").read_text(encoding="utf-8") != stdout:
            return f"{term}: report.json differs from the printed report"
        digest, size = bundle_digest(bundle, on_disk)
        if self.tracer is not None:
            self.tracer.add("cli.bundle_bytes", size)
        if self.digests.setdefault(term, digest) != digest:
            return f"{term}: bundle digest changed between repeats"
        return None

    def key(self, i: int, out) -> object:
        return out


class QueryWorkload(Workload):
    """A library caller: one index, then a seeded stream of ``query`` commands' work."""

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        self.queries = spec["queries"]
        self.names = [q["kind"] for q in self.queries]
        self.biases = [engine.BiasConfig(**q["bias"]) for q in self.queries]

    def op(self, i: int):
        # The calls ``cli.cmd_query`` makes after loading its index.
        bias = self.biases[i]
        terms = [engine.Term.parse(raw) for raw in self.queries[i]["terms"]]
        if len(terms) == 1:
            events = [engine.singleton(self.index, terms[0])]
        else:
            both = engine.doubleton(self.index, terms[0], terms[1])
            events = [engine.singleton(self.index, t) for t in terms] + [both]
        return events, [engine.hit_count(e, bias) for e in events]

    def key(self, i: int, out) -> object:
        events, counts = out
        return tuple(counts), tuple((e.cardinality, hash(e.doc_ids)) for e in events)

    def answer(self, i: int, out):
        events, counts = out
        return {"events": [sorted(e.doc_ids) for e in events], "counts": counts}


class IngestWorkload(Workload):
    """Snippet lists rendered to JSON for a mix of head and tail words."""

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        self.names = spec["snippets"]["terms"]

    def op(self, i: int):
        s = self.spec["snippets"]
        snippet_list = snippets.extract_snippets(self.index, self.names[i], s["window"], s["limit"])
        return jsonio.dump_json(snippets.snippets_to_dict(snippet_list))

    def key(self, i: int, out) -> object:
        return hash(out)

    def answer(self, i: int, out):
        return out


WORKLOADS = {
    "pipeline-zipf": PipelineWorkload,
    "query-mix": QueryWorkload,
    "ingest-snippets": IngestWorkload,
}


class Loop:
    """Runs whole rounds of a workload's ops and keeps timings and failures."""

    def __init__(self, workload: Workload, sample: set[int]) -> None:
        self.wl = workload
        self.sample = sample
        self.op_s: list[float] = []
        self.round_s: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.first_key: dict[int, object] = {}
        self.same_as_first: dict[int, int] = {}
        self.answers: dict[int, object] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def run(self, seconds: float, tracer: spans.Tracer | None = None, between=None) -> None:
        """Run whole rounds for ``seconds``; ``between(elapsed)`` runs after
        each round, and its own time does not count towards ``seconds``."""
        wl, n = self.wl, len(self.wl.names)
        wl.tracer = tracer
        start = perf_counter()
        paused = 0.0
        while not self.round_s or perf_counter() - start - paused < seconds:
            r = len(self.round_s)
            round_s = 0.0
            for i in range(n):
                wl.prepare(i)
                if tracer is not None:
                    tracer.begin("bench.op", op=f"r{r}:{i}")
                t0 = perf_counter()
                try:
                    out, error = wl.op(i), None
                except Exception as exc:  # a raising op is a failed op, not a crash
                    out, error = None, f"{wl.names[i]}: {type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.end()
                round_s += elapsed
                self.op_s.append(elapsed)
                if error is None:
                    error = self._check(i, out)
                if error is not None:
                    self.fail(error)
            self.round_s.append(round_s)
            if between is not None:
                t0 = perf_counter()
                between(t0 - start - paused)
                paused += perf_counter() - t0

    def _check(self, i: int, out) -> str | None:
        error = self.wl.check(i, out)
        if error is not None:
            return error
        key = self.wl.key(i, out)
        if i not in self.first_key:
            self.first_key[i] = key
            if i in self.sample:
                self.answers[i] = self.wl.answer(i, out)
        if key != self.first_key[i]:
            return f"{self.wl.names[i]}: answer changed between repeats"
        self.same_as_first[i] = self.same_as_first.get(i, 0) + 1
        return None


def timed_setup(wl: Workload, tracer: spans.Tracer | None = None, n: int = 0) -> float:
    wl.index = None
    gc.collect()
    if tracer is not None:
        tracer.begin("bench.setup", op=f"s{n}")
    t0 = perf_counter()
    wl.setup()
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.end()
    return elapsed


def timed_setups(wl: Workload, tracer: spans.Tracer) -> list[float]:
    """Set-ups one after another, for the traced phase."""
    times: list[float] = []
    while len(times) < SETUPS or sum(times) < SETUP_S:
        times.append(timed_setup(wl, tracer, len(times)))
    return times


def setups_and_rounds(wl: Workload, loop: Loop, seconds: float) -> list[float]:
    """Run rounds for ``seconds`` with the set-ups spread evenly between them.

    The host's speed drifts over seconds, so set-ups made one after another
    would sample one moment of the run; spread out, their median samples
    all of it. Set-up time does not count towards ``seconds``.
    """
    times = [timed_setup(wl)]
    n = max(SETUPS, math.ceil(SETUP_S / times[0]))

    def between(elapsed: float) -> None:
        if len(times) < n and elapsed >= len(times) * seconds / n:
            times.append(timed_setup(wl))

    loop.run(seconds, between=between)
    return times


def layer_metrics(tracer: spans.Tracer, untraced_round_s: list[float], ops_per_round: int) -> dict:
    """Reduce the traced phase to per-layer numbers for one set-up plus one round.

    Times are self times; a layer's value is its mean per traced set-up
    plus its mean per traced round, and so is a count. Ratios are taken
    over the whole traced phase.
    """
    by_op = spans.per_op(tracer.spans)
    walls = spans.op_walls(tracer.spans)
    setups = sorted({op for op in by_op if op.startswith("s")})
    rounds = sorted({op.split(":")[0] for op in by_op if op.startswith("r")})
    sums: dict[str, Counter] = {"s": Counter(), "r": Counter()}
    for op, times in by_op.items():
        sums[op[0]].update({f"{name}_s": t for name, t in times.items()})
        sums[op[0]].update(tracer.counts.get(op, {}))
    totals: dict[str, float] = {}
    for group, n in (("s", len(setups)), ("r", len(rounds))):
        for name, value in sums[group].items():
            totals[name] = totals.get(name, 0) + value / n

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    traced_round = sum(w for op, w in walls.items() if op.startswith("r")) / len(rounds)
    totals.update(
        {
            "engine.phrase_hit_ratio": ratio("engine.phrase_hits", "engine.phrase_candidates"),
            "microcluster.retained_edge_ratio": ratio("microcluster.retained_edges", "microcluster.edges"),
            "bench.self_s": sum(totals.get(f"bench.{part}_s", 0.0) for part in ("op", "setup", "count")),
            "trace.setup_s": sum(w for op, w in walls.items() if op.startswith("s")) / len(setups),
            "trace.round_s": traced_round,
            "trace.round_ops": ops_per_round,
            "trace.overhead_ratio": traced_round / statistics.fmean(untraced_round_s) - 1.0,
        }
    )
    return totals


def run(spec: dict) -> dict:
    wl = WORKLOADS[spec["workload"]](spec)
    loop = Loop(wl, set(spec.get("sample", ())))
    seconds = spec["seconds"]
    result: dict = {"ops_per_round": len(wl.names)}
    if not spec["trace"]:
        result["setup_s"] = setups_and_rounds(wl, loop, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            result["setup_s"] = timed_setups(wl, tracer)
        finally:
            tracer.uninstall()
        loop.run(seconds / 2)
        untraced, loop.round_s = loop.round_s, []
        tracer.install()
        try:
            loop.run(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer, untraced, len(wl.names))
        loop.round_s = untraced + loop.round_s
        if spec.get("spans"):
            tracer.write(Path(spec["spans"]))
    result.update(
        op_s=loop.op_s,
        rounds=len(loop.round_s),
        attempted=len(loop.op_s),
        failed=loop.failed,
        errors=loop.errors,
        answers={str(i): a for i, a in loop.answers.items()},
        same_as_first={str(i): n for i, n in loop.same_as_first.items()},
        digests=getattr(wl, "digests", {}),
    )
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
