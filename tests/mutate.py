"""Mutation run over ``src/termspace``: would some test notice each small change to the code?

Each mutant is one change to one module, made on its syntax tree and
written back by ``ast.unparse``. It is tested alone: ``pytest -x`` runs the
module's test files (``TEST_FILES``) against a copy of the package that
carries it. A failing run kills the mutant, and so does a run past the
timeout; a mutant that every test passes survives. Two families of
operators, neither applied to a type annotation:

- ``removal``, inside every function: a statement becomes ``pass`` (never a
  docstring); an ``if``, ``while`` or conditional-expression test becomes
  ``True``, and in a second mutant ``False``; one operand of an ``and`` or
  ``or`` is dropped.
- ``swap``, anywhere in the module: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``, ``+``/``-``, ``&``/``|``, ``<<``/``>>``
  and ``and``/``or`` are exchanged, a ``not`` is dropped, and 1 is added to
  an int constant.

Before the mutants, each module's unmutated source, written back the same
way, must pass its test files; the timeout is four times that run plus 30
seconds. One JSON line per mutant goes to stdout (module, line, column,
operator, the code it changes, status and seconds), and the counts per
module to stderr. Stdlib only; pytest does not collect this file. For
example::

    python tests/mutate.py --family removal --jobs 2 > removal.jsonl
    python tests/mutate.py --family swap --module snippets
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = {
    "engine": ["test_engine", "test_snippets", "test_cli", "test_acceptance"],
    "microcluster": ["test_microcluster", "test_exports", "test_cli", "test_acceptance"],
    "cli": ["test_cli", "test_cli_fuzz", "test_acceptance"],
    "snippets": ["test_snippets", "test_triplet", "test_cli", "test_acceptance"],
    "triplet": ["test_triplet", "test_cli", "test_acceptance"],
    "jsonio": ["test_exports", "test_cli"],
}
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
}


def mutations(tree: ast.Module, family: str) -> list[tuple[ast.AST, str, object]]:
    """``(node, operator, apply)`` for each mutant of ``tree``, in a fixed order; ``apply()`` edits ``tree``."""
    found = []

    def add(node, operator, setter, new):
        found.append((node, operator, lambda: setter(new)))

    def visit(node: ast.AST, replace, in_function: bool) -> None:  # ``replace(new)`` puts ``new`` where ``node`` is
        bare = isinstance(node, ast.Pass) or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if family == "removal" and in_function and isinstance(node, ast.stmt) and not bare:  # nor a docstring
            add(node, "statement->pass", replace, ast.Pass())
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if family == "removal" and in_function:
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                for value in (True, False):
                    add(node.test, f"test->{value}", lambda new, n=node: setattr(n, "test", new), ast.Constant(value))
            if isinstance(node, ast.BoolOp):
                for i, operand in enumerate(node.values):
                    rest = node.values[:i] + node.values[i + 1 :]
                    add(operand, "drop-operand", replace, rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest))
        if family == "swap":
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                add(node, "drop-not", replace, node.operand)
            for i, op in enumerate(node.ops if isinstance(node, ast.Compare) else ()):
                if type(op) in SWAPS:
                    name = f"{type(op).__name__}->{SWAPS[type(op)].__name__}"
                    add(node, name, lambda new, n=node, i=i: n.ops.__setitem__(i, new), SWAPS[type(op)]())
            if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
                name = f"{type(node.op).__name__}->{SWAPS[type(node.op)].__name__}"
                add(node, name, lambda new, n=node: setattr(n, "op", new), SWAPS[type(node.op)]())
            if isinstance(node, ast.Constant) and type(node.value) is int:
                add(node, "int+1", replace, ast.Constant(node.value + 1))
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                visit(value, lambda new, n=node, name=name: setattr(n, name, new), in_function)
            for i, child in enumerate(value if isinstance(value, list) else ()):
                if isinstance(child, ast.AST):
                    visit(child, lambda new, v=value, i=i: v.__setitem__(i, new), in_function)

    visit(tree, None, False)
    return found


def mutants(module: str, family: str) -> list[tuple[dict, str]]:
    """Each mutant of ``module``: its record and its source."""
    source = (ROOT / "src" / "termspace" / f"{module}.py").read_text(encoding="utf-8")
    out = []
    for k, (node, operator, _) in enumerate(mutations(ast.parse(source), family)):
        tree = ast.parse(source)  # a fresh tree, whose k-th mutation is this one
        mutations(tree, family)[k][2]()
        record = {"module": module, "line": node.lineno, "col": node.col_offset, "operator": operator,
                  "code": ast.unparse(node)[:100]}
        out.append((record, ast.unparse(tree)))
    return out


def run_tests(workdir: Path, module: str, source: str, timeout: float | None) -> tuple[str, float]:
    """Run ``module``'s test files with ``source`` in place of it: ``killed``, ``timeout`` or ``survived``."""
    target = workdir / "src" / "termspace" / f"{module}.py"
    original = target.read_text(encoding="utf-8")
    target.write_text(source, encoding="utf-8")
    tests = [f"tests/{name}.py" for name in TEST_FILES[module]]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        status = "survived" if proc.wait(timeout=timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):  # gone already
            os.killpg(proc.pid, signal.SIGKILL)  # the test run and any process it started
        proc.wait()
        status = "timeout"
    finally:
        target.write_text(original, encoding="utf-8")
        shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)  # no example found on one mutant replays on the next
    return status, round(time.perf_counter() - start, 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", choices=("removal", "swap"), default="removal")
    parser.add_argument("--module", action="append", choices=sorted(TEST_FILES), help="default: all six")
    parser.add_argument("--jobs", type=int, default=1, help="test runs at once")
    args = parser.parse_args(argv)
    modules = args.module or list(TEST_FILES)
    todo = [(record, source) for module in modules for record, source in mutants(module, args.family)]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdirs: queue.Queue[Path] = queue.Queue()
        for j in range(args.jobs):
            workdir = Path(tmp) / str(j)
            shutil.copytree(ROOT / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            shutil.copytree(ROOT / "tests", workdir / "tests", ignore=shutil.ignore_patterns("__pycache__"))
            for name in ("pyproject.toml", "README.md"):
                shutil.copy(ROOT / name, workdir / name)
            workdirs.put(workdir)

        def run(module: str, source: str, timeout: float | None) -> tuple[str, float]:
            workdir = workdirs.get()
            try:
                return run_tests(workdir, module, source, timeout)
            finally:
                workdirs.put(workdir)

        timeouts = {}
        for module in sorted({record["module"] for record, _ in todo}):
            text = (ROOT / "src" / "termspace" / f"{module}.py").read_text(encoding="utf-8")
            status, seconds = run(module, ast.unparse(ast.parse(text)), None)
            if status != "survived":
                print(f"{module}: the unmutated source fails its tests; no mutant is run", file=sys.stderr)
                return 2
            timeouts[module] = 4 * seconds + 30
        counts: dict[str, Counter] = {module: Counter() for module in modules}
        with ThreadPoolExecutor(args.jobs) as pool:
            results = pool.map(lambda item: run(item[0]["module"], item[1], timeouts[item[0]["module"]]), todo)
            for (record, _), (status, seconds) in zip(todo, results):
                counts[record["module"]][status] += 1
                print(json.dumps({**record, "status": status, "seconds": seconds}), flush=True)
    for module, count in counts.items():
        print(f"{module}: {sum(count.values())} mutants, {count['killed']} killed, "
              f"{count['timeout']} timed out, {count['survived']} survived", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
