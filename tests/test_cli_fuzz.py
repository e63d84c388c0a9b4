"""CLI fuzzing: any flag, config value and corpus bytes give an answer or one error line."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from termspace import BIAS_MODES, MEASURES
from termspace.cli import _CONFIG_KEYS, main

COMMANDS = ("index", "query", "snippets", "context", "cluster", "shade", "pipeline")


def mostly(common, rare):
    """``common`` three draws in four, else ``rare``."""
    return st.sampled_from((common, common, common, rare)).flatmap(lambda strategy: strategy)


def json_bytes(value) -> bytes:
    return json.dumps(value).encode("utf-8")


# No "/" or ".", so a drawn path (``out``, ``stopwords``, a file name) stays
# inside the run's scratch directory.
SAFE_TEXT = st.text(alphabet="ab rock\t\n0é-", max_size=6)
VOCABULARY = st.sampled_from(("rock", "trail", "rain", "the", "Rock", "é", "0"))
WORDS = st.lists(VOCABULARY, max_size=8).map(" ".join)
TERMS = mostly(st.lists(VOCABULARY, min_size=1, max_size=2).map(" ".join), SAFE_TEXT)

JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from((10**400, -(10**400))),
        st.floats(allow_nan=True, allow_infinity=True),
        SAFE_TEXT,
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SAFE_TEXT, inner, max_size=3),
    max_leaves=4,
)
# Mostly valid values, so that most runs get past the config check and
# into the stages; one key at a time may instead get any JSON value.
PLAUSIBLE = {
    "format": st.sampled_from(("txt_dir", "jsonl", "", "csv")),
    "window": st.integers(0, 12),
    "limit": st.integers(0, 4),
    "stopwords": st.sampled_from(("stopwords", "absent", "")),
    "alpha": st.sampled_from(("0", "1/4", "0.5", "2", "1/0", "1e-3", "")) | st.floats(0, 3) | st.integers(0, 3),
    "measure": st.sampled_from((*MEASURES, "", "cosine")),
    "bias_mode": st.sampled_from((*BIAS_MODES, "", "scaled")),
    "bias_magnitude": st.floats(0, 10) | st.integers(0, 5),
    "seed": st.integers(),
    "out": SAFE_TEXT,
}
CONFIGS = st.builds(
    lambda config, wild: config if wild is None else {**config, wild[0]: wild[1]},
    st.fixed_dictionaries({}, optional=PLAUSIBLE),
    mostly(st.none(), st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), JSON_VALUES)),
)

# Mostly no extra flag, so that most runs reach the stages; else one
# option, or one no parser knows, with a value that may not suit it.
FLAGS = mostly(
    st.just(()),
    st.tuples(
        st.sampled_from(("--corpus", "--format", "--window", "--limit", "--stopwords", "--alpha", "--measure",
                         "--bias-mode", "--bias-magnitude", "--seed", "--out", "--config", "--bogus")),
        SAFE_TEXT | st.sampled_from(("2", "0.5", "jsonl", "jaccard", "additive")),
    ),
)

DOC_BYTES = mostly(WORDS.map(lambda s: s.encode("utf-8")), st.binary(max_size=24))
JSONL_LINES = mostly(
    st.fixed_dictionaries({"id": SAFE_TEXT, "text": WORDS}).map(json_bytes),
    (JSON_VALUES | st.fixed_dictionaries({"id": JSON_VALUES, "text": JSON_VALUES})).map(json_bytes)
    | st.binary(max_size=24),
)
CORPORA = st.one_of(
    st.tuples(st.just("txt_dir"), st.dictionaries(SAFE_TEXT.filter(bool), DOC_BYTES, max_size=4)),
    st.tuples(st.just("jsonl"), st.lists(JSONL_LINES, max_size=4).map(b"\n".join)),
)


def write_corpus(root: Path, layout: str, content) -> Path:
    if layout == "jsonl":
        path = root / "corpus.jsonl"
        path.write_bytes(content)
        return path
    path = root / "corpus"
    path.mkdir()
    for name, data in content.items():
        (path / f"{name}.txt").write_bytes(data)
    return path


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    command=st.sampled_from(COMMANDS),
    config=CONFIGS,
    corpus=CORPORA,
    corpus_flag=st.booleans(),
    stopwords=DOC_BYTES,
    terms=st.lists(TERMS, min_size=1, max_size=3),
    flag=FLAGS,
)
def test_every_run_answers_or_fails_with_one_error_line(command, config, corpus, corpus_flag, stopwords, terms, flag):
    layout, content = corpus
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = write_corpus(root, layout, content)
        (root / "stopwords").write_bytes(stopwords)
        if not corpus_flag:
            config.setdefault("corpus", str(path))
        (root / "run.json").write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(root / "run.json")]
        if corpus_flag:
            argv += ["--corpus", str(path)]
        if layout == "jsonl":
            argv += ["--format", "jsonl"]
        argv += flag
        if command != "index":
            argv += ["--", *(terms if command == "query" else terms[:1])]
        out, err = io.StringIO(), io.StringIO()
        os.chdir(root)  # relative ``out`` and ``stopwords`` paths resolve in the scratch directory
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code == 1, argv
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
