"""CLI behavior: exit codes, JSON output, config merging, artifact bundles."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from termspace import cli
from termspace.cli import _CONFIG_KEYS, build_parser, main, resolve_config
from termspace.microcluster import build_word_graph, optimal_micro_cluster

from conftest import random_corpus, random_present_term
from oracles import (
    brute_context,
    brute_singleton,
    pipeline_bundle,
    query_text,
    window_snippets,
)

FIXTURE = {
    "d0": "rock anthem with a loud rock chorus",
    "d1": "quiet ballad about rain",
    "d2": "rock and gravel on the trail",
    "d3": "gravel voice singing rock",
    "d4": "rain on the rock face",
    "d5": "trail mix and a long walk",
    "d6": "loud chorus quiet verse",
    "d7": "the rock face route",
    "d8": "ballad of the trail",
    "d9": "rock rock rock",
}


def write_corpus(tmp_path, docs, name="corpus"):
    directory = tmp_path / name
    directory.mkdir(exist_ok=True)
    for doc_id, text in docs.items():
        (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    return directory


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestIndexCommand:
    def test_empty_directory(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert code == 0
        assert json.loads(out) == {"documents": 0, "unique_tokens": 0, "total_tokens": 0}
        assert err == ""

    def test_two_doc_fixture(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, {"a": "one two", "b": "two three four"})
        code, out, _ = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert code == 0
        assert json.loads(out) == {"documents": 2, "unique_tokens": 4, "total_tokens": 5}

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        _, first, _ = run_cli(capsys, ["index", "--corpus", str(corpus)])
        _, second, _ = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert first == second

    def test_jsonl_format(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "one two"}\n', encoding="utf-8")
        code, out, _ = run_cli(capsys, ["index", "--corpus", str(path), "--format", "jsonl"])
        assert code == 0
        assert json.loads(out)["documents"] == 1

    def test_malformed_jsonl_reports_line(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(path), "--format", "jsonl"])
        assert code == 1
        assert out == ""
        assert ":2:" in err

    def test_undecodable_txt_file_is_one_error_line_naming_it(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        (corpus / "bad.txt").write_bytes(b"rock\ngravel \xff\xfe")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert (code, out) == (1, "")
        assert err == f"error: {corpus / 'bad.txt'}:2: corpus file is not UTF-8 (invalid start byte at byte 12)\n"

    def test_undecodable_jsonl_line_is_one_error_line_naming_it(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x"}\n{"id": "b", "text": "\xff"}\n')
        code, out, err = run_cli(capsys, ["index", "--corpus", str(path), "--format", "jsonl"])
        assert (code, out) == (1, "")
        assert err == f"error: {path}:2: corpus file is not UTF-8 (invalid start byte at byte 46)\n"

    @pytest.mark.parametrize("key", ["id", "text"])
    @pytest.mark.parametrize("value", [None, 7, True, ["none"], {"none": "none"}])
    def test_jsonl_value_that_is_not_a_string_is_one_error_line(self, tmp_path, capsys, key, value):
        path = tmp_path / "docs.jsonl"
        record = {"id": "a", "text": "none", key: value}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["query", "--corpus", str(path), "--format", "jsonl", "none"])
        assert (code, out) == (1, "")
        assert err.startswith(f'error: {path}:1: "{key}" must be a string, got ') and err.count("\n") == 1

    # Valid JSON that ``json.loads`` cannot decode: nested too deeply, or a number with too many digits.
    @pytest.mark.parametrize(
        "record",
        ["[" * 100000, '{"id": "b", "text": "x", "n": %s}' % ("9" * 5000)],
        ids=["deep", "long_number"],
    )
    def test_undecodable_jsonl_record_is_one_error_line_naming_it(self, tmp_path, capsys, record):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + record + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(path), "--format", "jsonl"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:2: invalid JSON: ") and err.count("\n") == 1

    def test_repeated_jsonl_id_is_one_error_line_naming_file_and_lines(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        records = ['{"id": "d1", "text": "a"}', '{"id": "d2", "text": "b"}', "", '{"id": "d1", "text": "c"}']
        path.write_text("\n".join(records) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(path), "--format", "jsonl"])
        assert (code, out) == (1, "")
        assert err == f"error: {path}:4: duplicate document id 'd1' (first on line 1)\n"

    @pytest.mark.parametrize("flag, kind", [("--corpus", "corpus file"), ("--config", "config file")])
    def test_missing_jsonl_file_is_one_error_line_naming_it(self, tmp_path, capsys, flag, kind):
        path = tmp_path / "absent.jsonl"
        code, out, err = run_cli(capsys, ["index", flag, str(path), "--format", "jsonl"])
        assert (code, out, err) == (1, "", f"error: {kind} not found: {path}\n")

    def test_error_naming_a_path_with_a_newline_is_one_line(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        (corpus / "two\nlines.txt").write_bytes(b"\xff")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert (code, out) == (1, "")
        name = str(corpus / "two\nlines.txt").replace("\n", "\\n")
        assert err == f"error: {name}:1: corpus file is not UTF-8 (invalid start byte at byte 0)\n"

    def test_subdirectory_of_the_corpus_is_not_a_document(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, {"d0": "rock on the rock"})
        (corpus / "sub.txt").mkdir()
        (corpus / "sub.txt" / "d1.txt").write_text("rain", encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"documents": 1, "unique_tokens": 3, "total_tokens": 4}

    def test_fifo_in_the_corpus_is_not_a_document(self, tmp_path):
        # Opening a FIFO waits for a writer, so the command runs in a subprocess whose timeout fails the test.
        corpus = write_corpus(tmp_path, {"d0": "rock on the rock"})
        os.mkfifo(corpus / "p.txt")
        result = subprocess.run(
            [sys.executable, "-m", "termspace", "index", "--corpus", str(corpus)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == {"documents": 1, "unique_tokens": 3, "total_tokens": 4}

    def test_broken_link_in_the_corpus_is_one_error_line_naming_it(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, {"d0": "rock on the rock"})
        (corpus / "gone.txt").symlink_to(tmp_path / "absent.txt")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert (code, out, err) == (1, "", f"error: corpus file not found: {corpus / 'gone.txt'}\n")

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["index", "--corpus", "{dir}"], "corpus file"),
            (["index", "--format", "jsonl", "--corpus", "{loop}"], "corpus file"),
            (["context", "--corpus", "{dir}", "--config", "{loop}", "rock"], "config file"),
            (["context", "--corpus", "{dir}", "--stopwords", "{loop}", "rock"], "stopwords file"),
        ],
        ids=["index-corpus-entry", "index-jsonl-corpus", "context-config", "context-stopwords"],
    )
    def test_symlink_loop_is_one_error_line_naming_its_kind(self, tmp_path, capsys, argv, kind):
        # A file the system refuses to read for another reason, such as EACCES, takes the same message;
        # it is not tested, since the superuser reads a file whatever its permissions.
        corpus = write_corpus(tmp_path, FIXTURE)
        loop = (tmp_path if "{loop}" in argv else corpus) / "loop.txt"  # named, or an entry of the corpus
        loop.symlink_to(loop)
        code, out, err = run_cli(capsys, [arg.format(dir=corpus, loop=loop) for arg in argv])
        assert (code, out, err) == (1, "", f"error: {kind} cannot be read: {loop} ({os.strerror(errno.ELOOP)})\n")

    def test_config_read_from_a_pipe(self, tmp_path, capsys):
        # As ``--config <(echo ...)`` gives it: a named path that is a pipe, not a regular file.
        corpus = write_corpus(tmp_path, FIXTURE)
        result = subprocess.run(
            [sys.executable, "-m", "termspace", "snippets", "--corpus", str(corpus), "--config", "/dev/stdin", "rock"],
            input='{"window": 1}',
            capture_output=True,
            text=True,
            timeout=30,
        )
        code, out, _ = run_cli(capsys, ["snippets", "--corpus", str(corpus), "--window", "1", "rock"])
        assert (result.returncode, result.stderr, result.stdout) == (code, "", out) and code == 0

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["index", "--format", "jsonl", "--corpus", "{dir}"], "corpus file"),
            (["context", "--corpus", "{dir}", "--config", "{dir}", "rock"], "config file"),
            (["context", "--corpus", "{dir}", "--stopwords", "{dir}", "rock"], "stopwords file"),
        ],
        ids=["index-jsonl-corpus", "context-config", "context-stopwords"],
    )
    def test_input_file_that_is_a_directory_is_one_error_line_naming_it(self, tmp_path, capsys, argv, kind):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, err = run_cli(capsys, [arg.format(dir=corpus) for arg in argv])
        assert (code, out, err) == (1, "", f"error: {kind} is a directory: {corpus}\n")

    def test_missing_corpus_flag(self, capsys):
        code, _, err = run_cli(capsys, ["index"])
        assert code == 1
        assert "corpus" in err


class TestQueryCommand:
    def test_absent_term_counts_zero(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["query", "--corpus", str(corpus), "nothinghere"])
        assert code == 0
        assert json.loads(out) == {"term": "nothinghere", "count": 0}

    def test_pair_counts_match_brute_force(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["query", "--corpus", str(corpus), "rock", "trail"])
        assert code == 0
        payload = json.loads(out)
        pairs = list(FIXTURE.items())
        assert payload["counts"] == [
            len(brute_singleton(pairs, ["rock"])),
            len(brute_singleton(pairs, ["trail"])),
        ]
        assert payload["doubleton"] == len(
            brute_singleton(pairs, ["rock"]) & brute_singleton(pairs, ["trail"])
        )

    def test_duplicate_pair_exits_nonzero(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, err = run_cli(capsys, ["query", "--corpus", str(corpus), "rock", "rock"])
        assert code == 1
        assert out == ""
        assert "distinct" in err

    def test_three_terms_rejected(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, _, err = run_cli(capsys, ["query", "--corpus", str(corpus), "a", "b", "c"])
        assert code == 1
        assert "one or two" in err

    def test_three_terms_rejected_before_the_corpus_is_read(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, ["query", "--corpus", str(tmp_path / "absent"), "a", "b", "c"])
        assert (code, out, err) == (1, "", "error: query takes one or two terms\n")

    def test_biased_counts_are_reproducible(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        argv = [
            "query", "--corpus", str(corpus),
            "--bias-mode", "additive", "--bias-magnitude", "3", "--seed", "5",
            "rock",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        exact = len(brute_singleton(list(FIXTURE.items()), ["rock"]))
        assert exact <= json.loads(first)["count"] <= exact + 3


@pytest.mark.parametrize("argv", [["index"], ["query", "rock"], ["query", "rock", "trail"]])
@pytest.mark.parametrize("setting", [["--limit", "0"], ["--window", "99"], ["--stopwords", "ABSENT"]])
def test_index_and_query_ignore_limit_window_and_stopwords(tmp_path, capsys, argv, setting):
    corpus = write_corpus(tmp_path, FIXTURE)
    setting = [str(tmp_path / "absent.txt") if a == "ABSENT" else a for a in setting]
    command, *terms = argv
    _, plain, _ = run_cli(capsys, [command, "--corpus", str(corpus), *terms])
    code, out, err = run_cli(capsys, [command, "--corpus", str(corpus), *setting, *terms])
    assert (code, out, err) == (0, plain, "")


class TestStageCommands:
    def test_snippets_shape(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["snippets", "--corpus", str(corpus), "--window", "2", "rock"])
        assert code == 0
        payload = json.loads(out)
        expected = window_snippets(list(FIXTURE.items()), ["rock"], 2, 3)
        assert [(s["doc_id"], s["words"]) for s in payload["snippets"]] == expected

    def test_context_descends_by_weight(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["context", "--corpus", str(corpus), "rock"])
        assert code == 0
        payload = json.loads(out)
        stats = {w["word"]: float(w["nu"]) for w in payload["words"]}
        nus = [stats[w] for w in payload["nu_order"]]
        assert nus == sorted(nus, reverse=True)

    def test_context_of_absent_term_fails_cleanly(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, err = run_cli(capsys, ["context", "--corpus", str(corpus), "unseen"])
        assert code == 1
        assert out == ""
        assert "empty" in err

    def test_cluster_includes_tree(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["cluster", "--corpus", str(corpus), "rock"])
        assert code == 0
        payload = json.loads(out)
        assert not payload["cluster"]["empty"]
        vertices = payload["tree"]["vertices"]
        assert len(payload["tree"]["edges"]) == len(vertices) - 1

    def test_shade_empty_cluster_is_reported_not_fatal(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["shade", "--corpus", str(corpus), "--alpha", "99", "rock"])
        assert code == 0
        payload = json.loads(out)
        assert payload["empty"] is True
        assert payload["cluster"] is None

    def test_shade_normalizes_by_maximum(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(capsys, ["shade", "--corpus", str(corpus), "rock"])
        assert code == 0
        payload = json.loads(out)
        raws = [e["raw"] for e in payload["cluster"]["entries"]]
        assert payload["cluster"]["z"] == max(raws)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, ["query", "--corpus", str(corpus), "--out", str(target), "rock"]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["term"] == "rock"

    def test_out_that_is_a_directory_is_one_error_line_naming_it(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        target = tmp_path / "result"
        target.mkdir()
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus), "--out", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(f": {str(target)!r}\n") and err.count("\n") == 1
        assert list(tmp_path.glob(".*.tmp")) == []


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"corpus": str(corpus), "window": 1, "limit": 1}),
            encoding="utf-8",
        )
        _, from_config, _ = run_cli(capsys, ["snippets", "--config", str(config), "rock"])
        assert max(len(s["words"]) for s in json.loads(from_config)["snippets"]) <= 3

        _, overridden, _ = run_cli(
            capsys, ["snippets", "--config", str(config), "--window", "4", "rock"]
        )
        assert max(len(s["words"]) for s in json.loads(overridden)["snippets"]) > 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), "widnow": 3}), encoding="utf-8")
        code, _, err = run_cli(capsys, ["index", "--config", str(config)])
        assert code == 1
        assert "widnow" in err

    @pytest.mark.parametrize("text", ["[1]", "3", '"corpus"', "null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, text):
        config = tmp_path / "run.json"
        config.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: config must be a JSON object\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"corpus": ', ": invalid JSON config: Expecting value: line 1 column 12 (char 11)"),
            (b"\xff", ":1: config file is not UTF-8 (invalid start byte at byte 0)"),
            (b'{\n"corpus":\n"\xff"}', ":3: config file is not UTF-8 (invalid start byte at byte 13)"),
        ],
    )
    def test_invalid_json_config_is_one_error_line_naming_it(self, tmp_path, capsys, data, message):
        config = tmp_path / "bad.json"
        config.write_bytes(data)
        code, out, err = run_cli(capsys, ["index", "--config", str(config)])
        assert (code, out) == (1, "")
        assert err == f"error: {config}{message}\n"

    def test_too_deeply_nested_config_is_one_error_line_naming_it(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text('{"corpus": ' + "[" * 100000, encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--config", str(config)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {config}: invalid JSON config: ") and err.count("\n") == 1

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_limit_below_one_is_one_error_line_naming_limit(self, tmp_path, capsys, form):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), "limit": 0}), encoding="utf-8")
        argv = ["--corpus", str(corpus), "--limit", "0"] if form == "flag" else ["--config", str(config)]
        code, out, err = run_cli(capsys, ["snippets", *argv, "rock"])
        assert (code, out, err) == (1, "", "error: limit must be at least 1, got 0\n")

    @pytest.mark.parametrize("key", ["format", "measure", "bias_mode", "stopwords", "out"])
    def test_empty_string_counts_as_unset(self, tmp_path, capsys, key):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus)}), encoding="utf-8")
        _, unset, _ = run_cli(capsys, ["cluster", "--config", str(config), "rock"])
        config.write_text(json.dumps({"corpus": str(corpus), key: ""}), encoding="utf-8")
        code, out, err = run_cli(capsys, ["cluster", "--config", str(config), "rock"])
        assert (code, out, err) == (0, unset, "")

    def test_null_value_leaves_the_default(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus)}), encoding="utf-8")
        _, unset, _ = run_cli(capsys, ["cluster", "--config", str(config), "rock"])
        nulls = dict.fromkeys([key for key in _CONFIG_KEYS if key != "corpus"])
        config.write_text(json.dumps({"corpus": str(corpus), **nulls}), encoding="utf-8")
        assert run_cli(capsys, ["cluster", "--config", str(config), "rock"]) == (0, unset, "")

    def test_empty_corpus_is_no_corpus(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": ""}), encoding="utf-8")
        code, out, err = run_cli(capsys, ["index", "--config", str(config)])
        assert (code, out, err) == (1, "", "error: a corpus is required (--corpus or a config file)\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("window", 1.5),
            ("window", True),
            ("window", "4"),
            ("limit", 2.9),
            ("seed", 2.7),
            ("seed", False),
            ("bias_magnitude", True),
            ("bias_magnitude", "3"),
            ("alpha", True),
            ("alpha", [1]),
            ("stopwords", 5),
        ],
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), key: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, ["snippets", "--config", str(config), "rock"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config key '{key}' must be ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, key, value, choices",
        [
            ("index", "measure", "cosine", "doubleton_count, jaccard"),
            ("context", "measure", "cosine", "doubleton_count, jaccard"),
            ("index", "format", "csv", "txt_dir, jsonl"),
            ("query", "bias_mode", "scaled", "none, additive, multiplicative"),
        ],
    )
    def test_value_outside_the_flag_choices_rejected(self, tmp_path, capsys, command, key, value, choices):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), key: value}), encoding="utf-8")
        argv = [command, "--config", str(config)] + ([] if command == "index" else ["rock"])
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f'error: config key {key!r} must be one of {choices}, got "{value}"\n'

    # One valid value per config key: (the flag's text, the JSON config value).
    FLAG_AND_CONFIG_VALUES = {
        "corpus": ("docs", "docs"),
        "format": ("jsonl", "jsonl"),
        "window": ("4", 4),
        "limit": ("2", 2),
        "stopwords": ("stop.txt", "stop.txt"),
        "alpha": ("1/4", 0.25),
        "measure": ("doubleton_count", "doubleton_count"),
        "bias_mode": ("additive", "additive"),
        "bias_magnitude": ("2.5", 2.5),
        "seed": ("7", 7),
        "out": ("out.json", "out.json"),
    }

    @pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
    def test_flag_and_config_value_resolve_alike(self, tmp_path, key):
        flag, value = self.FLAG_AND_CONFIG_VALUES[key]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": "base", key: value}), encoding="utf-8")
        parse = build_parser().parse_args
        from_flag = resolve_config(parse(["index", "--corpus", "base", f"--{key.replace('_', '-')}", flag]))
        from_config = resolve_config(parse(["index", "--config", str(config)]))
        assert from_flag == from_config
        assert from_flag != resolve_config(parse(["index", "--corpus", "base"]))


class TestAlpha:
    @pytest.mark.parametrize("alpha", ["1/0", "abc", "nan", "inf", ""])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_bad_alpha_is_one_error_line_naming_alpha(self, tmp_path, capsys, alpha, form):
        corpus = write_corpus(tmp_path, FIXTURE)
        if form == "flag":
            argv = ["cluster", "--corpus", str(corpus), "--alpha", alpha, "rock"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"corpus": str(corpus), "alpha": alpha}), encoding="utf-8")
            argv = ["cluster", "--config", str(config), "rock"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: alpha ") and err.count("\n") == 1
        assert repr(alpha) in err

    @pytest.mark.parametrize("command", ["index", "query", "cluster"])
    def test_negative_alpha_is_rejected_before_the_corpus_is_read(self, tmp_path, capsys, command):
        argv = [command, "--corpus", str(tmp_path / "missing"), "--alpha=-1/4", "rock"]
        code, out, err = run_cli(capsys, argv[:-1] if command == "index" else argv)
        assert (code, out, err) == (1, "", "error: alpha must be non-negative, got '-1/4'\n")

    # Each is outside float range, where a report cannot print it as itself. The last two
    # make ``Fraction`` build an integer of ten million digits or more if it reads them.
    OUT_OF_RANGE = ["1e400", "1e5000", "1e-5000", "1e-400", "1e10000000", "1e999999999"]

    @pytest.mark.parametrize("alpha", OUT_OF_RANGE)
    @pytest.mark.parametrize("corpus", ["present", "missing"])
    @pytest.mark.parametrize("command", ["cluster", "shade", "pipeline"])
    def test_alpha_out_of_float_range_is_one_error_line_before_the_corpus_is_read(
        self, tmp_path, capsys, command, corpus, alpha
    ):
        path = write_corpus(tmp_path, FIXTURE) if corpus == "present" else tmp_path / "missing"
        argv = [command, "--corpus", str(path), "--alpha", alpha, "--out", str(tmp_path / "out"), "rock"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: alpha must be 0 or within float range, 5e-324 to 1.8e308, got {alpha!r}\n"
        assert not (tmp_path / "out").exists()

    # Exponents past ``Decimal``'s own limit, judged by value like any other alpha.
    @pytest.mark.parametrize(
        "alpha, message",
        [("1e99999999999999999999999", "0 or within float range, 5e-324 to 1.8e308"),
         ("-1e99999999999999999999999", "non-negative"),
         ("1e-99999999999999999999999", "0 or within float range, 5e-324 to 1.8e308")],
    )
    @pytest.mark.parametrize("command", ["cluster", "shade", "pipeline"])
    def test_alpha_past_the_decimal_exponent_limit_is_judged_before_the_corpus_is_read(
        self, tmp_path, capsys, command, alpha, message
    ):
        argv = [command, "--corpus", str(tmp_path / "missing"), f"--alpha={alpha}", "--out", str(tmp_path / "out"), "rock"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"error: alpha must be {message}, got {alpha!r}\n")
        assert not (tmp_path / "out").exists()

    def test_zero_past_the_decimal_exponent_limit_is_zero(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        _, zero, _ = run_cli(capsys, ["cluster", "--corpus", str(corpus), "--alpha", "0", "rock"])
        code, out, err = run_cli(capsys, ["cluster", "--corpus", str(corpus), "--alpha", "0e99999999999999999999999", "rock"])
        assert (code, out, err) == (0, zero, "")

    # One grammar on every Python: a decimal as ``float`` spells it, ``p/q`` as two ``int``s.
    @pytest.mark.parametrize(
        "alpha, message",
        [("1_0e99999999999999999999999", "0 or within float range, 5e-324 to 1.8e308"),
         ("-1_0e99999999999999999999999", "non-negative"),
         ("1/-3", "non-negative")]
        + [(alpha, "a finite number") for alpha in ("1__0", "_1", "1_", "1_.5", "INF", "-Infinity", "+nan")],
    )
    def test_alpha_grammar_error_comes_before_the_corpus_is_read(self, tmp_path, capsys, alpha, message):
        argv = ["cluster", "--corpus", str(tmp_path / "missing"), f"--alpha={alpha}", "rock"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"error: alpha must be {message}, got {alpha!r}\n")

    def test_alpha_p_over_q_past_ints_digit_limit_is_named_before_the_corpus_is_read(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        alpha = "1" + "0" * limit + "/1" + "0" * limit
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["cluster", "--corpus", str(tmp_path / "missing"), f"--alpha={alpha}", "rock"])
        assert time.perf_counter() - start < 1
        message = f"error: alpha must be p/q with at most {limit} digits on each side, int's digit limit\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize(
        "alpha, same_as",
        [("0_0e99999999999999999999999", "0"), ("1 / 4", "1/4"), ("1_0/3", "10/3"), ("-1/-3", "1/3"),
         ("1_000.5", "2001/2"), ("1" * 4400 + "e-4400", "0." + "1" * 4400)],
        ids=["zero-underscored-huge-exponent", "spaced-fraction", "underscored-fraction", "two-signs",
             "underscored-decimal", "4400-digit-mantissa"],
    )
    def test_alpha_grammar_reads_the_same_threshold(self, tmp_path, capsys, alpha, same_as):
        corpus = write_corpus(tmp_path, FIXTURE)
        _, expected, _ = run_cli(capsys, ["cluster", "--corpus", str(corpus), "--alpha", same_as, "rock"])
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["cluster", "--corpus", str(corpus), f"--alpha={alpha}", "rock"])
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (0, expected, "")

    def test_pipeline_rerun_with_alpha_out_of_float_range_keeps_the_bundle(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        argv = ["pipeline", "--corpus", str(corpus), "--out", str(out_dir), "rock"]
        assert run_cli(capsys, argv)[0] == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        code, out, err = run_cli(capsys, argv[:-1] + ["--alpha", "1e400", "rock"])
        assert (code, out) == (1, "") and err.startswith("error: alpha ") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_alpha_from_config_number_equals_flag_fraction(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), "alpha": 0.25}), encoding="utf-8")
        _, from_config, _ = run_cli(capsys, ["cluster", "--config", str(config), "rock"])
        _, from_flag, _ = run_cli(capsys, ["cluster", "--corpus", str(corpus), "--alpha", "1/4", "rock"])
        assert from_config == from_flag and json.loads(from_flag)["cluster"]["alpha"] == "0.25"


class TestStopwordsFile:
    @pytest.mark.parametrize("command", ["context", "cluster", "shade", "pipeline"])
    @pytest.mark.parametrize("term", ["rock", "unseen"])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe", "{path}:1: stopwords file is not UTF-8 (invalid start byte at byte 0)"),
            (b"rock\r\non\n\xff", "{path}:3: stopwords file is not UTF-8 (invalid start byte at byte 9)"),
            (None, "stopwords file not found: {path}"),  # not written
        ],
    )
    def test_undecodable_file_is_one_error_line_naming_it(self, tmp_path, capsys, command, term, data, message):
        corpus = write_corpus(tmp_path, FIXTURE)
        stopwords = tmp_path / "stopwords.txt"
        if data is not None:
            stopwords.write_bytes(data)
        out_dir = tmp_path / "bundle"
        code, out, err = run_cli(
            capsys,
            [command, "--corpus", str(corpus), "--stopwords", str(stopwords), "--out", str(out_dir), term],
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message.format(path=stopwords)}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["context", "pipeline"])
    def test_missing_file_is_one_error_line_naming_it(self, tmp_path, capsys, command):
        corpus = write_corpus(tmp_path, FIXTURE)
        missing = tmp_path / "absent.txt"
        code, out, err = run_cli(
            capsys,
            [command, "--corpus", str(corpus), "--stopwords", str(missing), "--out", str(tmp_path / "o"), "unseen"],
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err


    @pytest.mark.parametrize("stopwords", ["missing", "undecodable"])
    def test_snippets_never_opens_the_file(self, tmp_path, capsys, stopwords):
        corpus = write_corpus(tmp_path, FIXTURE)
        path = tmp_path / "stopwords.txt"
        if stopwords == "undecodable":
            path.write_bytes(b"\xff\xfe")
        _, plain, _ = run_cli(capsys, ["snippets", "--corpus", str(corpus), "rock"])
        code, out, err = run_cli(capsys, ["snippets", "--corpus", str(corpus), "--stopwords", str(path), "rock"])
        assert (code, out, err) == (0, plain, "")

    def test_pipeline_reports_a_context_emptied_by_stopwords(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, {"d0": "rock on the rock face", "d1": "quiet rain"})
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("rock on\nthe face\n", encoding="utf-8")
        out_dir = tmp_path / "bundle"
        argv = ["pipeline", "--corpus", str(corpus), "--stopwords", str(stopwords), "--out", str(out_dir), "rock"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["stages"]["snippets"] == {"count": 2, "empty": False}
        assert report["stages"]["context"] == {"words": 0, "empty": True}
        assert report["stages"]["cluster"] == {"retained": 0, "empty": True}
        assert report["stages"]["tree"] is None and report["theorem_check"] is None
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json", "snippets.json"]


class TestBiasMagnitude:
    @pytest.mark.parametrize("magnitude", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_non_finite_magnitude_is_one_error_line(self, tmp_path, capsys, mode, magnitude):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, err = run_cli(
            capsys,
            ["query", "--corpus", str(corpus), "--bias-mode", mode, f"--bias-magnitude={magnitude}", "rock"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert magnitude in err

    def test_non_finite_magnitude_in_config_rejected(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(
            '{"corpus": %s, "bias_mode": "additive", "bias_magnitude": NaN}' % json.dumps(str(corpus)),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, ["query", "--config", str(config), "rock"])
        assert code == 1
        assert out == ""
        assert err == "error: bias magnitude must be finite, got nan\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "bias magnitude must be finite, got a number beyond float range"),  # the config's 10**400
            (["--bias-magnitude=nan"], "bias magnitude must be finite, got nan"),
            (["--bias-magnitude=inf"], "bias magnitude must be finite, got inf"),
            (["--bias-magnitude=-1"], "bias magnitude must be non-negative"),
        ],
    )
    def test_magnitude_beyond_float_range_in_config_rejected(self, tmp_path, capsys, flags, message):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), "bias_magnitude": 10**400}), encoding="utf-8")
        code, out, err = run_cli(capsys, ["query", "--config", str(config), *flags, "rock"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_overflowing_multiplicative_count_is_one_error_line(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, {f"d{i:02d}": "harbor pier" for i in range(40)})
        code, out, err = run_cli(
            capsys,
            ["query", "--corpus", str(corpus), "--bias-mode", "multiplicative",
             "--bias-magnitude", "1e308", "--seed", "0", "harbor"],
        )
        assert code == 1
        assert out == ""
        assert err == "error: bias magnitude 1e+308 overflows the perturbed count\n"

    @pytest.mark.parametrize("mode", ["none", "additive", "multiplicative"])
    def test_zero_magnitude_counts_are_json_integers(self, tmp_path, capsys, mode):
        corpus = write_corpus(tmp_path, FIXTURE)
        code, out, _ = run_cli(
            capsys,
            ["query", "--corpus", str(corpus), "--bias-mode", mode, "--bias-magnitude", "0", "rock", "trail"],
        )
        assert code == 0
        pairs = list(FIXTURE.items())
        rock, trail = brute_singleton(pairs, ["rock"]), brute_singleton(pairs, ["trail"])
        payload = json.loads(out)
        assert payload["counts"] == [len(rock), len(trail)]
        assert payload["doubleton"] == len(rock & trail)


class TestPipelineCommand:
    def test_absent_term_reports_empty_stages(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        code, out, _ = run_cli(
            capsys, ["pipeline", "--corpus", str(corpus), "--out", str(out_dir), "unseen"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["stages"]["snippets"] == {"count": 0, "empty": True}
        assert report["stages"]["context"] == {"words": 0, "empty": True}
        assert report["stages"]["cluster"] == {"retained": 0, "empty": True}
        assert report["stages"]["tree"] is None
        assert report["theorem_check"] is None
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json", "snippets.json"]

    def test_alpha_above_every_weight_reports_an_empty_cluster(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        argv = ["pipeline", "--corpus", str(corpus), "--alpha", "99", "--out", str(out_dir), "rock"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["stages"]["context"]["empty"] is False
        assert report["stages"]["cluster"] == {"retained": 0, "empty": True}
        assert report["stages"]["tree"] is None and report["theorem_check"] is None
        assert report["artifacts"] == ["context.json", "graph.dot", "snippets.json", "report.json"]

    def test_bundle_matches_oracles(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        code, _, _ = run_cli(
            capsys,
            ["pipeline", "--corpus", str(corpus), "--window", "2", "--out", str(out_dir), "rock"],
        )
        assert code == 0
        pairs = list(FIXTURE.items())

        snippets = json.loads((out_dir / "snippets.json").read_text(encoding="utf-8"))
        assert [(s["doc_id"], s["words"]) for s in snippets["snippets"]] == window_snippets(
            pairs, ["rock"], 2, 3
        )

        context = json.loads((out_dir / "context.json").read_text(encoding="utf-8"))
        expected = brute_context(pairs, ["rock"], 2, 3)
        got = {w["word"]: (float(w["nu"]), w["mu"]) for w in context["words"]}
        assert sorted(got) == sorted(expected)
        for w, (weight, count) in expected.items():
            assert abs(got[w][0] - weight) <= 1e-12
            assert got[w][1] == count

        shade = json.loads((out_dir / "shade.json").read_text(encoding="utf-8"))
        for entry in shade["cluster"]["entries"]:
            assert entry["raw"] == len(brute_singleton(pairs, [entry["word"]]))

        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["theorem_check"] is True
        assert report["stages"]["tree"]["edges"] == (
            report["stages"]["tree"]["vertices"] - report["stages"]["tree"]["components"]
        )

    def test_graph_and_tree_dot_match_the_oracles_on_random_corpora(self, tmp_path, capsys):
        """The whole bundle, and a biased ``query``, rebuilt from the oracles alone (``oracles.pipeline_bundle``)."""
        rng, bias_rng = random.Random(2525), random.Random(2526)
        pool = ("rock", "rain", "sun", "trail", "face", "on", "the", "café", "straße", "zürich", "x2", "über")
        path = tmp_path / "corpus.jsonl"
        written = dict.fromkeys(cli._ARTIFACT_NAMES, 0)
        for _ in range(400):
            vocab = rng.sample(pool, rng.randint(3, 12))
            corpus = random_corpus(rng, max_docs=8, max_tokens=12, alphabet=vocab)
            term = random_present_term(rng, corpus) or rng.sample(vocab, rng.randint(1, 2))
            window, limit, measure = rng.randint(1, 4), rng.randint(1, 3), rng.choice(["doubleton_count", "jaccard"])
            alpha = Fraction(rng.randint(0, 3), rng.randint(1, 12))
            path.write_text("".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in corpus), encoding="utf-8")
            run = cli.Run(corpus=str(path), corpus_format="jsonl", window=window, per_doc_limit=limit,
                          alpha=f"{alpha.numerator}/{alpha.denominator}", measure=measure, term=" ".join(term))
            artifacts = cli.run_pipeline(run)
            expected = pipeline_bundle(corpus, term, window, limit, measure, alpha)
            assert artifacts == expected, (corpus, term, window, limit, measure, alpha)
            for name in expected:
                written[name] += 1

            other = bias_rng.sample(vocab, bias_rng.randint(1, 2))
            terms = [term] if other == list(term) else [term, other]
            mode = bias_rng.choice(["additive", "multiplicative"])
            magnitude, seed = bias_rng.randint(1, 4000) / 100, bias_rng.randint(0, 99)
            argv = ["query", "--corpus", str(path), "--format", "jsonl", "--bias-mode", mode,
                    "--bias-magnitude", repr(magnitude), "--seed", str(seed), *(" ".join(t) for t in terms)]
            assert run_cli(capsys, argv) == (0, query_text(corpus, terms, mode, magnitude, seed), ""), argv
        assert min(written.values()) >= 250, written

    # Metamorphic relations (Chen, Cheung and Yiu 1998): each compares two runs, so needs no oracle.
    AWKWARD_IDS = ('q"', "é", "D", "d", "d0", "a b", "Z", "\\")

    def awkward_corpora(self, rng, count, pool=("rock", "rain", "sun", "trail", "face", "on", "the", "café", "straße", "x2")):
        """Seeded small corpora whose ids sort apart from their line order, each with pipeline settings."""
        for _ in range(count):
            vocab = rng.sample(pool, rng.randint(3, len(pool)))
            texts = [text for _, text in random_corpus(rng, max_docs=8, max_tokens=12, alphabet=vocab)]
            corpus = list(zip(rng.sample(self.AWKWARD_IDS, len(texts)), texts))
            term = random_present_term(rng, corpus) or rng.sample(vocab, 1)
            alpha = Fraction(rng.randint(0, 3), rng.randint(1, 12))
            yield corpus, dict(corpus_format="jsonl", window=rng.randint(1, 4), per_doc_limit=rng.randint(1, 3),
                               alpha=f"{alpha.numerator}/{alpha.denominator}", term=" ".join(term),
                               measure=rng.choice(["doubleton_count", "jaccard"]))

    @staticmethod
    def jsonl_run(path, corpus, settings):
        path.write_text("".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in corpus), encoding="utf-8")
        run = cli.Run(corpus=str(path), **settings)
        run.index  # read now, before the file is written again
        return run

    def test_bundle_is_the_same_for_any_line_order_of_a_jsonl_corpus(self, tmp_path):
        rng = random.Random(2626)
        path = tmp_path / "corpus.jsonl"
        trees = 0
        for corpus, settings in self.awkward_corpora(rng, 300):
            orders = (corpus, corpus[::-1], rng.sample(corpus, len(corpus)))
            first, *rest = [cli.run_pipeline(self.jsonl_run(path, order, settings)) for order in orders]
            assert all(bundle == first for bundle in rest), (corpus, settings)
            trees += "tree.dot" in first
        assert trees >= 150, trees

    def test_a_second_copy_of_every_document_keeps_jaccard_weights_and_doubles_counts(self, tmp_path):
        rng = random.Random(2627)
        checked = 0
        for corpus, settings in self.awkward_corpora(rng, 200):
            settings["measure"] = "jaccard"
            doubled = corpus + [(f"copy {doc_id}", text) for doc_id, text in corpus]
            once, twice = (self.jsonl_run(tmp_path / name, docs, settings)
                           for name, docs in (("once.jsonl", corpus), ("twice.jsonl", doubled)))
            assert twice.snippets.n == 2 * once.snippets.n
            if not once.snippets.n:  # no context to compare
                continue
            words = once.context.words
            doubled_stats = {w: (s.nu * 2, s.mu * 2) for w, s in words.items()}
            assert {w: (s.nu, s.mu) for w, s in twice.context.words.items()} == doubled_stats, (corpus, settings)
            counts = [build_word_graph(run.context, run.index, "doubleton_count") for run in (once, twice)]
            for a, b in combinations(sorted(words), 2):
                assert twice.graph.weight(a, b) == once.graph.weight(a, b)
                assert counts[1].weight(a, b) == 2 * counts[0].weight(a, b)
            assert cli.run_pipeline(twice)["graph.dot"] == cli.run_pipeline(once)["graph.dot"]
            checked += 1
        assert checked >= 180, checked

    # Runs of ASCII characters that are not alphanumeric: each splits two tokens, as a space does.
    ASCII_SEPARATORS = (" ", "\t", "\n", ", ", ". ", "-", "_", "'", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f", "--(", " / ")

    def test_bundle_is_the_same_down_either_tokenizer_path(self, tmp_path):
        """A NO-BREAK SPACE after every ASCII document sends it down ``tokenize``'s regex path, not its split."""
        rng = random.Random(2727)
        pool = ("rock", "rain", "sun", "trail", "face", "on", "the", "x2", "r2d2", "e")
        trees = 0
        for corpus, settings in self.awkward_corpora(rng, 200, pool):
            corpus = [(doc_id, "".join(rng.choice(self.ASCII_SEPARATORS) + rng.choice([w, w.upper(), w.title()])
                                       for w in text.split()))
                      for doc_id, text in corpus]
            assert all(text.isascii() for _, text in corpus)
            marked = [(doc_id, text + "\u00a0") for doc_id, text in corpus]
            bundles = [cli.run_pipeline(self.jsonl_run(tmp_path / name, docs, settings))
                       for name, docs in (("ascii.jsonl", corpus), ("marked.jsonl", marked))]
            assert bundles[0] == bundles[1], (corpus, settings)
            trees += "tree.dot" in bundles[0]
        assert trees >= 120, trees

    def test_an_added_document_without_the_term_or_context_words_keeps_the_bundle(self, tmp_path):
        rng = random.Random(2728)
        pool = ("rock", "rain", "sun", "trail", "face", "on", "the", "café", "straße", "x2", "zebra", "über")
        names = ("snippets.json", "context.json", "graph.dot", "tree.dot")
        checked = 0
        for corpus, settings in self.awkward_corpora(rng, 200, pool):
            settings["measure"] = "jaccard"
            before = self.jsonl_run(tmp_path / "before.jsonl", corpus, settings)
            bundle = cli.run_pipeline(before)
            held = set(before.snippets.term.tokens) | set(before.context.words if "context.json" in bundle else ())
            free = [w for w in pool if w not in held]
            text = " ".join(rng.choice(free) for _ in range(rng.randint(0, 12)))
            doc_id = rng.choice([d for d in ("0", "d1", "~", "new") if d not in dict(corpus)])
            added = list(corpus)
            added.insert(rng.randint(0, len(corpus)), (doc_id, text))
            after = cli.run_pipeline(self.jsonl_run(tmp_path / "after.jsonl", added, settings))
            assert {n: after.get(n) for n in names} == {n: bundle.get(n) for n in names}, (added, settings)
            checked += "tree.dot" in bundle and bool(text)
        assert checked >= 120, checked

    def test_tree_edges_are_graph_edges(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        run_cli(capsys, ["pipeline", "--corpus", str(corpus), "--out", str(out_dir), "rock"])
        graph_edges = {
            line.split("[")[0].strip()
            for line in (out_dir / "graph.dot").read_text(encoding="utf-8").splitlines()
            if "--" in line
        }
        tree_edges = {
            line.split("[")[0].strip()
            for line in (out_dir / "tree.dot").read_text(encoding="utf-8").splitlines()
            if "--" in line
        }
        assert tree_edges <= graph_edges

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        bundles = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            run_cli(
                capsys,
                ["pipeline", "--corpus", str(corpus), "--alpha", "0.05", "--out", str(out_dir), "rock"],
            )
            bundles.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert bundles[0] == bundles[1]

    def test_rerun_removes_stale_artifacts_and_keeps_foreign_files(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept\n", encoding="utf-8")
        listings = []
        for alpha in ("0", "100"):
            code, out, _ = run_cli(
                capsys, ["pipeline", "--corpus", str(corpus), "--alpha", alpha, "--out", str(out_dir), "rock"]
            )
            assert code == 0
            report = json.loads(out)
            on_disk = sorted(p.name for p in out_dir.iterdir())
            assert on_disk == sorted(report["artifacts"] + ["notes.txt"])
            listings.append(on_disk)
        assert {"tree.dot", "shade.json"} <= set(listings[0])
        assert not {"tree.dot", "shade.json"} & set(listings[1])
        assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "kept\n"

    def test_bundle_file_that_is_a_directory_is_one_error_line_naming_it(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        blocked = tmp_path / "bundle" / "snippets.json"
        blocked.mkdir(parents=True)
        code, out, err = run_cli(
            capsys, ["pipeline", "--corpus", str(corpus), "--out", str(blocked.parent), "rock"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(f": {str(blocked)!r}\n") and err.count("\n") == 1
        assert list(blocked.parent.glob(".*.tmp")) == []

    @pytest.mark.parametrize(
        "name", ["snippets.json", "context.json", "graph.dot", "tree.dot", "shade.json", "report.json"]
    )
    def test_failed_rerun_leaves_no_report_or_the_old_bundle(self, tmp_path, capsys, name):
        corpus = write_corpus(tmp_path, FIXTURE)
        out_dir = tmp_path / "bundle"
        code, out, _ = run_cli(capsys, ["pipeline", "--corpus", str(corpus), "--out", str(out_dir), "rain"])
        assert code == 0 and name in json.loads(out)["artifacts"]
        rain = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != name}
        blocked = out_dir / name
        blocked.unlink()
        blocked.mkdir()
        code, out, err = run_cli(capsys, ["pipeline", "--corpus", str(corpus), "--out", str(out_dir), "rock"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(f": {str(blocked)!r}\n") and err.count("\n") == 1
        assert list(out_dir.glob(".*.tmp")) == []
        if (out_dir / "report.json").is_file():
            assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != name} == rain


# A corpus made only from ``Random.random`` draws, which Python keeps stable
# across versions for a given seed. Ids are assigned out of sorted order.
GOLDEN_VOCAB = (
    "pivot", "stone", "river", "cedar", "lantern", "orbit", "meadow", "copper", "signal",
    "harbor", "thistle", "quartz", "ember", "willow", "falcon", "granite", "the", "of", "and", "a",
)


def golden_corpus():
    rng = random.Random(2013)
    docs = {}
    for i in range(36):
        length = 12 + int(40 * rng.random())
        words = [GOLDEN_VOCAB[int(len(GOLDEN_VOCAB) * rng.random() ** 2)] for _ in range(length)]
        if i % 3 == 0:
            words.insert(int(len(words) * rng.random()), "stone river")
        docs[f"doc{(i * 7) % 36:02d}"] = " ".join(words)
    return docs


# SHA-256 of every bundle file, recorded when word weights came from the
# reference rescan (``word_weight``) and graph weights from document-id set
# intersections. Any change to a Fraction, a tie-broken order or a rendered
# digit changes a digest, even one that two runs of the same code share.
GOLDEN_BUNDLES = {
    "pivot": (
        ["--window", "4", "--alpha", "2", "--stopwords", "STOPWORDS"],
        {
            "context.json": "8de53ab82eb1913284f14dbbe0552542008bef78d668415aab5908b62688be44",
            "graph.dot": "e8ea3ec8bae7b1c698d0afe8647781fb29ab7393b9b235ae762233986c6a8b53",
            "report.json": "b69dd331c12cbcbd90831cc54de215cd4a70b59a4cef8962a052b505d44c0866",
            "shade.json": "d6f5b731a4ffdaea43fd8126ac72906db1bdb350c88d7661b35ce77fbcfd810c",
            "snippets.json": "147efaa13b14bf0a7565cf49021a6e980022bc0a3ba2fd8de4236bf0531ec3cc",
            "tree.dot": "b23a32a9330e88303150f0f89387aaea3944f76f2ed5ba94e55a037204486ce5",
        },
    ),
    "stone river": (
        ["--window", "3", "--limit", "2", "--measure", "doubleton_count", "--alpha", "1/4"],
        {
            "context.json": "fd82be66ebaa9c1ae4e5071448759b120781f8d0a602595f46b3db517670caef",
            "graph.dot": "bb0e52475a8a438fb2ea8d3cb7f9d9aadd09a1119410bf5e66181402c377a16d",
            "report.json": "6d78d81a1b2eb2f67f7446bdba1ad1d06e193250f7fe6e73a1b90107926baaea",
            "shade.json": "b0f36b5aad3f780399804f0fdd27e3dddb6b774802f3a4c67e211ceb21f32d4b",
            "snippets.json": "7c00d707b1c2e3636da0234466667f5b3453fee69a4f8962f5eecc19875e232c",
            "tree.dot": "08a35b6e0a29c0dd249a67415eb6e68f842b7642ad3d487fc5fa7a169cdbcf2f",
        },
    ),
}


@pytest.mark.parametrize("term", sorted(GOLDEN_BUNDLES))
def test_bundle_digests_match_recorded(tmp_path, capsys, term):
    corpus = write_corpus(tmp_path, golden_corpus())
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("the\nof\nand\na\n", encoding="utf-8")
    flags, expected = GOLDEN_BUNDLES[term]
    flags = [str(stopwords) if f == "STOPWORDS" else f for f in flags]
    out_dir = tmp_path / "bundle"
    code, _, err = run_cli(
        capsys, ["pipeline", "--corpus", str(corpus), *flags, "--out", str(out_dir), term]
    )
    assert code == 0, err
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == expected


# SHA-256 of the output of the one-result commands on ``golden_corpus()``,
# recorded while each command still ran its own copy of the stage chain.
# ``--alpha 99`` gives an empty cluster.
GOLDEN_OUTPUTS = [
    (["index"], "7e8d8fb1865557fec8bc306463f266b5635ed65bd67ae5cf7139060b7447e62a"),
    (["query", "pivot"], "cdc8dcec9a1f332f6fed12bf23e6ae4bfa718e16cbff8e7a698f4c9ebd8f71fa"),
    (["query", "stone river", "harbor"], "39ff00499864bc45da292501853d51a3801b20763663f084beeac4d17f219164"),
    (
        ["query", "--bias-mode", "multiplicative", "--bias-magnitude", "0.5", "--seed", "3", "pivot", "cedar"],
        "3377668020c36737df3e18cc2ef0f108a26c7c3577fe8c725b33d25badae9968",
    ),
    (["query", "pivot stone river"], "4287b257d89df8443cd1400a69f270df1ae0e4308ed34d5190e624d9b63be2d7"),
    (["query", "pivot pivot pivot"], "447e4b98e37f059c5a10ac7ff1dceca4e4f131675a034a76bc2a6b0501a1693e"),
    (
        ["query", "--bias-mode", "multiplicative", "--bias-magnitude", "0.5", "--seed", "3", "pivot stone", "stone river"],
        "8704be202355de1ba84f97ca8f8e449047437f88062c73a03d9b0125010fea27",
    ),
    (["snippets", "--window", "4", "pivot"], "147efaa13b14bf0a7565cf49021a6e980022bc0a3ba2fd8de4236bf0531ec3cc"),
    (
        ["snippets", "--window", "3", "--limit", "2", "stone river"],
        "7c00d707b1c2e3636da0234466667f5b3453fee69a4f8962f5eecc19875e232c",
    ),
    (["context", "pivot"], "0c83b9bba1039c083bf1b3447ced97850d51e47c3a0eb68ab82526a728f9f975"),
    (
        ["context", "--window", "4", "--stopwords", "STOPWORDS", "pivot"],
        "8de53ab82eb1913284f14dbbe0552542008bef78d668415aab5908b62688be44",
    ),
    (
        ["cluster", "--window", "3", "--limit", "2", "--alpha", "1/4", "stone river"],
        "f660e2122f47a1b77acd23a88c3b9c6f0442475146ef677b39c7eeeba79d804c",
    ),
    (
        ["cluster", "--measure", "doubleton_count", "--alpha", "2", "--stopwords", "STOPWORDS", "pivot"],
        "13dc19768c247af9703687015da8a157c7c2ad271fa7fd3d021ed2ad7ef219de",
    ),
    (["cluster", "--alpha", "99", "pivot"], "a208dae218bb19c0d368cd0448f78786c29c43c40fbe1271d2d41634d3540605"),
    (
        ["shade", "--window", "4", "--alpha", "0.05", "pivot"],
        "765829f5b6f496caf85ada71eaa5b57070de1d9e1421f5efe6130423aedf888d",
    ),
    (
        ["shade", "--measure", "doubleton_count", "--alpha", "1", "--stopwords", "STOPWORDS", "stone river"],
        "c455edaa7cdae96fd7ec196d2298ded079491c8d6e8a0c7349d813841f5175dc",
    ),
    (["shade", "--alpha", "99", "pivot"], "fb4981042b76c57ff7be0ab0c184dcf480c56dc609d07f14790359187572c48d"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_OUTPUTS, ids=[" ".join(a) for a, _ in GOLDEN_OUTPUTS])
def test_command_output_digests_match_recorded(tmp_path, capsys, monkeypatch, argv, expected):
    if argv[0] == "shade":  # a tree keeps its cluster's words, so the shade reads them from the context alone
        for name in ("build_word_graph", "micro_cluster", "optimal_micro_cluster"):
            monkeypatch.setattr(cli, name, lambda *args, _name=name: pytest.fail(f"shade called {_name}"))
    corpus = write_corpus(tmp_path, golden_corpus())
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("the\nof\nand\na\n", encoding="utf-8")
    command, *rest = [str(stopwords) if a == "STOPWORDS" else a for a in argv]
    code, out, err = run_cli(capsys, [command, "--corpus", str(corpus), *rest])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected

    # ``--out`` writes the same bytes and leaves no temporary file behind.
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, [command, "--corpus", str(corpus), "--out", str(out_dir / "r.json"), *rest])
    assert (code, out) == (0, "")
    assert [p.name for p in out_dir.iterdir()] == ["r.json"]
    assert hashlib.sha256((out_dir / "r.json").read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("alpha", ["0", "99"])
@pytest.mark.parametrize("command, trees", [("cluster", 1), ("pipeline", 1), ("shade", 0)])
def test_tree_is_built_once_where_it_is_printed(tmp_path, capsys, monkeypatch, command, trees, alpha):
    # ``--alpha 99`` is above every word weight, so the cluster is empty and no tree is built.
    built = []

    def counted(mc):
        built.append(mc)
        return optimal_micro_cluster(mc)

    monkeypatch.setattr(cli, "optimal_micro_cluster", counted)
    corpus = write_corpus(tmp_path, FIXTURE)
    argv = [command, "--corpus", str(corpus), "--alpha", alpha, "--out", str(tmp_path / "out"), "rock"]
    code, _, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert len(built) == (trees if alpha == "0" else 0)
    assert not any(mc.is_empty for mc in built)


# The ``cli`` stage builders in the order a run calls them, and the last one
# each command calls: a command builds only what its output reads, each stage
# once, and reads ``--stopwords`` only for a context.
STAGE_BUILDERS = ("build_index", "extract_snippets", "_load_stopwords", "build_context", "build_word_graph",
                  "micro_cluster", "optimal_micro_cluster")
LAST_STAGE_BUILT = {
    ("index",): "build_index",
    ("query", "rock"): "build_index",
    ("query", "rock", "trail"): "build_index",
    ("snippets", "rock"): "extract_snippets",
    ("context", "rock"): "build_context",
    ("cluster", "rock"): "optimal_micro_cluster",
    ("shade", "rock"): "build_context",
    ("pipeline", "rock"): "optimal_micro_cluster",
}


@pytest.mark.parametrize("argv", sorted(LAST_STAGE_BUILT), ids=" ".join)
def test_each_command_builds_only_the_stages_it_reads(tmp_path, capsys, monkeypatch, argv):
    calls = []
    for name in STAGE_BUILDERS:
        def counted(*args, _builder=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _builder(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    corpus = write_corpus(tmp_path, FIXTURE)
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("the\n", encoding="utf-8")
    command, *terms = argv
    flags = ["--corpus", str(corpus), "--stopwords", str(stopwords), "--out", str(tmp_path / "out")]
    code, _, err = run_cli(capsys, [command, *flags, *terms])
    assert (code, err) == (0, "")
    assert calls == list(STAGE_BUILDERS[: STAGE_BUILDERS.index(LAST_STAGE_BUILT[argv]) + 1])


# SHA-256 of ``--help`` at 80 columns, recorded while a usage error still
# printed argparse's usage block and exited 2.
GOLDEN_HELP = {
    "": "f4954cef442dabee3d207671615f9162dd67a822dd0922068b49a672235b2a7a",
    "index": "af4f528032e409fd72de5298d2a0b4778aab5571e61e02de527a17a5bea8a839",
    "query": "dea616a89587bcc28fe306b2799ed1111a681cb1b57d0dfd9d64672c574a0afb",
    "snippets": "21db2e714890f36eb5385bf30d2d42fe23ef58a9b6153bce68fc8ae608f828b3",
    "context": "3231df0bc48b46b930b2c57c59c6ee1cba43b79bef899b97bfc5e0b566788633",
    "cluster": "c8834c55cb4aa3ddc5f1fc9bc9d4844990a58329606920771e8959d40e67e887",
    "shade": "5941d325a3b954a2fac711ec0a5af1fb59781961c3bf434522b546340ec32c0e",
    "pipeline": "dcc01a458f0d465ae78bb5f859ce256fb5a4066093bc0c45ca50da1727452897",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_HELP))
def test_help_digests_match_recorded(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_HELP[command]


# Argparse's wording changes between Python versions, so only the form is checked.
USAGE_ERRORS = [
    ["index", "--corpus", "CORPUS", "--window", "abc"],
    ["query", "--corpus", "CORPUS", "--bias-magnitude", "x", "rock"],
    ["cluster", "--corpus", "CORPUS", "--measure", "cosine", "rock"],
    ["index", "--corpus", "CORPUS", "--bogus", "1"],
    ["snippets", "--corpus", "CORPUS"],
    ["query", "--corpus", "CORPUS"],
    [],
    ["search", "--corpus", "CORPUS", "rock"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) or "no command" for a in USAGE_ERRORS])
def test_usage_error_is_one_error_line(tmp_path, capsys, argv):
    corpus = write_corpus(tmp_path, FIXTURE)
    code, out, err = run_cli(capsys, [str(corpus) if a == "CORPUS" else a for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_module_entry_point(tmp_path):
    corpus = write_corpus(tmp_path, {"a": "hello world"})
    result = subprocess.run(
        [sys.executable, "-m", "termspace", "index", "--corpus", str(corpus)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["documents"] == 1


def test_module_entry_point_usage_error_exits_1():
    result = subprocess.run(
        [sys.executable, "-m", "termspace", "index", "--window", "abc"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
