"""CLI behavior: exit codes, JSON output, config merging, artifact bundles."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys

import pytest

from termspace.cli import _CONFIG_KEYS, build_parser, main, resolve_config

from oracles import brute_context, brute_singleton, window_snippets

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

    def test_error_naming_a_path_with_a_newline_is_one_line(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        (corpus / "two\nlines.txt").write_bytes(b"\xff")
        code, out, err = run_cli(capsys, ["index", "--corpus", str(corpus)])
        assert (code, out) == (1, "")
        name = str(corpus / "two\nlines.txt").replace("\n", "\\n")
        assert err == f"error: {name}:1: corpus file is not UTF-8 (invalid start byte at byte 0)\n"

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
        "data, reason",
        [
            (b'{"corpus": ', "Expecting value: line 1 column 12 (char 11)"),
            (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
    )
    def test_invalid_json_config_is_one_error_line_naming_it(self, tmp_path, capsys, data, reason):
        config = tmp_path / "bad.json"
        config.write_bytes(data)
        code, out, err = run_cli(capsys, ["index", "--config", str(config)])
        assert (code, out) == (1, "")
        assert err == f"error: {config}: invalid JSON config: {reason}\n"

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
    def test_undecodable_file_is_one_error_line_naming_it(self, tmp_path, capsys, command, term):
        corpus = write_corpus(tmp_path, FIXTURE)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_bytes(b"\xff\xfe")
        out_dir = tmp_path / "bundle"
        code, out, err = run_cli(
            capsys,
            [command, "--corpus", str(corpus), "--stopwords", str(stopwords), "--out", str(out_dir), term],
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {stopwords}: ") and err.count("\n") == 1
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

    def test_magnitude_beyond_float_range_in_config_rejected(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, FIXTURE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": str(corpus), "bias_magnitude": 10**400}), encoding="utf-8")
        code, out, err = run_cli(capsys, ["query", "--config", str(config), "rock"])
        assert (code, out) == (1, "")
        assert err.startswith("error: bias_magnitude must be a finite number, got 1000") and err.count("\n") == 1

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
def test_command_output_digests_match_recorded(tmp_path, capsys, argv, expected):
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
