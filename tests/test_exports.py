"""JSON and DOT export shapes and number formatting."""

from __future__ import annotations

import ast
import json
import re
import types
from fractions import Fraction
from pathlib import Path

import termspace
from termspace import (
    build_context,
    build_index,
    build_word_graph,
    context_to_dict,
    extract_snippets,
    graph_to_dict,
    graph_to_dot,
    micro_cluster,
    mirror_shade,
    optimal_micro_cluster,
    shade_to_dict,
    snippets_to_dict,
    tree_to_dict,
    tree_to_dot,
)
from termspace.jsonio import dump_json, rational_str

CORPUS = [("D1", "p q r"), ("D2", "q r"), ("D3", "p")]


def build_chain():
    index = build_index(CORPUS)
    lst = extract_snippets(index, "q", window=2)
    ctx = build_context(lst, index)
    graph = build_word_graph(ctx, index)
    mc = micro_cluster(graph, ctx, 0)
    tree = optimal_micro_cluster(mc)
    return index, lst, ctx, graph, mc, tree


def test_rational_str_uses_12_significant_digits():
    assert rational_str(Fraction(1, 2)) == "0.5"
    assert rational_str(Fraction(1, 3)) == "0.333333333333"
    assert rational_str(Fraction(2)) == "2"
    assert rational_str(Fraction(1, 1024)) == "0.0009765625"


def test_snippets_dict_shape():
    _, lst, *_ = build_chain()
    payload = snippets_to_dict(lst)
    assert payload["term"] == "q"
    assert payload["snippets"][0] == {"doc_id": "D1", "words": ["p", "q", "r"], "term_spans": [[1, 2]]}


def test_context_dict_shape():
    *_, ctx, _, _, _ = build_chain()
    payload = context_to_dict(ctx)
    assert list(payload) == ["term", "words", "nu_order", "mu_order"]
    words = {entry["word"] for entry in payload["words"]}
    assert words == set(payload["nu_order"]) == set(payload["mu_order"])
    for entry in payload["words"]:
        assert isinstance(entry["nu"], str)
        assert isinstance(entry["mu"], int)


def test_graph_dict_and_dot_agree_on_edges():
    *_, graph, _, _ = build_chain()
    payload = graph_to_dict(graph)
    dot = graph_to_dot(graph)
    assert list(payload["vertices"]) == sorted(payload["vertices"])
    for edge in payload["edges"]:
        assert f'"{edge["a"]}" -- "{edge["b"]}"' in dot
    assert dot.startswith("graph {\n")
    assert dot.endswith("}\n")


def test_dot_labels_have_six_decimals():
    *_, graph, _, tree = build_chain()
    for line in graph_to_dot(graph).splitlines() + tree_to_dot(tree).splitlines():
        if "--" in line:
            label = line.split('label="')[1].split('"')[0]
            assert len(label.split(".")[1]) == 6


def test_tree_dict_edges_subset_of_graph():
    *_, graph, _, tree = build_chain()
    graph_edges = {(e["a"], e["b"]) for e in graph_to_dict(graph)["edges"]}
    tree_edges = {(e["a"], e["b"]) for e in tree_to_dict(tree)["edges"]}
    assert tree_edges <= graph_edges


def test_shade_dict_shape():
    index, *_ , mc, _ = build_chain()
    shade = mirror_shade(mc.words, index)
    payload = shade_to_dict(shade)
    assert list(payload) == ["entries", "z"]
    assert payload["z"] == shade.z
    for entry in payload["entries"]:
        assert set(entry) == {"word", "raw", "normalized"}
        assert isinstance(entry["raw"], int)
        assert isinstance(entry["normalized"], str)


def test_dump_json_is_stable():
    payload = {"b": 1, "a": [1, 2]}
    text = dump_json(payload)
    assert text == dump_json(payload)
    assert text.endswith("\n")
    assert json.loads(text) == payload


def test_export_list_is_every_public_name_of_the_package():
    public = {
        name
        for name, value in vars(termspace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(termspace.__all__) == len(set(termspace.__all__))
    assert set(termspace.__all__) == public
    star: dict = {}
    exec("from termspace import *", star)  # raises for a listed name the package does not bind
    assert set(star) - {"__builtins__"} == public


def test_readme_library_quickstart_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        statement = ast.parse(code).body
        if statement and isinstance(statement[0], ast.Expr):  # a value the comment states
            checked.append(comment.split(";")[0].strip())
            assert repr(eval(code, namespace)) == checked[-1], line
        else:
            exec(code, namespace)
    assert checked == ["2", "frozenset({'D1'})", "Fraction(1, 3)", "True"]
