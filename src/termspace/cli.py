"""Command-line front end.

Subcommands cover corpus ingestion through shade export, each a pure
function of the corpus bytes and the configuration: repeated runs produce
byte-identical output. Data goes to stdout or ``--out``; diagnostics go
to stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .engine import (
    BIAS_MODES,
    BiasConfig,
    Index,
    Term,
    build_index,
    doubleton,
    hit_count,
    load_corpus,
    singleton,
    tokenize,
)
from .jsonio import count_value, dump_json, rational_str
from .microcluster import (
    MEASURES,
    build_word_graph,
    graph_to_dict,
    graph_to_dot,
    micro_cluster,
    mirror_shade,
    optimal_micro_cluster,
    shade_to_dict,
    tree_to_dict,
    tree_to_dot,
    verify_theorem,
)
from .snippets import extract_snippets, snippets_to_dict
from .triplet import build_context, context_to_dict

PIPELINE_DEFAULT_DIR = "pipeline_out"
# Every file a pipeline run can write. A run removes the ones it does not
# write, so a bundle directory never keeps files from an earlier run.
_ARTIFACT_NAMES = ("snippets.json", "context.json", "graph.dot", "tree.dot", "shade.json", "report.json")


@dataclass
class RunConfig:
    corpus: str
    corpus_format: str = "txt_dir"
    window: int = 10
    per_doc_limit: int = 3
    stopwords: str | None = None
    alpha: Fraction = Fraction(0)
    measure: str = "jaccard"
    bias: BiasConfig = BiasConfig()
    out: str | None = None


# config-file key -> parsed-argument attribute
_CONFIG_KEYS = {
    "corpus": "corpus",
    "format": "corpus_format",
    "window": "window",
    "limit": "per_doc_limit",
    "stopwords": "stopwords",
    "alpha": "alpha",
    "measure": "measure",
    "bias_mode": "bias_mode",
    "bias_magnitude": "bias_magnitude",
    "seed": "seed",
    "out": "out",
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and flags; explicit flags win."""
    values: dict[str, object | None] = {attr: None for attr in _CONFIG_KEYS.values()}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, attr in _CONFIG_KEYS.items():
            if key in raw:
                values[attr] = raw[key]
    for attr in values:
        flag_value = getattr(args, attr, None)
        if flag_value is not None:
            values[attr] = flag_value
    if not values["corpus"]:
        raise ValueError("a corpus is required (--corpus or a config file)")
    return RunConfig(
        corpus=str(values["corpus"]),
        corpus_format=str(values["corpus_format"] or "txt_dir"),
        window=int(values["window"]) if values["window"] is not None else 10,
        per_doc_limit=int(values["per_doc_limit"]) if values["per_doc_limit"] is not None else 3,
        stopwords=str(values["stopwords"]) if values["stopwords"] else None,
        alpha=Fraction(str(values["alpha"])) if values["alpha"] is not None else Fraction(0),
        measure=str(values["measure"] or "jaccard"),
        bias=BiasConfig(
            mode=str(values["bias_mode"] or "none"),
            magnitude=float(values["bias_magnitude"] or 0.0),
            seed=int(values["seed"] or 0),
        ),
        out=str(values["out"]) if values["out"] else None,
    )


def _load_index(cfg: RunConfig) -> Index:
    return build_index(load_corpus(cfg.corpus, cfg.corpus_format))


def _load_stopwords(cfg: RunConfig) -> frozenset[str]:
    if cfg.stopwords is None:
        return frozenset()
    words: set[str] = set()
    for line in Path(cfg.stopwords).read_text(encoding="utf-8").splitlines():
        words.update(tokenize(line))
    return frozenset(words)


def _emit(text: str, out: str | None) -> None:
    if out:
        path = Path(out)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_index(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    index = _load_index(cfg)
    summary = {
        "documents": index.universe_size,
        "unique_tokens": len(index.postings),
        "total_tokens": index.total_tokens,
    }
    _emit(dump_json(summary), cfg.out)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if len(args.terms) not in (1, 2):
        raise ValueError("query takes one or two terms")
    index = _load_index(cfg)
    terms = [Term.parse(raw) for raw in args.terms]
    if len(terms) == 1:
        payload: dict = {
            "term": terms[0].text,
            "count": count_value(hit_count(singleton(index, terms[0]), cfg.bias)),
        }
    else:
        both = doubleton(index, terms[0], terms[1])
        payload = {
            "terms": [t.text for t in terms],
            "counts": [count_value(hit_count(singleton(index, t), cfg.bias)) for t in terms],
            "doubleton": count_value(hit_count(both, cfg.bias)),
        }
    _emit(dump_json(payload), cfg.out)
    return 0


def cmd_snippets(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    index = _load_index(cfg)
    snippet_list = extract_snippets(index, Term.parse(args.term), cfg.window, cfg.per_doc_limit)
    _emit(dump_json(snippets_to_dict(snippet_list)), cfg.out)
    return 0


def cmd_context(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    index = _load_index(cfg)
    snippet_list = extract_snippets(index, Term.parse(args.term), cfg.window, cfg.per_doc_limit)
    ctx = build_context(snippet_list, index, _load_stopwords(cfg))
    _emit(dump_json(context_to_dict(ctx)), cfg.out)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    index = _load_index(cfg)
    snippet_list = extract_snippets(index, Term.parse(args.term), cfg.window, cfg.per_doc_limit)
    ctx = build_context(snippet_list, index, _load_stopwords(cfg))
    graph = build_word_graph(ctx, index, cfg.measure)
    mc = micro_cluster(graph, ctx, cfg.alpha)
    payload = {
        "graph": graph_to_dict(graph),
        "cluster": {
            "alpha": rational_str(mc.alpha),
            "words": list(mc.words),
            "empty": mc.is_empty,
        },
        "tree": tree_to_dict(optimal_micro_cluster(mc)) if not mc.is_empty else None,
    }
    _emit(dump_json(payload), cfg.out)
    return 0


def cmd_shade(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    index = _load_index(cfg)
    snippet_list = extract_snippets(index, Term.parse(args.term), cfg.window, cfg.per_doc_limit)
    ctx = build_context(snippet_list, index, _load_stopwords(cfg))
    graph = build_word_graph(ctx, index, cfg.measure)
    mc = micro_cluster(graph, ctx, cfg.alpha)
    if mc.is_empty:
        payload = {"alpha": rational_str(mc.alpha), "empty": True, "cluster": None, "tree": None}
    else:
        tree = optimal_micro_cluster(mc)
        payload = {
            "alpha": rational_str(mc.alpha),
            "empty": False,
            "cluster": shade_to_dict(mirror_shade(mc.words, index)),
            "tree": shade_to_dict(mirror_shade(tree.words, index)),
        }
    _emit(dump_json(payload), cfg.out)
    return 0


def run_pipeline(cfg: RunConfig, term_text: str) -> tuple[dict, dict[str, str]]:
    """Run extraction through the theorem check and collect the artifacts.

    Returns the report and a name-to-text map of the files to write.
    Empty intermediate stages are reported, never fatal.
    """
    index = _load_index(cfg)
    term = Term.parse(term_text)
    artifacts: dict[str, str] = {}
    stages: dict[str, object] = {
        "snippets": None,
        "context": None,
        "cluster": None,
        "tree": None,
        "shade": None,
    }
    theorem: bool | None = None

    snippet_list = extract_snippets(index, term, cfg.window, cfg.per_doc_limit)
    artifacts["snippets.json"] = dump_json(snippets_to_dict(snippet_list))
    stages["snippets"] = {"count": snippet_list.n, "empty": snippet_list.n == 0}

    ctx = None
    if snippet_list.n:
        try:
            ctx = build_context(snippet_list, index, _load_stopwords(cfg))
        except ValueError:
            ctx = None
    if ctx is None:
        stages["context"] = {"words": 0, "empty": True}
        stages["cluster"] = {"retained": 0, "empty": True}
    else:
        stages["context"] = {"words": len(ctx.words), "empty": False}
        artifacts["context.json"] = dump_json(context_to_dict(ctx))
        graph = build_word_graph(ctx, index, cfg.measure)
        artifacts["graph.dot"] = graph_to_dot(graph)
        mc = micro_cluster(graph, ctx, cfg.alpha)
        stages["cluster"] = {"retained": len(mc.words), "empty": mc.is_empty}
        if not mc.is_empty:
            tree = optimal_micro_cluster(mc)
            artifacts["tree.dot"] = tree_to_dot(tree)
            stages["tree"] = {
                "vertices": len(tree.vertices),
                "edges": len(tree.edges),
                "components": tree.component_count,
            }
            cluster_shade = mirror_shade(mc.words, index)
            tree_shade = mirror_shade(tree.words, index)
            artifacts["shade.json"] = dump_json(
                {"cluster": shade_to_dict(cluster_shade), "tree": shade_to_dict(tree_shade)}
            )
            stages["shade"] = {"z": cluster_shade.z}
            theorem = verify_theorem(tree, mc, index)

    report = {
        "term": term.text,
        "config": {
            "window": cfg.window,
            "per_doc_limit": cfg.per_doc_limit,
            "alpha": rational_str(cfg.alpha),
            "measure": cfg.measure,
        },
        "stages": stages,
        "theorem_check": theorem,
        "artifacts": sorted(artifacts) + ["report.json"],
    }
    artifacts["report.json"] = dump_json(report)
    return report, artifacts


def _write_atomic(path: Path, text: str) -> None:
    # A reader sees the old file or the new one, never a partial write.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out_dir = Path(cfg.out or PIPELINE_DEFAULT_DIR)
    report, artifacts = run_pipeline(cfg, args.term)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in _ARTIFACT_NAMES:
        if name not in artifacts:
            (out_dir / name).unlink(missing_ok=True)
    for name, text in artifacts.items():
        _write_atomic(out_dir / name, text)
    sys.stdout.write(dump_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--corpus", help="corpus path: a directory of .txt files or a .jsonl file")
    shared.add_argument("--format", dest="corpus_format", choices=("txt_dir", "jsonl"),
                        help="corpus layout (default txt_dir)")
    shared.add_argument("--window", type=int, help="words kept each side of an occurrence, 1..50 (default 10)")
    shared.add_argument("--limit", dest="per_doc_limit", type=int,
                        help="max snippets per document (default 3)")
    shared.add_argument("--stopwords", help="file of words to drop from contexts, one per line")
    shared.add_argument("--alpha", help="cluster threshold, decimal or p/q fraction (default 0)")
    shared.add_argument("--measure", choices=MEASURES, help="edge weight measure (default jaccard)")
    shared.add_argument("--bias-mode", dest="bias_mode", choices=BIAS_MODES,
                        help="hit count perturbation (default none)")
    shared.add_argument("--bias-magnitude", dest="bias_magnitude", type=float,
                        help="perturbation magnitude (default 0)")
    shared.add_argument("--seed", type=int, help="perturbation seed (default 0)")
    shared.add_argument("--out", help="output file (pipeline: output directory)")
    shared.add_argument("--config", help="JSON config file; explicit flags override it")

    parser = argparse.ArgumentParser(
        prog="termspace",
        description="Deterministic search engine model: event spaces, snippets, "
        "word weights, relation graphs, spanning-tree clusters, shade vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[shared], help="index the corpus and print a summary")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", parents=[shared], help="count documents for one or two terms")
    p.add_argument("terms", nargs="+", metavar="TERM")
    p.set_defaults(func=cmd_query)

    for name, func, help_text in (
        ("snippets", cmd_snippets, "extract word windows around a term"),
        ("context", cmd_context, "build the weighted word set of a term"),
        ("cluster", cmd_cluster, "build the relation graph, threshold cluster, and tree"),
        ("shade", cmd_shade, "export the shade vectors of the cluster and its tree"),
        ("pipeline", cmd_pipeline, "run every stage and write the artifact bundle"),
    ):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("term", metavar="TERM")
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
