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
from dataclasses import MISSING, dataclass, field, fields
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
    MicroCluster,
    TreeCluster,
    WordGraph,
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
from .snippets import SnippetList, extract_snippets, snippets_to_dict
from .triplet import Context, build_context, context_to_dict

PIPELINE_DEFAULT_DIR = "pipeline_out"
# Every file a pipeline run can write. A run removes the ones it does not
# write, so a bundle directory never keeps files from an earlier run.
_ARTIFACT_NAMES = ("snippets.json", "context.json", "graph.dot", "tree.dot", "shade.json", "report.json")


def _setting(key: str, help: str, default=MISSING, types: tuple[type, ...] = (str,), **options):
    """A :class:`RunConfig` field: its default, config key and JSON value types, and its flag.

    The flag is ``--key`` with ``-`` for ``_``; ``options`` are its other
    ``add_argument`` keywords, and the help text names the default.
    """
    if default is not MISSING and default is not None:
        help = f"{help} (default {f'{default:g}' if isinstance(default, float) else default})"
    return field(default=default, metadata={"key": key, "types": types, "options": {"help": help, **options}})


@dataclass
class RunConfig:
    """One run's settings, each declared once with its CLI default, config key and flag.

    ``alpha`` and ``bias_magnitude`` are parsed here.
    """

    corpus: str = _setting("corpus", "corpus path: a directory of .txt files or a .jsonl file")
    corpus_format: str = _setting("format", "corpus layout", "txt_dir", choices=("txt_dir", "jsonl"))
    window: int = _setting("window", "words kept each side of an occurrence, 1..50", 10, (int,), type=int)
    per_doc_limit: int = _setting("limit", "max snippets per document", 3, (int,), type=int)
    stopwords: str | None = _setting("stopwords", "file of words to drop from contexts, one per line", None)
    alpha: Fraction = _setting("alpha", "cluster threshold, decimal or p/q fraction", Fraction(0), (str, int, float))
    measure: str = _setting("measure", "edge weight measure", "jaccard", choices=MEASURES)
    bias_mode: str = _setting("bias_mode", "hit count perturbation", "none", choices=BIAS_MODES)
    bias_magnitude: float = _setting("bias_magnitude", "perturbation magnitude", 0.0, (int, float), type=float)
    seed: int = _setting("seed", "perturbation seed", 0, (int,), type=int)
    out: str | None = _setting("out", "output file (pipeline: output directory)", None)
    bias: BiasConfig = field(init=False)

    def __post_init__(self) -> None:
        for key, parse in (("alpha", lambda v: Fraction(str(v))), ("bias_magnitude", float)):
            try:
                setattr(self, key, parse(getattr(self, key)))
            except (ArithmeticError, ValueError):
                raise ValueError(f"{key} must be a finite number, got {getattr(self, key)!r}") from None
        self.bias = BiasConfig(self.bias_mode, self.bias_magnitude, self.seed)


_SETTINGS = [f for f in fields(RunConfig) if f.metadata]
# config-file key -> (parsed-argument attribute, accepted JSON value types)
_CONFIG_KEYS = {f.metadata["key"]: (f.name, f.metadata["types"]) for f in _SETTINGS}


def _read_config(path: str) -> dict[str, object]:
    """The config file's values by parsed-argument attribute; JSON null means unset."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON, or bytes that are not UTF-8
        raise ValueError(f"{path}: invalid JSON config: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        types = _CONFIG_KEYS[key][1]
        # An exact type test, since JSON true and false load as bool, a subclass of int.
        if value is not None and type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise ValueError(f"config key {key!r} must be {names}, got {json.dumps(value)}")
    return {_CONFIG_KEYS[key][0]: value for key, value in raw.items() if value is not None}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and flags; explicit flags win.

    Only the settings given are passed on, so every default is
    :class:`RunConfig`'s. An empty string counts as unset, except for
    ``alpha``, where it is a malformed number.
    """
    values = _read_config(args.config) if args.config else {}
    values.update((attr, flag) for attr, _ in _CONFIG_KEYS.values() if (flag := getattr(args, attr)) is not None)
    values = {attr: value for attr, value in values.items() if value != "" or attr == "alpha"}
    for f in _SETTINGS:  # a flag's choices are checked by the parser, so only a config value can fail here
        choices = f.metadata["options"].get("choices")
        if choices and f.name in values and values[f.name] not in choices:
            got = json.dumps(values[f.name])
            raise ValueError(f"config key {f.metadata['key']!r} must be one of {', '.join(choices)}, got {got}")
    if "corpus" not in values:
        raise ValueError("a corpus is required (--corpus or a config file)")
    return RunConfig(**values)


def _load_stopwords(path: str) -> frozenset[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: stopwords file is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return frozenset(word for line in text.splitlines() for word in tokenize(line))


def _write(text: str, out: str | Path | None = None) -> None:
    """Write ``text`` to stdout, or to the file ``out``.

    A file is written to a temporary file beside it and renamed into
    place, so a reader sees the old file or the new one, never a partial
    write.
    """
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class StageResult:
    """The results of :func:`run_stages`; a stage that did not run is None."""

    index: Index
    snippets: SnippetList | None = None
    context: Context | None = None
    graph: WordGraph | None = None
    cluster: MicroCluster | None = None
    tree: TreeCluster | None = None


def run_stages(cfg: RunConfig, term_text: str | None, last: str, lenient: bool = False) -> StageResult:
    """Load the index and run snippets, context, graph, cluster and tree.

    ``last`` is the stage to stop after: ``"index"`` (no term needed),
    ``"snippets"``, ``"context"`` or ``"tree"`` (built only for a non-empty
    cluster). A context that cannot be built (no snippets, or no word left
    after stopword removal) raises ``ValueError``, or with ``lenient`` ends the run.
    """
    # Checked here as well, before the corpus is read, so the message names the config key and flag.
    if last != "index" and cfg.per_doc_limit < 1:
        raise ValueError(f"limit must be at least 1, got {cfg.per_doc_limit}")
    result = StageResult(build_index(load_corpus(cfg.corpus, cfg.corpus_format)))
    if last == "index":
        return result
    result.snippets = extract_snippets(result.index, Term.parse(term_text), cfg.window, cfg.per_doc_limit)
    if last == "snippets":
        return result
    stopwords = _load_stopwords(cfg.stopwords) if cfg.stopwords else frozenset()
    try:
        result.context = build_context(result.snippets, result.index, stopwords)
    except ValueError:
        if lenient:
            return result
        raise
    if last == "context":
        return result
    result.graph = build_word_graph(result.context, result.index, cfg.measure)
    result.cluster = micro_cluster(result.graph, result.context, cfg.alpha)
    if not result.cluster.is_empty:
        result.tree = optimal_micro_cluster(result.cluster)
    return result


def _shades(result: StageResult) -> dict:
    return {
        "cluster": shade_to_dict(mirror_shade(result.cluster.words, result.index)),
        "tree": shade_to_dict(mirror_shade(result.tree.words, result.index)),
    }


def _index_payload(result: StageResult, *_) -> dict:
    index = result.index
    return {"documents": index.universe_size, "unique_tokens": len(index.postings),
            "total_tokens": index.total_tokens}


def _query_payload(result: StageResult, args: argparse.Namespace, cfg: RunConfig) -> dict:
    index, terms = result.index, [Term.parse(raw) for raw in args.terms]
    if len(terms) == 1:
        return {"term": terms[0].text, "count": count_value(hit_count(singleton(index, terms[0]), cfg.bias))}
    both = doubleton(index, terms[0], terms[1])
    return {
        "terms": [t.text for t in terms],
        "counts": [count_value(hit_count(singleton(index, t), cfg.bias)) for t in terms],
        "doubleton": count_value(hit_count(both, cfg.bias)),
    }


def _cluster_payload(result: StageResult, *_) -> dict:
    mc = result.cluster
    return {
        "graph": graph_to_dict(result.graph),
        "cluster": {"alpha": rational_str(mc.alpha), "words": list(mc.words), "empty": mc.is_empty},
        "tree": None if result.tree is None else tree_to_dict(result.tree),
    }


def _shade_payload(result: StageResult, *_) -> dict:
    shades = {"cluster": None, "tree": None} if result.tree is None else _shades(result)
    return {"alpha": rational_str(result.cluster.alpha), "empty": result.tree is None, **shades}


# command -> (last stage it runs, its stdout payload from the results, the arguments and the config)
_STAGE_COMMANDS = {
    "index": ("index", _index_payload),
    "query": ("index", _query_payload),
    "snippets": ("snippets", lambda result, *_: snippets_to_dict(result.snippets)),
    "context": ("context", lambda result, *_: context_to_dict(result.context)),
    "cluster": ("tree", _cluster_payload),
    "shade": ("tree", _shade_payload),
}


def cmd_stage(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if args.command == "query" and len(args.terms) not in (1, 2):
        raise ValueError("query takes one or two terms")
    last, payload = _STAGE_COMMANDS[args.command]
    _write(dump_json(payload(run_stages(cfg, args.term, last), args, cfg)), cfg.out)
    return 0


def run_pipeline(cfg: RunConfig, term_text: str) -> tuple[dict, dict[str, str]]:
    """Run every stage and the theorem check and collect the artifacts.

    Returns the report and a name-to-text map of the files to write.
    Empty intermediate stages are reported, never fatal.
    """
    result = run_stages(cfg, term_text, "tree", lenient=True)
    snippets, ctx, mc, tree = result.snippets, result.context, result.cluster, result.tree
    artifacts = {"snippets.json": dump_json(snippets_to_dict(snippets))}
    if ctx is not None:
        artifacts["context.json"] = dump_json(context_to_dict(ctx))
        artifacts["graph.dot"] = graph_to_dot(result.graph)
    if tree is not None:
        artifacts["tree.dot"] = tree_to_dot(tree)
        shades = _shades(result)
        artifacts["shade.json"] = dump_json(shades)
    report = {
        "term": snippets.term.text,
        "config": {
            "window": cfg.window,
            "per_doc_limit": cfg.per_doc_limit,
            "alpha": rational_str(cfg.alpha),
            "measure": cfg.measure,
        },
        "stages": {
            "snippets": {"count": snippets.n, "empty": snippets.n == 0},
            "context": {"words": 0 if ctx is None else len(ctx.words), "empty": ctx is None},
            "cluster": {"retained": 0 if mc is None else len(mc.words), "empty": mc is None or mc.is_empty},
            "tree": None if tree is None else {
                "vertices": len(tree.vertices),
                "edges": len(tree.edges),
                "components": tree.component_count,
            },
            "shade": None if tree is None else {"z": shades["cluster"]["z"]},
        },
        "theorem_check": None if tree is None else verify_theorem(tree, mc, result.index),
        "artifacts": sorted(artifacts) + ["report.json"],
    }
    artifacts["report.json"] = dump_json(report)
    return report, artifacts


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out_dir = Path(cfg.out or PIPELINE_DEFAULT_DIR)
    _, artifacts = run_pipeline(cfg, args.term)
    for name in set(_ARTIFACT_NAMES).difference(artifacts):
        (out_dir / name).unlink(missing_ok=True)
    for name, text in artifacts.items():
        _write(text, out_dir / name)
    _write(artifacts["report.json"])
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ValueError(message)  # reported by ``main``, as one line like any bad value


def build_parser() -> argparse.ArgumentParser:
    shared = _ArgumentParser(add_help=False)
    for f in _SETTINGS:
        shared.add_argument(f"--{f.metadata['key'].replace('_', '-')}", dest=f.name, **f.metadata["options"])
    shared.add_argument("--config", help="JSON config file; explicit flags override it")

    parser = _ArgumentParser(
        prog="termspace",
        description="Deterministic search engine model: event spaces, snippets, "
        "word weights, relation graphs, spanning-tree clusters, shade vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are ``_ArgumentParser``s too

    for name, help_text in (
        ("index", "index the corpus and print a summary"),
        ("query", "count documents for one or two terms"),
        ("snippets", "extract word windows around a term"),
        ("context", "build the weighted word set of a term"),
        ("cluster", "build the relation graph, threshold cluster, and tree"),
        ("shade", "export the shade vectors of the cluster and its tree"),
        ("pipeline", "run every stage and write the artifact bundle"),
    ):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.set_defaults(func=cmd_pipeline if name == "pipeline" else cmd_stage, term=None)
        if name == "query":
            p.add_argument("terms", nargs="+", metavar="TERM")
        elif name != "index":
            p.add_argument("term", metavar="TERM")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)  # one line, even for a path with a newline
        return 1
