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
from functools import cached_property
from pathlib import Path

from .engine import (
    BIAS_MODES,
    BiasConfig,
    Index,
    Term,
    _read_text,
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
    _retained,
    _threshold,
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
    """A :class:`Run` field: its default, config key and JSON value types, and its flag.

    The flag is ``--key`` with ``-`` for ``_``; ``options`` are its other
    ``add_argument`` keywords, and the help text names the default.
    """
    if default is not MISSING and default is not None:
        help = f"{help} (default {f'{default:g}' if isinstance(default, float) else default})"
    return field(default=default, metadata={"key": key, "types": types, "options": {"help": help, **options}})


@dataclass
class Run:
    """One command's settings and term, and its stages, each built the first time it is read.

    Each setting is declared once with its CLI default, config key and
    flag; ``alpha`` is parsed here, and the bias checked by :class:`BiasConfig`.
    A command builds only the stages its output reads, each once; a stage calls
    its builder by its name in this module, where a test or tracer may patch it.
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
    term: str | None = None  # the command's TERM; ``index`` and ``query`` have none
    bias: BiasConfig = field(init=False)

    def __post_init__(self) -> None:
        self.alpha = _threshold(self.alpha)
        self.bias = BiasConfig(self.bias_mode, self.bias_magnitude, self.seed)
        # Checked here as well, before the corpus is read, so the message names the config key and flag.
        if self.term is not None and self.per_doc_limit < 1:
            raise ValueError(f"limit must be at least 1, got {self.per_doc_limit}")

    @cached_property
    def index(self) -> Index:
        return build_index(load_corpus(self.corpus, self.corpus_format))

    @cached_property
    def snippets(self) -> SnippetList:
        return extract_snippets(self.index, Term.parse(self.term), self.window, self.per_doc_limit)

    @cached_property
    def stopword_set(self) -> frozenset[str]:
        return _load_stopwords(self.stopwords) if self.stopwords else frozenset()

    @cached_property
    def context(self) -> Context:
        """Raises ``ValueError`` when there is none: no snippets, or no word left after stopword removal."""
        return build_context(self.snippets, self.index, self.stopword_set)

    @cached_property
    def graph(self) -> WordGraph:
        return build_word_graph(self.context, self.index, self.measure)

    @cached_property
    def cluster(self) -> MicroCluster:
        return micro_cluster(self.graph, self.context, self.alpha)

    @cached_property
    def tree(self) -> TreeCluster | None:
        """The cluster's tree, or None for an empty cluster."""
        return None if self.cluster.is_empty else optimal_micro_cluster(self.cluster)


_SETTINGS = [f for f in fields(Run) if f.metadata]
# config-file key -> (parsed-argument attribute, accepted JSON value types)
_CONFIG_KEYS = {f.metadata["key"]: (f.name, f.metadata["types"]) for f in _SETTINGS}


def _read_config(path: str) -> dict[str, object]:
    """The config file's values by parsed-argument attribute; JSON null means unset."""
    text = _read_text(Path(path), "config file")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON
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


def resolve_config(args: argparse.Namespace) -> Run:
    """Merge config-file values and flags (explicit flags win) into the command's run.

    Only the settings given are passed on, so every default is
    :class:`Run`'s. An empty string counts as unset, except for
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
    return Run(**values, term=args.term)


def _load_stopwords(path: str) -> frozenset[str]:
    return frozenset(tokenize(_read_text(Path(path), "stopwords file")))


def _write(text: str, out: str | Path | None = None) -> None:
    """Write ``text`` to stdout, or to the file ``out``.

    A file is written to a temporary file beside it and renamed into
    place, so a reader sees the old file or the new one, never a partial
    write. An ``OSError`` names ``out``, and the temporary file is removed.
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful rename


def _shades(words: tuple[str, ...], index: Index) -> dict:
    # A tree keeps its cluster's words (``optimal_micro_cluster``), so one shade serves both.
    shade = shade_to_dict(mirror_shade(words, index)) if words else None
    return {"cluster": shade, "tree": shade}


def _index_payload(run: Run, _) -> dict:
    index = run.index
    return {"documents": len(index.documents), "unique_tokens": len(index.postings),
            "total_tokens": index.total_tokens}


def _query_payload(run: Run, args: argparse.Namespace) -> dict:
    if len(args.terms) not in (1, 2):  # before ``run.index``, so before the corpus is read
        raise ValueError("query takes one or two terms")
    index, terms = run.index, [Term.parse(raw) for raw in args.terms]
    if len(terms) == 1:
        return {"term": terms[0].text, "count": count_value(hit_count(singleton(index, terms[0]), run.bias))}
    both = doubleton(index, terms[0], terms[1])
    return {
        "terms": [t.text for t in terms],
        "counts": [count_value(hit_count(singleton(index, t), run.bias)) for t in terms],
        "doubleton": count_value(hit_count(both, run.bias)),
    }


def _cluster_payload(run: Run, _) -> dict:
    mc = run.cluster
    return {
        "graph": graph_to_dict(run.graph),
        "cluster": {"alpha": rational_str(mc.alpha), "words": list(mc.words), "empty": mc.is_empty},
        "tree": None if run.tree is None else tree_to_dict(run.tree),
    }


def _shade_payload(run: Run, _) -> dict:  # the cluster's words, read from the context: no graph is built
    words = _retained(run.context, run.alpha)
    return {"alpha": rational_str(run.alpha), "empty": not words, **_shades(words, run.index)}


# command -> (its help, its stdout payload from the run and the arguments)
_STAGE_COMMANDS = {
    "index": ("index the corpus and print a summary", _index_payload),
    "query": ("count documents for one or two terms", _query_payload),
    "snippets": ("extract word windows around a term", lambda run, _: snippets_to_dict(run.snippets)),
    "context": ("build the weighted word set of a term", lambda run, _: context_to_dict(run.context)),
    "cluster": ("build the relation graph, threshold cluster, and tree", _cluster_payload),
    "shade": ("export the shade vectors of the cluster and its tree", _shade_payload),
}


def cmd_stage(args: argparse.Namespace) -> int:
    run = resolve_config(args)
    _write(dump_json(_STAGE_COMMANDS[args.command][1](run, args)), run.out)
    return 0


def run_pipeline(run: Run) -> dict[str, str]:
    """Run every stage and the theorem check and collect the artifacts.

    Returns a name-to-text map of the files to write, ``report.json`` among them.
    Empty intermediate stages are reported, never fatal.
    """
    snippets, _ = run.snippets, run.stopword_set  # read first, so an unreadable stopwords file ends the run
    try:
        ctx = run.context
    except ValueError:  # no context to build: reported as empty
        ctx = mc = tree = None
    else:
        mc, tree = run.cluster, run.tree
    artifacts = {"snippets.json": dump_json(snippets_to_dict(snippets))}
    if ctx is not None:
        artifacts["context.json"] = dump_json(context_to_dict(ctx))
        artifacts["graph.dot"] = graph_to_dot(run.graph)
    if tree is not None:
        artifacts["tree.dot"] = tree_to_dot(tree)
        shades = _shades(mc.words, run.index)
        artifacts["shade.json"] = dump_json(shades)
    artifacts["report.json"] = dump_json({
        "term": snippets.term.text,
        "config": {
            "window": run.window,
            "per_doc_limit": run.per_doc_limit,
            "alpha": rational_str(run.alpha),
            "measure": run.measure,
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
        "theorem_check": None if tree is None else verify_theorem(tree, mc, run.index),
        "artifacts": sorted(artifacts) + ["report.json"],
    })
    return artifacts


def cmd_pipeline(args: argparse.Namespace) -> int:
    run = resolve_config(args)
    out_dir = Path(run.out or PIPELINE_DEFAULT_DIR)
    artifacts = run_pipeline(run)
    # Removed first and written last, so a bundle without it is incomplete.
    (out_dir / "report.json").unlink(missing_ok=True)
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

    commands = {name: entry[0] for name, entry in _STAGE_COMMANDS.items()}
    for name, help_text in {**commands, "pipeline": "run every stage and write the artifact bundle"}.items():
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
