"""Command-line interface.

Subcommands: ``mine`` (build the structure/substructure catalog),
``train`` (fit per-substructure predictors), ``generate`` (trace query
generation for one question), ``eval`` (cross-validated end-to-end
metrics), ``ablate`` (compare pipeline settings) and ``noisy-linking``
(clean vs distractor-injected linking). Paths default to the bundled
movie-domain fixtures so every subcommand runs out of the box.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import fields, replace
from io import StringIO
from pathlib import Path

from .evaluation import PipelineConfig, load_dataset, run_pipeline
from .grounding import DictionaryLinker, load_candidates
from .io import write_json, write_text
from .kb import format_answer, load_kb
from .merging import MergeConfig
from .mining import load_catalog, mine, save_catalog
from .pipeline import SETTINGS, QueryGenerator
from .predictor import (TrainConfig, load_models, save_models, train,
                        train_structure_classifier)
from .ranking import write_ranked_jsonl
from .sparql import load_prefixes, serialize_query
from .toydata import data_dir


ALL = ("mine", "train", "generate", "eval", "ablate", "noisy-linking")
TRAINED = ALL[1:]           # fit predictors
LINKED = ALL[2:]            # link, merge and ground against a KB
CROSS_VALIDATED = ALL[3:]

# Each flag once, with the commands that read it. A config flag's dest is
# the name of the field it sets and it has no default of its own: a field
# that no flag sets keeps its dataclass default.
FLAGS = [
    ("--dataset", ALL, dict(type=Path, help="JSON dataset (default: bundled mini dataset)")),
    ("--prefixes", ALL, dict(type=Path, help="JSON prefix table for the parser")),
    ("--gamma", ALL, dict(type=int, help="frequency threshold (strictly more than)")),
    ("--kb", LINKED, dict(type=Path, help="triple file (default: bundled toy KB)")),
    ("--schema", LINKED, dict(type=Path, help="domain/range/disjoint file (default: bundled)")),
    ("--gazetteer", LINKED, dict(type=Path, help="linker gazetteer TSV (default: bundled)")),
    ("--K", LINKED, dict(dest="k_max", type=int, help="merge iterations")),
    ("--theta", LINKED, dict(type=float, help="score threshold")),
    ("--tau", LINKED, dict(type=int, help="max triples after merge")),
    ("--delta", LINKED, dict(type=int, help="max aggregations")),
    ("--top-k", LINKED, dict(type=int, help="grounded queries kept")),
    ("--setting", ("generate", "eval", "noisy-linking"), dict(choices=SETTINGS)),
    ("--predictor", TRAINED, dict(choices=("bilstm", "bow", "oracle"))),
    ("--seed", TRAINED, dict(type=int, help="fold split and training seed")),
    ("--epochs", TRAINED, dict(type=int)),
    ("--d-e", TRAINED, dict(type=int, help="embedding size")),
    ("--d-h", TRAINED, dict(type=int, help="BiLSTM hidden size")),
    ("--learning-rate", TRAINED, dict(type=float)),
    ("--batch-size", TRAINED, dict(type=int)),
    ("--patience", TRAINED, dict(type=int, help="early-stopping patience in epochs")),
    ("--folds", CROSS_VALIDATED, dict(type=int)),
    ("--linking", CROSS_VALIDATED, dict(choices=("gold", "gazetteer"))),
    ("--dev-policy", CROSS_VALIDATED, dict(choices=("fraction", "stratified"))),
    # the noisy run's, on purpose not the config's 0: the clean run injects none
    ("--distractors", ("noisy-linking",), dict(
        type=int, default=4, help="distractors per linking candidate")),
    ("--factor", ("noisy-linking",), dict(dest="distractor_factor", type=float,
                                          help="distractor score factor")),
    ("--out", ("mine",), dict(type=Path, default=Path("catalog.json"))),
    ("--out", ("train",), dict(type=Path, default=Path("models"))),
    ("--catalog", ("train", "generate"), dict(type=Path)),
    ("--models", ("generate",), dict(type=Path)),
    ("--candidates", ("generate",), dict(
        type=Path, help="per-question linking candidates JSON (bypasses the linker)")),
    ("--dump-ranked", ("generate",), dict(
        type=Path, help="write the ranked structure list as JSON lines")),
    ("--dump-merged", ("generate",), dict(
        type=Path, help="write the per-round merge sets as JSON")),
    ("--report", CROSS_VALIDATED, dict(type=Path)),
    ("question", ("generate",), {}),
]


def _add_flags(parser, command):
    """The flags that ``command`` reads."""
    for flag, commands, kwargs in FLAGS:
        if command in commands:
            parser.add_argument(flag, **kwargs)


def _pipeline_config(args) -> PipelineConfig:
    """The config that the given flags set, by field name (so ``--seed``
    sets both seeds); every other field keeps its dataclass default."""
    given = {name: value for name, value in vars(args).items() if value is not None}

    def given_fields(cls):
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return PipelineConfig(**given_fields(PipelineConfig),
                          merge=MergeConfig(**given_fields(MergeConfig)),
                          train=TrainConfig(**given_fields(TrainConfig)))


def _default(path_flag, name):
    return path_flag if path_flag else data_dir() / name


def _load_dataset(args):
    prefixes = load_prefixes(args.prefixes) if args.prefixes else None
    return load_dataset(_default(args.dataset, "mini_dataset.json"), prefixes)


def _load_inputs(args):
    dataset = _load_dataset(args)
    kb = load_kb(_default(args.kb, "toy_kb.tsv"),
                 _default(args.schema, "toy_schema.txt"))
    linker = DictionaryLinker.from_file(_default(args.gazetteer, "toy_gazetteer.tsv"))
    return dataset, kb, linker


def cmd_mine(args):
    dataset = _load_dataset(args)
    gamma = args.config.gamma
    catalog = mine(dataset.pairs, gamma)
    save_catalog(catalog, args.out)
    print(f"mined {len(dataset.pairs)} pairs -> {len(catalog.structures)} structures, "
          f"{len(catalog.substructures)} frequent substructures (gamma={gamma})")
    print(f"catalog written to {args.out}")


def cmd_train(args):
    dataset = _load_dataset(args)
    config = args.config
    catalog = load_catalog(args.catalog) if args.catalog else mine(dataset.pairs,
                                                                   config.gamma)
    models = train(dataset.pairs, catalog, config.train, predictor=config.predictor)
    save_models(models, args.out, config.train)
    # a constant model (degenerate labels) has a NaN accuracy, which
    # ``sorted`` cannot order
    accs = sorted(m.dev_accuracy for m in models.values() if not math.isnan(m.dev_accuracy))
    summary = (f"; dev accuracy of the others min={accs[0]:.3f} "
               f"median={accs[len(accs) // 2]:.3f}" if accs else "")
    print(f"trained {len(models)} substructure predictors, "
          f"{len(models) - len(accs)} constant{summary}")
    print(f"models written to {args.out}")


def cmd_generate(args):
    dataset, kb, linker = _load_inputs(args)
    config = args.config
    catalog = load_catalog(args.catalog) if args.catalog else mine(dataset.pairs,
                                                                   config.gamma)
    models, classifier = {}, None
    if config.setting == "rank-wo-sub":
        classifier = train_structure_classifier(dataset.pairs, catalog, config.train)
    elif args.models:
        models = load_models(args.models)
    else:
        models = train(dataset.pairs, catalog, config.train, predictor=config.predictor)
    generator = QueryGenerator(catalog, models, kb, config.merge, top_k=config.top_k,
                               setting=config.setting, structure_classifier=classifier)
    if args.candidates:
        candidates = load_candidates(args.candidates)
        spans = sorted({c.span for c in candidates
                        if c.kind == "entity" and c.span is not None})
    else:
        spans, candidates = linker.link(args.question)
    rounds = [] if args.dump_merged else None
    trace = generator.generate(args.question, spans, candidates, rounds_out=rounds)
    if args.dump_ranked:
        buf = StringIO()
        write_ranked_jsonl(trace.ranked, buf)
        write_text(args.dump_ranked, buf.getvalue())
    if args.dump_merged:
        write_json(args.dump_merged, rounds)
    print(f"question: {args.question}")
    print(f"tokens:   {' '.join(trace.tokens)}")
    top = trace.top_probabilities(4)
    if top:
        print("\ntop substructure probabilities:")
    for key, p in top:
        print(f"  {p:.3f}  {catalog.substructures[key].representative}")
    print("\nranked structures:")
    for s in trace.ranked[:5]:
        print(f"  {s.score:.3f} [{s.provenance}] {s.representative}")
    if trace.merged:
        print(f"\nmerged candidates: {len(trace.merged)}")
    print("\ngrounded queries:")
    if trace.error:
        print(f"  (none: {trace.error})")
    for r in trace.results:
        print(f"  {serialize_query(r.query)}")
        print(f"    -> {format_answer(r.answers)}")


def cmd_eval(args):
    warnings.filterwarnings("ignore", category=UserWarning)
    dataset, kb, linker = _load_inputs(args)
    report = run_pipeline(dataset, kb, args.config, linker)
    print(report.summary())
    if args.report:
        write_json(args.report, report.to_json())
        print(f"report written to {args.report}")


def cmd_ablate(args):
    warnings.filterwarnings("ignore", category=UserWarning)
    dataset, kb, linker = _load_inputs(args)
    reports = {}
    for setting in SETTINGS:
        reports[setting] = run_pipeline(dataset, kb, replace(args.config, setting=setting),
                                        linker)
    print(f"{'setting':18s} {'F1':>14s} {'P@1':>14s} {'P@5':>14s}")
    for setting, report in reports.items():
        f1m, f1s = report.f1
        p1m, p1s = report.precision_at_1
        p5m, p5s = report.precision_at_5
        print(f"{setting:18s} {f1m:.3f}±{f1s:.3f}   {p1m:.3f}±{p1s:.3f}   "
              f"{p5m:.3f}±{p5s:.3f}")
    if args.report:
        write_json(args.report, {s: r.to_json() for s, r in reports.items()})


def cmd_noisy(args):
    warnings.filterwarnings("ignore", category=UserWarning)
    dataset, kb, linker = _load_inputs(args)
    # the config is the noisy run's; the clean run injects no distractors
    clean = run_pipeline(dataset, kb, replace(args.config, distractors=0), linker)
    noisy = run_pipeline(dataset, kb, args.config, linker)
    print(f"{'run':8s} {'P@1':>14s} {'P@5':>14s}")
    for label, rep in (("clean", clean), ("noisy", noisy)):
        p1m, p1s = rep.precision_at_1
        p5m, p5s = rep.precision_at_5
        print(f"{label:8s} {p1m:.3f}±{p1s:.3f}   {p5m:.3f}±{p5s:.3f}")
    dp1 = clean.precision_at_1[0] - noisy.precision_at_1[0]
    dp5 = clean.precision_at_5[0] - noisy.precision_at_5[0]
    print(f"degradation: P@1 -{dp1:.3f}, P@5 -{dp5:.3f}")
    if args.report:
        write_json(args.report, {"clean": clean.to_json(), "noisy": noisy.to_json()})


def parse_args(argv=None):
    """The parsed ``argv`` with its config (``args.config``), built before
    any input is read; a setting that cannot be honoured is a usage error."""
    parser = argparse.ArgumentParser(
        prog="kbqg",
        description="Formal query generation over knowledge bases")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary in (
            ("mine", cmd_mine, "mine structures and frequent substructures"),
            ("train", cmd_train, "train per-substructure predictors"),
            ("generate", cmd_generate, "generate a query for one question"),
            ("eval", cmd_eval, "cross-validated end-to-end evaluation"),
            ("ablate", cmd_ablate, "compare pipeline settings"),
            ("noisy-linking", cmd_noisy, "clean vs distractor-injected linking")):
        p = sub.add_parser(command, help=summary)
        _add_flags(p, command)
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        args.config = config = _pipeline_config(args)
    except ValueError as err:
        parser.error(str(err))
    if getattr(args, "models", None) and config.setting == "rank-wo-sub":
        parser.error("--models cannot be used with --setting rank-wo-sub")
    if config.predictor == "oracle" and args.command in ("train", "generate"):
        parser.error(f"--predictor oracle reads gold queries, which {args.command} "
                     "does not have; use eval, ablate or noisy-linking")
    return args


def main(argv=None):
    args = parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
