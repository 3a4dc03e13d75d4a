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
from io import StringIO
from pathlib import Path

from .evaluation import (
    PipelineConfig,
    load_dataset,
    run_pipeline,
)
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


def _default(path_flag, name):
    return path_flag if path_flag else data_dir() / name


def _add_common(parser):
    parser.add_argument("--dataset", type=Path, default=None,
                        help="JSON dataset (default: bundled mini dataset)")
    parser.add_argument("--kb", type=Path, default=None,
                        help="triple file (default: bundled toy KB)")
    parser.add_argument("--schema", type=Path, default=None,
                        help="domain/range/disjoint file (default: bundled)")
    parser.add_argument("--gazetteer", type=Path, default=None,
                        help="linker gazetteer TSV (default: bundled)")
    parser.add_argument("--prefixes", type=Path, default=None,
                        help="JSON prefix table for the parser")
    parser.add_argument("--gamma", type=int, default=30,
                        help="frequency threshold (strictly more than)")
    parser.add_argument("--K", type=int, default=2, help="merge iterations")
    parser.add_argument("--theta", type=float, default=0.3, help="score threshold")
    parser.add_argument("--tau", type=int, default=5, help="max triples after merge")
    parser.add_argument("--delta", type=int, default=2, help="max aggregations")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--setting", choices=SETTINGS, default="full")
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument("--predictor", choices=("bilstm", "bow", "oracle"),
                        default="bilstm")
    parser.add_argument("--linking", choices=("gold", "gazetteer"), default="gold")
    parser.add_argument("--dev-policy", choices=("fraction", "stratified"),
                        default="fraction")
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--d-e", type=int, default=100)
    parser.add_argument("--d-h", type=int, default=128)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--patience", type=int, default=5)


def _load_dataset(args):
    prefixes = load_prefixes(args.prefixes) if args.prefixes else None
    return load_dataset(_default(args.dataset, "mini_dataset.json"), prefixes)


def _load_inputs(args):
    dataset = _load_dataset(args)
    kb = load_kb(_default(args.kb, "toy_kb.tsv"),
                 _default(args.schema, "toy_schema.txt"))
    linker = DictionaryLinker.from_file(_default(args.gazetteer, "toy_gazetteer.tsv"))
    return dataset, kb, linker


def _pipeline_config(args, **overrides):
    cfg = dict(
        gamma=args.gamma,
        merge=MergeConfig(k_max=args.K, theta=args.theta, tau=args.tau,
                          delta=args.delta),
        train=TrainConfig(d_e=args.d_e, d_h=args.d_h,
                          learning_rate=args.learning_rate, epochs=args.epochs,
                          batch_size=args.batch_size, patience=args.patience,
                          seed=args.seed,
                          arch=args.predictor if args.predictor != "oracle"
                          else "bilstm"),
        top_k=args.top_k, folds=args.folds, seed=args.seed,
        setting=args.setting, predictor=args.predictor, linking=args.linking,
        dev_policy=args.dev_policy,
    )
    cfg.update(overrides)
    return PipelineConfig(**cfg)


def cmd_mine(args):
    dataset = _load_dataset(args)
    catalog = mine(dataset.pairs, args.gamma)
    save_catalog(catalog, args.out)
    print(f"mined {len(dataset.pairs)} pairs -> {len(catalog.structures)} structures, "
          f"{len(catalog.substructures)} frequent substructures (gamma={args.gamma})")
    print(f"catalog written to {args.out}")


def cmd_train(args):
    dataset = _load_dataset(args)
    catalog = load_catalog(args.catalog) if args.catalog else mine(dataset.pairs,
                                                                   args.gamma)
    cfg = _pipeline_config(args).train
    models = train(dataset.pairs, catalog, cfg)
    save_models(models, args.out, cfg)
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
    catalog = load_catalog(args.catalog) if args.catalog else mine(dataset.pairs,
                                                                   args.gamma)
    config = _pipeline_config(args)
    models, classifier = {}, None
    if config.setting == "rank-wo-sub":
        classifier = train_structure_classifier(dataset.pairs, catalog, config.train)
    elif args.models:
        models = load_models(args.models)
    else:
        models = train(dataset.pairs, catalog, config.train)
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


def _print_report(report):
    print(report.summary())


def cmd_eval(args):
    warnings.filterwarnings("ignore", category=UserWarning)
    dataset, kb, linker = _load_inputs(args)
    config = _pipeline_config(args)
    report = run_pipeline(dataset, kb, config, linker)
    _print_report(report)
    if args.report:
        write_json(args.report, report.to_json())
        print(f"report written to {args.report}")


def cmd_ablate(args):
    warnings.filterwarnings("ignore", category=UserWarning)
    dataset, kb, linker = _load_inputs(args)
    reports = {}
    for setting in SETTINGS:
        config = _pipeline_config(args, setting=setting)
        reports[setting] = run_pipeline(dataset, kb, config, linker)
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
    clean = run_pipeline(dataset, kb, _pipeline_config(args), linker)
    noisy = run_pipeline(dataset, kb,
                         _pipeline_config(args, distractors=args.distractors,
                                          distractor_factor=args.factor),
                         linker)
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kbqg",
        description="Formal query generation over knowledge bases")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine structures and frequent substructures")
    _add_common(p)
    p.add_argument("--out", type=Path, default=Path("catalog.json"))
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train per-substructure predictors")
    _add_common(p)
    p.add_argument("--catalog", type=Path, default=None)
    p.add_argument("--out", type=Path, default=Path("models"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate a query for one question")
    _add_common(p)
    p.add_argument("--catalog", type=Path, default=None)
    p.add_argument("--models", type=Path, default=None)
    p.add_argument("--candidates", type=Path, default=None,
                   help="per-question linking candidates JSON (bypasses the linker)")
    p.add_argument("--dump-ranked", type=Path, default=None,
                   help="write the ranked structure list as JSON lines")
    p.add_argument("--dump-merged", type=Path, default=None,
                   help="write the per-round merge sets as JSON")
    p.add_argument("question")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="cross-validated end-to-end evaluation")
    _add_common(p)
    p.add_argument("--report", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare pipeline settings")
    _add_common(p)
    p.add_argument("--report", type=Path, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("noisy-linking", help="clean vs distractor-injected linking")
    _add_common(p)
    p.add_argument("--distractors", type=int, default=4)
    p.add_argument("--factor", type=float, default=0.9)
    p.add_argument("--report", type=Path, default=None)
    p.set_defaults(func=cmd_noisy)

    args = parser.parse_args(argv)
    if getattr(args, "models", None) and args.setting == "rank-wo-sub":
        parser.error("--models cannot be used with --setting rank-wo-sub")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
