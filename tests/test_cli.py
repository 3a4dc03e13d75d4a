"""CLI smoke tests over the bundled fixtures, using the fast predictors."""

import json
import re
from operator import attrgetter
from types import SimpleNamespace

import pytest

from kbqg import cli
from kbqg.cli import main
from kbqg.evaluation import PipelineConfig
from kbqg.grounding import LinkingCandidate, save_candidates
from kbqg.merging import ROUND_COUNTS
from kbqg.pipeline import QueryGenerator
from kbqg.predictor import DegenerateLabelWarning
from kbqg.toydata import data_dir


def test_mine_writes_catalog(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    main(["mine", "--gamma", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["gamma"] == 2
    assert len(doc["structures"]) == 9
    assert "frequent substructures" in capsys.readouterr().out


def test_train_and_generate(tmp_path, capsys):
    catalog = tmp_path / "catalog.json"
    models = tmp_path / "models"
    main(["mine", "--gamma", "2", "--out", str(catalog)])
    main(["train", "--gamma", "2", "--catalog", str(catalog),
          "--predictor", "bow", "--out", str(models)])
    assert (models / "manifest.json").exists()
    capsys.readouterr()
    main(["generate", "--gamma", "2", "--catalog", str(catalog),
          "--models", str(models), "--setting", "rank-w-sub",
          "who directed The Shining?"])
    out = capsys.readouterr().out
    assert "ranked structures" in out
    assert ":S_Kubrick" in out
    assert "    -> {:S_Kubrick}\n" in out


def test_train_summarizes_the_accuracy_of_models_that_are_not_constant(tmp_path, capsys,
                                                                        monkeypatch):
    # question types s2, s5 and s8 give one substructure a degenerate label
    # set, and its constant model a NaN accuracy
    questions = json.loads((data_dir() / "mini_dataset.json").read_text())
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps([q for q in questions
                                   if q["id"].split("-")[0] in ("s2", "s5", "s8")]))
    with pytest.warns(DegenerateLabelWarning):
        main(["train", "--dataset", str(dataset), "--gamma", "2", "--predictor", "bow",
              "--out", str(tmp_path / "models")])
    assert ("trained 6 substructure predictors, 1 constant; "
            "dev accuracy of the others min=1.000 median=1.000\n") in capsys.readouterr().out
    # ``sorted`` leaves [0.5, nan, 0.25] as it is
    accuracies = [0.5, float("nan"), 0.25]
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: {
        i: SimpleNamespace(dev_accuracy=acc) for i, acc in enumerate(accuracies)})
    monkeypatch.setattr(cli, "save_models", lambda *args: None)
    main(["train", "--gamma", "2", "--predictor", "bow", "--out", str(tmp_path / "unused")])
    assert ("trained 3 substructure predictors, 1 constant; "
            "dev accuracy of the others min=0.250 median=0.500\n") in capsys.readouterr().out


def test_mine_and_train_read_only_the_dataset(tmp_path, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("mine and train need no KB or gazetteer")

    monkeypatch.setattr(cli, "load_kb", unused)
    monkeypatch.setattr(cli.DictionaryLinker, "from_file", unused)
    catalog = tmp_path / "catalog.json"
    main(["mine", "--gamma", "2", "--out", str(catalog)])
    main(["train", "--gamma", "2", "--catalog", str(catalog), "--predictor", "bow",
          "--out", str(tmp_path / "models")])
    out = capsys.readouterr().out
    assert "catalog written to" in out
    assert "models written to" in out


def test_generate_with_an_ambiguous_mention_in_a_candidate_file(tmp_path, capsys):
    candidates = tmp_path / "cands.json"
    span = (19, 34)
    save_candidates([
        LinkingCandidate("Stanley Kubrick", "entity", ":S_Kubrick", 1.0, span),
        LinkingCandidate("Stanley Kubrick", "entity", ":S_Spielberg", 0.5, span),
        LinkingCandidate("direct", "property", ":director", 1.0),
        LinkingCandidate("films", "class", ":Film", 1.0),
    ], candidates)
    main(["generate", "--gamma", "2", "--predictor", "bow", "--setting", "rank-w-sub",
          "--candidates", str(candidates), "how many films did Stanley Kubrick direct?"])
    out = capsys.readouterr().out
    assert "tokens:   how many films did <entity> direct" in out
    assert "    -> =3\n" in out


def test_generate_dump_merged_rounds_from_a_stateless_generator(tmp_path, capsys,
                                                                monkeypatch):
    unchanged = []

    class Checked(QueryGenerator):
        def generate(self, *args, **kwargs):
            before = dict(vars(self))
            trace = super().generate(*args, **kwargs)
            after = vars(self)
            unchanged.append(before.keys() == after.keys()
                             and all(after[k] is v for k, v in before.items()))
            return trace

    monkeypatch.setattr(cli, "QueryGenerator", Checked)
    dump = tmp_path / "merged.json"
    main(["generate", "--setting", "full", "--predictor", "bow", "--gamma", "2",
          "--dump-merged", str(dump), "how many films did Stanley Kubrick direct?"])
    assert "-> =3" in capsys.readouterr().out
    assert unchanged == [True]
    rounds = json.loads(dump.read_text())
    assert [r["round"] for r in rounds] == list(range(len(rounds)))
    assert len(rounds) > 1
    for r in rounds:
        assert set(ROUND_COUNTS) <= r.keys()
        others = sum(r[c] for c in ROUND_COUNTS if c != "generated")
        assert r["generated"] == others + len(r["members"])


def test_generate_rank_wo_sub_ranks_with_a_structure_classifier(tmp_path, capsys,
                                                                 monkeypatch):
    def no_substructure_models(*args, **kwargs):
        raise AssertionError("rank-wo-sub trains no substructure predictors")

    monkeypatch.setattr(cli, "train", no_substructure_models)
    main(["generate", "--setting", "rank-wo-sub", "--predictor", "bow", "--gamma", "2",
          "who directed Jaws?"])
    out = capsys.readouterr().out
    assert "[existing]" in out
    assert "    -> {:S_Spielberg}\n" in out
    with pytest.raises(SystemExit):
        main(["generate", "--setting", "rank-wo-sub", "--models", str(tmp_path),
              "who directed Jaws?"])
    assert "--models cannot be used with --setting rank-wo-sub" in capsys.readouterr().err


def test_generate_prints_substructure_probabilities_only_when_there_are_some(capsys):
    main(["generate", "--setting", "rank-wo-sub", "--predictor", "bow", "--gamma", "2",
          "who directed Jaws?"])
    assert "top substructure probabilities" not in capsys.readouterr().out
    main(["generate", "--setting", "rank-w-sub", "--predictor", "bow", "--gamma", "2",
          "who directed Jaws?"])
    out = capsys.readouterr().out
    heading = out.index("top substructure probabilities:\n")
    assert out[heading:].splitlines()[1].startswith("  ")


def test_eval_oracle_single_fold(tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["eval", "--gamma", "2", "--predictor", "oracle", "--folds", "5",
          "--dev-policy", "stratified", "--setting", "rank-w-sub",
          "--report", str(report)])
    out = capsys.readouterr().out
    assert "F1=" in out
    doc = json.loads(report.read_text())
    assert doc["setting"] == "rank-w-sub"
    assert doc["aggregate"]["f1_mean"] > 0.9


@pytest.mark.parametrize("argv, message", [
    (["train", "--predictor", "oracle"], "--predictor oracle reads gold queries"),
    (["generate", "--predictor", "oracle", "who directed Jaws?"],
     "--predictor oracle reads gold queries"),
    (["eval", "--K", "0"], "k_max must be >= 1"),
    (["train", "--d-e", "0"], "dimensions must be positive"),
    (["train", "--batch-size", "0"], "batch_size must be positive"),
    (["mine", "--gamma", "-1"], "gamma must be >= 0"),
    (["eval", "--folds", "1"], "folds must be >= 2"),
    (["eval", "--folds", "0"], "folds must be >= 2"),
    (["eval", "--top-k", "0"], "top_k must be >= 1"),
    (["noisy-linking", "--distractors", "-1"], "distractors must be >= 0"),
], ids=["train-oracle", "generate-oracle", "eval-K-0", "train-d-e-0",
        "train-batch-size-0", "mine-gamma-negative", "eval-folds-1", "eval-folds-0",
        "eval-top-k-0", "noisy-linking-distractors-negative"])
def test_flags_that_cannot_be_honoured_are_usage_errors(tmp_path, capsys, argv, message):
    # a missing dataset shows that the flags are checked before any input is read
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--dataset", str(tmp_path / "missing.json")])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


# the options each command accepts
READ_BY_ALL = {"--dataset", "--prefixes", "--gamma"}
MERGING = {"--kb", "--schema", "--gazetteer", "--K", "--theta", "--tau", "--delta",
           "--top-k"}
TRAINING = {"--predictor", "--seed", "--epochs", "--d-e", "--d-h", "--learning-rate",
            "--batch-size", "--patience"}
CROSS_VALIDATION = {"--folds", "--linking", "--dev-policy", "--report"}
ACCEPTED = {
    "mine": READ_BY_ALL | {"--out"},
    "train": READ_BY_ALL | TRAINING | {"--catalog", "--out"},
    "generate": READ_BY_ALL | MERGING | TRAINING | {
        "--setting", "--catalog", "--models", "--candidates", "--dump-ranked",
        "--dump-merged"},
    "eval": READ_BY_ALL | MERGING | TRAINING | CROSS_VALIDATION | {"--setting"},
    "ablate": READ_BY_ALL | MERGING | TRAINING | CROSS_VALIDATION,
    "noisy-linking": READ_BY_ALL | MERGING | TRAINING | CROSS_VALIDATION | {
        "--setting", "--distractors", "--factor"},
}
# the dataset, merge, training and cross-validation flags
SHARED = READ_BY_ALL | MERGING | TRAINING | {"--setting", "--folds", "--linking",
                                              "--dev-policy"}
POSITIONAL = {"generate": ["who directed Jaws?"]}
# a value other than the default for each config flag, and the fields it sets
CONFIG_FLAGS = {
    "--gamma": ("3", ["gamma"]),
    "--K": ("3", ["merge.k_max"]),
    "--theta": ("0.5", ["merge.theta"]),
    "--tau": ("4", ["merge.tau"]),
    "--delta": ("1", ["merge.delta"]),
    "--top-k": ("3", ["top_k"]),
    "--setting": ("rank-w-sub", ["setting"]),
    "--predictor": ("bow", ["predictor"]),
    "--seed": ("7", ["seed", "train.seed"]),
    "--epochs": ("2", ["train.epochs"]),
    "--d-e": ("8", ["train.d_e"]),
    "--d-h": ("8", ["train.d_h"]),
    "--learning-rate": ("0.01", ["train.learning_rate"]),
    "--batch-size": ("4", ["train.batch_size"]),
    "--patience": ("2", ["train.patience"]),
    "--folds": ("3", ["folds"]),
    "--linking": ("gazetteer", ["linking"]),
    "--dev-policy": ("stratified", ["dev_policy"]),
    "--distractors": ("2", ["distractors"]),
    "--factor": ("0.5", ["distractor_factor"]),
}


@pytest.mark.parametrize("command", ACCEPTED)
def test_each_command_accepts_exactly_its_options(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
    assert options - {"--help"} == ACCEPTED[command]


@pytest.mark.parametrize("command", ACCEPTED)
def test_each_config_flag_sets_its_fields(command):
    defaults = PipelineConfig()
    flags = ACCEPTED[command] & CONFIG_FLAGS.keys()
    assert flags
    for flag in flags:
        value, paths = CONFIG_FLAGS[flag]
        config = cli.parse_args([command, flag, value] + POSITIONAL.get(command, [])).config
        for path in paths:
            get = attrgetter(path)
            expected = type(get(defaults))(value)
            assert expected != get(defaults)
            assert get(config) == expected, (command, flag, path)


@pytest.mark.parametrize("command", ACCEPTED)
def test_a_command_given_no_flags_builds_the_dataclass_defaults(command):
    config = cli.parse_args([command] + POSITIONAL.get(command, [])).config
    # the noisy run of ``noisy-linking`` injects distractors; its clean run
    # sets them to 0
    assert config == (PipelineConfig(distractors=4) if command == "noisy-linking"
                      else PipelineConfig())


def test_every_shared_flag_is_refused_by_the_commands_that_do_not_read_it(capsys):
    dropped = [(command, flag) for command in ACCEPTED
               for flag in sorted(SHARED - ACCEPTED[command])]
    assert len(dropped) == 36
    assert {("mine", "--theta"), ("train", "--setting"), ("generate", "--folds"),
            ("ablate", "--setting")} <= set(dropped)
    for command, flag in dropped:
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "1"] + POSITIONAL.get(command, []))
        assert exit_info.value.code == 2, (command, flag)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_noisy_linking_command(tmp_path, capsys):
    main(["noisy-linking", "--gamma", "2", "--predictor", "bow",
          "--dev-policy", "stratified", "--setting", "rank-w-sub",
          "--distractors", "2", "--factor", "0.9"])
    out = capsys.readouterr().out
    assert "degradation" in out
    assert "clean" in out and "noisy" in out
