"""CLI smoke tests over the bundled fixtures, using the fast predictors."""

import json
from types import SimpleNamespace

import pytest

from kbqg import cli
from kbqg.cli import main
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
    monkeypatch.setattr(cli, "train", lambda *args: {
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
], ids=["train-oracle", "generate-oracle", "eval-K-0", "train-d-e-0"])
def test_flags_that_cannot_be_honoured_are_usage_errors(tmp_path, capsys, argv, message):
    # a missing KB shows that the flags are checked before any input is read
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--gamma", "2", "--epochs", "1", "--kb", str(tmp_path / "missing.tsv"),
                     "--dataset", str(tmp_path / "missing.json")])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_noisy_linking_command(tmp_path, capsys):
    main(["noisy-linking", "--gamma", "2", "--predictor", "bow",
          "--dev-policy", "stratified", "--setting", "rank-w-sub",
          "--distractors", "2", "--factor", "0.9"])
    out = capsys.readouterr().out
    assert "degradation" in out
    assert "clean" in out and "noisy" in out
