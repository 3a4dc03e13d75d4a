"""Input files: every malformed input raises ``InputError`` naming the
file and the line or record; a fuzz over edited copies of the bundled and
saved files finds no other exception; the bundled dataset file has the
fixture's shape."""

import json
import logging
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbqg import nn
from kbqg.canon import canonical_key
from kbqg.evaluation import load_dataset
from kbqg.grounding import DictionaryLinker, LinkingCandidate, load_candidates, save_candidates
from kbqg.io import InputError, read_json
from kbqg.kb import load_kb, load_schema
from kbqg.mining import key_from_json, load_catalog, mine, save_catalog
from kbqg.predictor import (
    BowLogisticModel,
    ConstantModel,
    PredictorModel,
    load_models,
    preprocess,
    save_models,
)
from kbqg.sparql import load_prefixes
from kbqg.toydata import build_dataset, data_dir


def load_manifest(path):
    return load_models(path.parent)


GOOD_RECORD = {"question": "who directed Jaws?",
               "sparql": "SELECT ?p WHERE { :Jaws :director ?p }",
               "mentions": [{"start": 13, "end": 17}]}
MENTION_WITHOUT_START = dict(GOOD_RECORD, mentions=[{"end": 17}])
MENTION_PAST_THE_END = dict(GOOD_RECORD, mentions=[{"start": 13, "end": 40}])
MENTION_SURFACE_MISMATCH = dict(GOOD_RECORD, mentions=[{"start": 13, "end": 17,
                                                        "surface": "Duel"}])
# manifest entries of a constant model and of a bow model (without the
# name of its .npz file)
KEY = {"canonical": "x", "triple_count": 1, "agg_count": 0}
CONSTANT_ENTRY = {"key": KEY, "kind": "constant", "dev_accuracy": 1.0, "probability": 0.5}
BOW_ENTRY = {"key": KEY, "kind": "bow", "dev_accuracy": 1.0,
             "vocab": {"<entity>": 0, "<unk>": 1}}

# (loader, file name, content, where the error is)
MALFORMED = {
    "kb-two-fields": (load_kb, "kb.tsv", ":a\t:p\t:b\nonly\ttwo\n", 2),
    "kb-not-utf8": (load_kb, "kb.tsv", b":a\t:p\t:b\n:c\t:p\t:d\n:\xff\t:p\t:e\n", 3),
    "kb-empty-subject": (load_kb, "kb.tsv", ":a\t:p\t:b\n\t:p\t:o\n", 2),
    "kb-empty-property": (load_kb, "kb.tsv", ":s\t\t:o\n", 1),
    "kb-empty-object": (load_kb, "kb.tsv", ":a\ta\t:C\n:s\t:p\t\n", 2),
    "schema-bad-kind": (load_schema, "schema.txt", "# c\ndomain :p :C\nsubclass :C :D\n", 3),
    "schema-two-fields": (load_schema, "schema.txt", "range :p\n", 1),
    "gazetteer-two-fields": (DictionaryLinker.from_file, "gaz.tsv",
                             "jaws\tentity\t:Jaws\njaws :Jaws\n", 2),
    "gazetteer-unknown-kind": (DictionaryLinker.from_file, "gaz.tsv",
                               "jaws\tentity\t:Jaws\nkubrick\tentitty\t:S_Kubrick\n", 2),
    "gazetteer-empty-surface": (DictionaryLinker.from_file, "gaz.tsv",
                                "\tentity\t:T_Burton\n", 1),
    "gazetteer-empty-symbol": (DictionaryLinker.from_file, "gaz.tsv",
                               "# c\njaws\tentity\t\n", 2),
    "dataset-syntax": (load_dataset, "ds.json", '[\n {"question": "q",\n "sparql" "x"}\n]', 3),
    "dataset-nested-too-deep": (load_dataset, "ds.json", "[" * 100_000 + "]" * 100_000, 1),
    "dataset-integer-too-long": (load_dataset, "ds.json", "[" + "9" * 5000 + "]", 1),
    "dataset-not-an-array": (load_dataset, "ds.json", json.dumps(GOOD_RECORD), 1),
    "dataset-mention-without-start": (load_dataset, "ds.json",
                                      json.dumps([GOOD_RECORD, MENTION_WITHOUT_START]),
                                      "record 1"),
    "dataset-mention-past-the-end": (load_dataset, "ds.json",
                                     json.dumps([MENTION_PAST_THE_END]), "record 0"),
    "dataset-mention-surface-mismatch": (load_dataset, "ds.json",
                                         json.dumps([GOOD_RECORD, MENTION_SURFACE_MISMATCH]),
                                         "record 1"),
    "dataset-record-not-an-object": (load_dataset, "ds.json", '[["q", "SELECT"]]',
                                     "record 0"),
    "dataset-question-not-a-string": (load_dataset, "ds.json",
                                      json.dumps([dict(GOOD_RECORD, question=7)]),
                                      "record 0"),
    "catalog-wrong-version": (load_catalog, "catalog.json", '{"version": 99}', "version"),
    "catalog-key-without-canonical": (
        load_catalog, "catalog.json",
        json.dumps({"version": 1, "gamma": 2, "structures": [
            {"key": {"triple_count": 1, "agg_count": 0}, "count": 3,
             "representative": {}}]}),
        "structures[0]"),
    "catalog-structures-not-a-list": (
        load_catalog, "catalog.json", json.dumps({"version": 1, "structures": 5}),
        "structures"),
    "models-wrong-version": (load_manifest, "manifest.json", '{"models": []}', "version"),
    "models-version-1": (load_manifest, "manifest.json", '{"version": 1, "models": []}',
                         "version"),
    "models-entry-without-file": (
        load_manifest, "manifest.json",
        json.dumps({"version": 2, "models": [BOW_ENTRY]}), "models[0]"),
    "models-vocab-id-out-of-range": (
        load_manifest, "manifest.json",
        json.dumps({"version": 2, "models": [dict(BOW_ENTRY, file="m.npz",
                                                  vocab={"<entity>": 0, "<unk>": 2})]}),
        "models[0]"),
    "models-vocab-without-unk": (
        load_manifest, "manifest.json",
        json.dumps({"version": 2, "models": [dict(BOW_ENTRY, file="m.npz",
                                                  vocab={"<entity>": 0, "jaws": 1})]}),
        "models[0]"),
    "models-probability-above-one": (
        load_manifest, "manifest.json",
        json.dumps({"version": 2, "models": [dict(CONSTANT_ENTRY, probability=1.5)]}),
        "models[0]"),
    "models-probability-not-a-number": (
        load_manifest, "manifest.json",
        json.dumps({"version": 2, "models": [dict(CONSTANT_ENTRY, probability="high")]}),
        "models[0]"),
    "models-unknown-kind": (
        load_manifest, "manifest.json",
        json.dumps({"version": 2, "models": [dict(BOW_ENTRY, kind="other", file="m.npz")]}),
        "models[0]"),
    "candidates-not-an-array": (load_candidates, "cands.json", '{"mention": "x"}', 1),
    "candidates-group-without-mention": (
        load_candidates, "cands.json",
        json.dumps([{"kind": "entity", "candidates": [{"symbol": ":a", "score": 1}]}]),
        "group 0"),
    "candidates-span-of-three": (
        load_candidates, "cands.json",
        json.dumps([{"mention": "x", "kind": "entity", "span": [1, 2, 3],
                     "candidates": []}]),
        "group 0"),
    "candidates-score-not-a-number": (
        load_candidates, "cands.json",
        json.dumps([{"mention": "x", "kind": "entity",
                     "candidates": [{"symbol": ":a", "score": "high"}]}]),
        "group 0"),
    "prefixes-a-list": (load_prefixes, "prefixes.json", '["rdf"]', 1),
    "prefixes-iri-not-a-string": (load_prefixes, "prefixes.json", '{"ex": 1}', 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_file_and_place(tmp_path, case):
    loader, name, content, where = MALFORMED[case]
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(InputError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}:{where}: ")
    assert info.value.path == path and info.value.where == where


@pytest.fixture
def models_of_each_kind():
    bilstm, bow, constant = mine(build_dataset(), 2).frequent_keys[:3]
    vocab = {"<entity>": 0, "<unk>": 1, "who": 2, "directed": 3}
    rng = np.random.default_rng(5)
    return {bilstm: PredictorModel(vocab, nn.init_params(len(vocab), 3, 2, 1, rng), 0.75),
            bow: BowLogisticModel(vocab, rng.normal(size=len(vocab) + 1), 0.5),
            constant: ConstantModel(0.3)}


def arrays_of(model) -> dict:
    if isinstance(model, PredictorModel):
        return model.params
    return {"weights": model.weights} if isinstance(model, BowLogisticModel) else {}


def test_models_of_each_kind_round_trip(tmp_path, models_of_each_kind):
    save_models(models_of_each_kind, tmp_path)
    entries = read_json(tmp_path / "manifest.json", 2)["models"]
    # a constant model gets no file, and a file holds only its model's arrays
    assert len(list(tmp_path.glob("*.npz"))) == 2
    for entry in entries:
        model = models_of_each_kind[key_from_json(entry["key"])]
        if isinstance(model, ConstantModel):
            assert "file" not in entry
        else:
            with np.load(tmp_path / entry["file"]) as data:
                assert sorted(data.files) == sorted(arrays_of(model))
    loaded = load_models(tmp_path)
    assert loaded.keys() == models_of_each_kind.keys()
    seq = preprocess("who directed Jaws?", [(13, 17)])
    for key, model in models_of_each_kind.items():
        assert type(loaded[key]) is type(model)
        assert loaded[key].predict_proba(seq) == model.predict_proba(seq)
        assert np.array_equal(loaded[key].dev_accuracy, model.dev_accuracy, equal_nan=True)
        assert arrays_of(loaded[key]).keys() == arrays_of(model).keys()
        for name, array in arrays_of(model).items():
            np.testing.assert_array_equal(arrays_of(loaded[key])[name], array)


def rewrite_arrays(directory, kind, edit):
    """Apply ``edit`` to the arrays of the saved ``kind`` model; its file."""
    entry = next(e for e in read_json(directory / "manifest.json")["models"]
                 if e["kind"] == kind)
    path = directory / entry["file"]
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    edit(arrays)
    np.savez(path, **arrays)
    return path


def test_load_models_names_the_model_file_of_a_bad_model(tmp_path, models_of_each_kind):
    save_models(models_of_each_kind, tmp_path)
    npz = rewrite_arrays(tmp_path, "bilstm", lambda arrays: arrays.pop("W_att"))
    with pytest.raises(InputError, match="W_att") as info:
        load_models(tmp_path)
    assert str(info.value).startswith(f"{npz}:arrays: ")


@pytest.mark.parametrize("kind, edit, message", [
    ("bilstm", lambda a: a.update(extra=np.zeros(1)), "found .*'extra'"),
    ("bilstm", lambda a: a.update(emb=a["emb"][:-1]),
     r"'emb' has shape \(3, 3\), expected \(4, 3\)"),
    ("bilstm", lambda a: a.update(emb=np.vstack([a["emb"], a["emb"]])), "'emb' has shape"),
    ("bilstm", lambda a: a.update(W_att=a["W_att"][:, :2]), "'W_att' has shape"),
    ("bilstm", lambda a: a.update(b_f=a["b_f"][:-1]), "has shape"),
    ("bow", lambda a: a.update(weights=a["weights"][:-1]),
     r"'weights' has shape \(4,\), expected \(5,\)"),
    ("bow", lambda a: a.update(weights=a["weights"][None]), "'weights' has shape"),
], ids=["bilstm-extra-array", "bilstm-emb-row-missing", "bilstm-emb-rows-doubled",
        "bilstm-W_att-shape", "bilstm-hidden-size", "bow-weights-short", "bow-weights-2d"])
def test_load_models_rejects_arrays_that_do_not_fit_the_model(tmp_path, models_of_each_kind,
                                                               kind, edit, message):
    save_models(models_of_each_kind, tmp_path)
    npz = rewrite_arrays(tmp_path, kind, edit)
    with pytest.raises(InputError, match=message) as info:
        load_models(tmp_path)
    assert info.value.path == npz and info.value.where == "arrays"


@pytest.mark.parametrize("content", [b"plain text\n", b"", b"PK\x03\x04truncated"],
                         ids=["text", "empty", "truncated-zip"])
def test_load_models_names_a_model_file_that_is_not_an_archive(tmp_path, content,
                                                                models_of_each_kind):
    save_models(models_of_each_kind, tmp_path)
    npz = rewrite_arrays(tmp_path, "bow", lambda arrays: None)
    npz.write_bytes(content)
    with pytest.raises(InputError) as info:
        load_models(tmp_path)
    assert info.value.path == npz and info.value.where == 1
    assert str(info.value).startswith(f"{npz}:1: ")


@pytest.mark.parametrize("table, index", [("substructures", 3), ("structures", 1)])
@pytest.mark.parametrize("field, edit", [
    ("triple_count", lambda n: n + 1),
    ("canonical", lambda s: s.replace("//", "|v//", 1)),
])
def test_load_catalog_rejects_a_key_that_is_not_its_representatives(tmp_path, table,
                                                                    index, field, edit):
    path = tmp_path / "catalog.json"
    save_catalog(mine(build_dataset(), 2), path)
    doc = json.loads(path.read_text())
    key = doc[table][index]["key"]
    key[field] = edit(key[field])
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="is not the key of its representative") as info:
        load_catalog(path)
    assert info.value.where == f"{table}[{index}]"


def test_load_dataset_skips_a_query_that_is_not_a_valid_graph(tmp_path, caplog):
    records = [GOOD_RECORD,
               {"question": "q", "sparql": "SELECT ?x WHERE { :A :p :B }"}]
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="kbqg.evaluation"):
        ds = load_dataset(path)
    assert [p.question for p in ds.pairs] == [GOOD_RECORD["question"]]
    assert ds.skipped == 1
    assert "not a vertex" in caplog.text


def test_the_bundled_dataset_has_the_fixture_shape():
    path = data_dir() / "mini_dataset.json"
    dataset = load_dataset(path)
    assert len(read_json(path)) == len(dataset.pairs) == 40
    assert dataset.skipped == 0
    # seven common structures with 5 questions each, two rare ones with 3 and 2
    counts = Counter(canonical_key(p.query) for p in dataset.pairs)
    assert sorted(counts.values()) == [2, 3] + [5] * 7
    assert all(len(p.mentions) == 1 for p in dataset.pairs)
    assert build_dataset() == dataset.pairs


# ---------------------------------------------------------------------------
# fuzz: edited copies of real files load or raise InputError, nothing else

@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    catalog = directory / "catalog.json"
    save_catalog(mine(build_dataset(), 2), catalog)
    candidates = directory / "cands.json"
    save_candidates([
        LinkingCandidate("stanley kubrick", "entity", ":S_Kubrick", 1.0, (19, 34)),
        LinkingCandidate("stanley kubrick", "entity", ":S_Spielberg", 0.4, (19, 34)),
        LinkingCandidate("direct", "property", ":director", 1.0),
    ], candidates)
    sources = {
        "dataset": (load_dataset, data_dir() / "mini_dataset.json"),
        "kb": (load_kb, data_dir() / "toy_kb.tsv"),
        "schema": (load_schema, data_dir() / "toy_schema.txt"),
        "gazetteer": (DictionaryLinker.from_file, data_dir() / "toy_gazetteer.tsv"),
        "catalog": (load_catalog, catalog),
        "candidates": (load_candidates, candidates),
    }
    return directory, {name: (loader, path.read_text(encoding="utf-8"))
                       for name, (loader, path) in sources.items()}


# characters that matter to the formats, letters, digits and non-ASCII,
# or a whole JSON value
EDIT_TEXT = st.one_of(
    st.text(st.sampled_from(list('{}[]",:#\t\n -.0123456789aeknrstuxé?')), max_size=8),
    st.sampled_from(["null", "0", "-1", "1.5", '"x"', "[]", "{}", "[0]", "true"]))
# (replace a whole token?, relative position, slice length, new text)
EDITS = st.lists(st.tuples(st.booleans(), st.floats(0, 1), st.floats(0, 1), EDIT_TEXT),
                 min_size=1, max_size=4)
# a JSON string, number or literal
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?|true|false|null')


def edited(text: str, edits) -> str:
    """Apply each edit at its relative position: replace the next token, so
    that a JSON file can stay well formed, or a slice of up to 12
    characters."""
    for whole_token, start, length, insert in edits:
        i = int(start * len(text))
        j = min(len(text), i + int(length * 12))
        token = TOKEN.search(text, i) if whole_token else None
        if token:
            i, j = token.span()
        text = text[:i] + insert + text[j:]
    return text


@pytest.mark.parametrize("name", ["dataset", "kb", "schema", "gazetteer", "catalog",
                                  "candidates"])
def test_edited_input_loads_or_raises_input_error(fuzz_sources, name):
    directory, sources = fuzz_sources
    loader, text = sources[name]
    path = directory / f"edited-{name}"

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(EDITS)
    def check(edits):
        path.write_text(edited(text, edits), encoding="utf-8")
        try:
            loader(path)
        except InputError as exc:
            assert str(exc).startswith(f"{path}:")

    check()
