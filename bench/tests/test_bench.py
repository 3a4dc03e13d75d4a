"""The benchmark's own tests.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from kbqg.evaluation import load_dataset  # noqa: E402
from kbqg.kb import execute, load_kb  # noqa: E402
from kbqg.sparql import parse_query  # noqa: E402

import run  # noqa: E402
import scalegen  # noqa: E402
from kernels import run_kernels  # noqa: E402
from refeval import Answer, RefKB  # noqa: E402
from traced import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FIXTURE_DIR, RoundResult, Verdict  # noqa: E402

@pytest.fixture(scope="module")
def fixture_pairs():
    return load_dataset(FIXTURE_DIR / "mini_dataset.json").pairs


@pytest.fixture(scope="module")
def scale_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scale")
    scalegen.write_inputs(3, out)
    return out


def test_generator_is_deterministic_in_the_seed(scale_dir, tmp_path):
    scalegen.write_inputs(3, tmp_path / "same")
    scalegen.write_inputs(4, tmp_path / "other")
    for f in ("kb.tsv", "schema.txt", "dataset.json"):
        assert (scale_dir / f).read_bytes() == (tmp_path / "same" / f).read_bytes()
    assert (scale_dir / "kb.tsv").read_bytes() != (tmp_path / "other" / "kb.tsv").read_bytes()
    assert (scale_dir / "schema.txt").read_bytes() == scalegen.FIXTURE_SCHEMA.read_bytes()
    records = json.loads((scale_dir / "dataset.json").read_text())
    fixture = json.loads((FIXTURE_DIR / "mini_dataset.json").read_text())
    assert len(records) == len(fixture) * scalegen.QUESTION_SCALE
    assert len({r["question"] for r in records}) == len(records)
    assert all(not Answer.from_doc(r["gold"]).is_empty for r in records)


def test_reference_agrees_with_execute_on_fixture_gold(fixture_pairs):
    ref = RefKB.load(FIXTURE_DIR / "toy_kb.tsv")
    kb = load_kb(FIXTURE_DIR / "toy_kb.tsv")
    assert len(fixture_pairs) == 40
    for pair in fixture_pairs:
        mine = ref.evaluate(pair.query)
        assert not mine.is_empty
        assert mine.same_as(execute(pair.query, kb)), pair.qid


@pytest.mark.parametrize("sparql", [
    "SELECT (MAX(?r) AS ?m) WHERE { ?f :director :S_Kubrick . ?f :runtime ?r }",
    "SELECT (MIN(?r) AS ?m) WHERE { ?f :director :T_Burton . ?f :runtime ?r }",
    "SELECT (COUNT(?p) AS ?n) WHERE { ?p rdf:type :Person }",
    "SELECT ?f WHERE { ?f :director ?d . ?f :runtime ?r } ORDER BY ASC(?r) LIMIT 1 OFFSET 2",
    "SELECT ?f WHERE { ?f :country :UK . ?f :runtime ?r } ORDER BY DESC(?r) LIMIT 1 OFFSET 1",
    "SELECT ?c WHERE { ?f :starring :M_Keaton . ?f :country ?c . ?f rdf:type :Film }",
    "SELECT ?x WHERE { ?x :influenced_by ?y . ?y :influenced_by ?z . ?z :influenced_by :F_Lang }",
    "SELECT ?f WHERE { ?f :director :S_Kubrick . ?f :country :France }",
])
def test_reference_covers_aggregates_and_offsets(sparql):
    ref = RefKB.load(FIXTURE_DIR / "toy_kb.tsv")
    kb = load_kb(FIXTURE_DIR / "toy_kb.tsv")
    q = parse_query(sparql)
    assert ref.evaluate(q).same_as(execute(q, kb))


def test_scale_gold_and_reference_agree_with_execute(scale_dir):
    records = {r["id"]: r for r in json.loads((scale_dir / "dataset.json").read_text())}
    dataset = load_dataset(scale_dir / "dataset.json")
    kb = load_kb(scale_dir / "kb.tsv", scale_dir / "schema.txt")
    ref = RefKB.load(scale_dir / "kb.tsv")
    assert kb.fact_count > 80_000
    sample = [p for p in dataset.pairs if int(p.qid.rsplit("-", 1)[1]) < 2]
    assert len(sample) == 18
    for pair in sample:
        program = execute(pair.query, kb)
        assert Answer.from_doc(records[pair.qid]["gold"]).same_as(program), pair.qid
        assert ref.evaluate(pair.query).same_as(program), pair.qid


def _benchmark_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def test_printed_metric_names_and_units_match_benchmark_json(fixture_pairs):
    end_to_end, per_layer = _benchmark_metrics()
    assert run.END_TO_END == end_to_end
    assert run.PER_LAYER == per_layer

    rnd = RoundResult(wall=1.0, train=0.5, eval_wall=0.5, latencies=[0.1, 0.2],
                      traces={}, generators={}, report=None)
    samples = run.SideSamples(None)
    samples.load_s, samples.mine_s = [0.1], [0.01]
    printed = run.end_to_end(samples, [rnd], Verdict([], 0, 1.0, 1.0), 1024)
    assert set(printed) == set(end_to_end)

    kb = load_kb(FIXTURE_DIR / "toy_kb.tsv")
    kernels = run_kernels(fixture_pairs, kb, [p.query for p in fixture_pairs[:3]])
    info = type("Info", (), {"hits": 0, "misses": 0})
    printed = layer_metrics(Tracer(), Tracer(), rnd, info, kernels)
    assert set(printed) == set(per_layer)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kb-scale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("fold", [0, 3])
def test_mine_calls_are_the_training_sets_of_run_pipeline(fixture_pairs, fold):
    from kbqg.evaluation import run_pipeline
    from workloads import WORKLOADS, mine_calls

    class Stop(Exception):
        pass

    seen = []

    def record(args, kwargs):
        seen.append(args[0])
        raise Stop

    config = WORKLOADS["oracle-merge"].config(5)
    tracer = Tracer([("kbqg.evaluation", "build_generator")])
    tracer.install({"evaluation.build_generator": (record, None)})
    try:
        with pytest.raises(Stop):
            run_pipeline(load_dataset(FIXTURE_DIR / "mini_dataset.json"),
                         load_kb(FIXTURE_DIR / "toy_kb.tsv"), config, folds=[fold])
    finally:
        tracer.uninstall()
    dataset = load_dataset(FIXTURE_DIR / "mini_dataset.json")
    [(train_pairs, gamma)] = mine_calls(dataset, config, [fold])
    assert gamma == config.gamma
    assert [p.qid for p in train_pairs] == [p.qid for p in seen[0]]
