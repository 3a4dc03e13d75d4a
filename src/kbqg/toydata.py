"""The bundled movie-domain fixture and builders for test corpora.

The files in ``data/`` are the fixture, read by ``build_kb`` and
``build_gazetteer``: a small film knowledge base (``toy_kb.tsv``) with
its schema (``toy_schema.txt``), a gazetteer for the dictionary linker
(``toy_gazetteer.tsv``) and a 40-question dataset (``mini_dataset.json``).
The KB's ``:influenced_by`` facts form one chain, so most people head a
two-step chain, as the rare chain structures and the noisy-linking
experiment need. ``build_dataset_records`` derives the dataset from
question templates, which give the mention offsets and record why it
mixes nine query structures (seven common ones plus two deliberately
rare chain structures whose containment patterns coincide, exercising
the tie-breaking and validation-cascade paths); a test checks that it
equals the bundled file. Kept on no disk: a large keyword-signal corpus
for predictor training tests, and a corpus with an unseen structure
reachable only by merging.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grounding import DictionaryLinker
from .kb import KnowledgeBase, load_kb
from .mining import Mention, TrainingPair
from .sparql import parse_query

SURFACES = {
    ":S_Kubrick": "Stanley Kubrick", ":T_Burton": "Tim Burton",
    ":S_Spielberg": "Steven Spielberg", ":C_Nolan": "Christopher Nolan",
    ":A_Varda": "Agnes Varda", ":O_Welles": "Orson Welles",
    ":A_Hitchcock": "Alfred Hitchcock", ":F_Lang": "Fritz Lang",
    ":G_Melies": "Georges Melies",
    ":The_Shining": "The Shining", ":Barry_Lyndon": "Barry Lyndon",
    ":Space_Odyssey": "A Space Odyssey", ":Ed_Wood": "Ed Wood",
    ":Batman_Returns": "Batman Returns", ":Beetlejuice": "Beetlejuice",
    ":Jaws": "Jaws", ":Duel": "Duel", ":ET": "E T",
    ":Memento": "Memento", ":Inception": "Inception", ":Dunkirk": "Dunkirk",
    ":Cleo": "Cleo from 5 to 7", ":Vagabond": "Vagabond",
    ":Faces_Places": "Faces Places", ":Citizen_K": "Citizen Kane",
    ":Vertigo": "Vertigo", ":Psycho": "Psycho",
    ":J_Nicholson": "Jack Nicholson", ":J_Depp": "Johnny Depp",
    ":M_Keaton": "Michael Keaton", ":R_Dreyfuss": "Richard Dreyfuss",
    ":G_Pearce": "Guy Pearce", ":S_Bonnaire": "Sandrine Bonnaire",
}


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def build_kb() -> KnowledgeBase:
    return load_kb(data_dir() / "toy_kb.tsv", data_dir() / "toy_schema.txt")


def build_gazetteer() -> DictionaryLinker:
    return DictionaryLinker.from_file(data_dir() / "toy_gazetteer.tsv")


# ---------------------------------------------------------------------------
# the 40-question dataset

# question templates per structure; {E}/{F}/{A} are entity slots
_DIRECTORS = [":S_Kubrick", ":T_Burton", ":S_Spielberg", ":C_Nolan", ":A_Varda"]


def _q(template: str, symbol: str, sparql: str, qid: str) -> dict:
    surface = SURFACES[symbol]
    question = template.format(X=surface)
    start = question.index(surface)
    return {"id": qid, "question": question,
            "sparql": sparql.format(E=symbol),
            "mentions": [{"start": start, "end": start + len(surface),
                          "surface": surface}]}


def build_dataset_records() -> list[dict]:
    records = []

    # two phrasings per structure with multiplicities 3 and 2, so any
    # held-out question's phrasing still occurs with the same structure
    # in training (only the mention entity varies)
    def family(qid_prefix, phrasing_a, phrasing_b, sparql, symbols):
        for i, symbol in enumerate(symbols):
            tpl = phrasing_a if i < 3 else phrasing_b
            records.append(_q(tpl, symbol, sparql, f"{qid_prefix}-{i}"))

    films = [":The_Shining", ":Ed_Wood", ":Jaws", ":Memento", ":Cleo"]
    family("s1", "who directed {X}?", "tell me who directed {X}.",
           "SELECT ?p WHERE {{ {E} :director ?p }}", films)

    family("s2", "what did {X} direct?", "tell me what {X} directed.",
           "SELECT ?f WHERE {{ ?f :director {E} }}", _DIRECTORS)

    stars = [":J_Nicholson", ":J_Depp", ":M_Keaton", ":R_Dreyfuss", ":G_Pearce"]
    family("s3", "which films star {X}?", "tell me which films star {X}.",
           "SELECT ?f WHERE {{ ?f rdf:type :Film . ?f :starring {E} }}", stars)

    family("s4", "how many films did {X} direct?",
           "tell me how many films did {X} direct.",
           "SELECT (COUNT(?f) AS ?n) WHERE {{ ?f rdf:type :Film . ?f :director {E} }}",
           _DIRECTORS)

    family("s5", "in which countries were the films of {X} made?",
           "tell me in which countries the films of {X} were made.",
           "SELECT ?c WHERE {{ ?f :director {E} . ?f :country ?c }}", _DIRECTORS)

    family("s7", "what is the longest film of {X}?",
           "tell me the longest film of {X}.",
           "SELECT ?f WHERE {{ ?f :director {E} . ?f :runtime ?r }}"
           " ORDER BY DESC(?r) LIMIT 1", _DIRECTORS)

    family("s8", "what is the average runtime of films by {X}?",
           "tell me the average runtime of films by {X}.",
           "SELECT (AVG(?r) AS ?a) WHERE {{ ?f :director {E} . ?f :runtime ?r }}",
           _DIRECTORS)

    # rare chain structure with one shared property (3 questions):
    # people influenced by people influenced by X
    chain_same = ["who was influenced by someone influenced by {X}?",
                  "who was influenced by someone influenced by {X}?",
                  "tell me who was influenced by someone influenced by {X}."]
    heads = [":G_Melies", ":F_Lang", ":A_Hitchcock"]
    for i, (tpl, h) in enumerate(zip(chain_same, heads)):
        records.append(_q(
            tpl, h,
            "SELECT ?b WHERE {{ ?a :influenced_by {E} . ?b :influenced_by ?a }}",
            f"sw-{i}"))

    # rare chain structure with two properties (2 questions):
    # films directed by someone influenced by X; X must be second-to-last
    # in the influence chain so the one-property chain reading is empty
    chain_two = ["which films were directed by someone influenced by {X}?",
                 "which movies were directed by a person influenced by {X}?"]
    for i, tpl in enumerate(chain_two):
        records.append(_q(
            tpl, ":C_Nolan",
            "SELECT ?f WHERE {{ ?a :influenced_by {E} . ?f :director ?a }}",
            f"sy-{i}"))

    return records


def build_dataset() -> list[TrainingPair]:
    pairs = []
    for rec in build_dataset_records():
        query = parse_query(rec["sparql"])
        mentions = tuple(Mention(m["start"], m["end"], m["surface"])
                         for m in rec["mentions"])
        pairs.append(TrainingPair(rec["question"], query, mentions, rec["id"]))
    return pairs


# ---------------------------------------------------------------------------
# keyword-signal corpus: large, templated, each structure marked by
# unmistakable keywords, for predictor-learning tests

_SIGNAL_TEMPLATES = [
    ("SELECT ?p WHERE {{ {E} :director ?p }}",
     ["who directed {X}", "who {FILLER} directed {X}"]),
    ("SELECT ?f WHERE {{ ?f :director {E} }}",
     ["what did {X} direct", "what {FILLER} did {X} direct"]),
    ("SELECT ?f WHERE {{ ?f rdf:type :Film . ?f :starring {E} }}",
     ["which films star {X}", "which films {FILLER} star {X}"]),
    ("SELECT (COUNT(?f) AS ?n) WHERE {{ ?f rdf:type :Film . ?f :director {E} }}",
     ["how many films did {X} direct", "how many films {FILLER} did {X} direct"]),
    ("SELECT ?c WHERE {{ ?f :director {E} . ?f :country ?c }}",
     ["in which countries were films of {X} made",
      "which countries {FILLER} were films of {X} made in"]),
    ("SELECT ?f WHERE {{ ?f :director {E} . ?f :runtime ?r }}"
     " ORDER BY DESC(?r) LIMIT 1",
     ["what is the longest film of {X}", "what {FILLER} is the longest film of {X}"]),
    ("SELECT (AVG(?r) AS ?a) WHERE {{ ?f :director {E} . ?f :runtime ?r }}",
     ["what is the average runtime of films by {X}",
      "what is the average {FILLER} runtime of films by {X}"]),
]

_FILLERS = ["exactly", "really", "originally", "reportedly", "ultimately",
            "precisely", "officially", "actually"]


def build_signal_corpus(n: int = 2000, seed: int = 5) -> list[TrainingPair]:
    rng = np.random.default_rng(seed)
    names = sorted(SURFACES)
    pairs = []
    for i in range(n):
        sparql, templates = _SIGNAL_TEMPLATES[int(rng.integers(len(_SIGNAL_TEMPLATES)))]
        tpl = templates[int(rng.integers(len(templates)))]
        symbol = names[int(rng.integers(len(names)))]
        surface = SURFACES[symbol]
        question = tpl.format(X=surface, FILLER=_FILLERS[int(rng.integers(len(_FILLERS)))])
        start = question.index(surface)
        pairs.append(TrainingPair(
            question + "?", parse_query(sparql.format(E=symbol)),
            (Mention(start, start + len(surface), surface),), f"sig-{i}"))
    return pairs


# ---------------------------------------------------------------------------
# merge fixture: the two-hop structure never appears as a full training
# query, but is frequent as a substructure of the three-triple queries,
# so it is reachable only through the merger

def build_merge_corpus() -> tuple[list[TrainingPair], object]:
    """(training pairs, gold query with the unseen two-hop structure)."""
    pairs = []
    qid = 0

    def add(question, sparql, n):
        nonlocal qid
        for j in range(n):
            pairs.append(TrainingPair(f"{question} v{j}", parse_query(sparql),
                                      (), f"m-{qid}-{j}"))
        qid += 1

    add("what is the longest film of kubrick",
        "SELECT ?f WHERE { ?f :director :S_Kubrick . ?f :runtime ?r }"
        " ORDER BY DESC(?r) LIMIT 1", 15)
    add("what is the average runtime of films by burton",
        "SELECT (AVG(?r) AS ?a) WHERE { ?f :director :T_Burton . ?f :runtime ?r }", 15)
    add("what did spielberg direct",
        "SELECT ?f WHERE { ?f :director :S_Spielberg }", 12)
    gold = parse_query(
        "SELECT ?c WHERE { ?f :director :C_Nolan . ?f :country ?c }")
    return pairs, gold
