"""The bundled movie-domain fixture and builders for test corpora.

The files in ``data/`` are the fixture and its only copy, read by
``build_kb``, ``build_gazetteer`` and ``build_dataset``: a small film
knowledge base (``toy_kb.tsv``) with its schema (``toy_schema.txt``), a
gazetteer for the dictionary linker (``toy_gazetteer.tsv``) and a
40-question dataset (``mini_dataset.json``), loaded through
``evaluation.load_dataset`` like any other dataset. The dataset's shape
is deliberate:

- seven common structures with 5 questions each, in two phrasings
  (3 + 2), so every held-out question's phrasing also occurs with the
  same structure in training, and only the mentioned entity varies;
- two rare chain structures, with 3 and 2 questions, whose containment
  patterns coincide; they exercise tie-breaking and the
  validation cascade;
- the two-property chain question ("films directed by someone
  influenced by X") names Nolan, who is second-to-last in the KB's one
  ``:influenced_by`` chain, so its one-property chain reading is empty.

Most people head a two-step influence chain, as the rare chain
structures and the noisy-linking experiment need. Kept on no disk: a
large keyword-signal corpus for predictor training tests, and a corpus
with an unseen structure reachable only by merging.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .evaluation import load_dataset
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


def build_dataset() -> list[TrainingPair]:
    return load_dataset(data_dir() / "mini_dataset.json").pairs


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
