"""Builders for the bundled movie-domain fixtures.

Everything here is deterministic: a small film knowledge base with
schema, a gazetteer for the dictionary linker, a 40-question dataset
covering nine query structures (seven common ones plus two deliberately
rare chain structures whose containment patterns coincide, exercising
the tie-breaking and validation-cascade paths), a large keyword-signal
corpus for predictor training tests, and a corpus with an unseen
structure reachable only by merging.

``python -m kbqg.toydata <outdir>`` materializes the data files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .grounding import DictionaryLinker
from .kb import KnowledgeBase, Schema
from .mining import Mention, TrainingPair
from .sparql import parse_query

# director -> films; [film, runtime, country, star]
FILMS = {
    ":S_Kubrick": [(":The_Shining", 146, ":UK", ":J_Nicholson"),
                   (":Barry_Lyndon", 185, ":UK", ":R_ONeal"),
                   (":Space_Odyssey", 149, ":USA", ":K_Dullea")],
    ":T_Burton": [(":Ed_Wood", 127, ":USA", ":J_Depp"),
                  (":Batman_Returns", 126, ":USA", ":M_Keaton"),
                  (":Beetlejuice", 92, ":USA", ":M_Keaton")],
    ":S_Spielberg": [(":Jaws", 124, ":USA", ":R_Dreyfuss"),
                     (":Duel", 90, ":USA", ":D_Weaver"),
                     (":ET", 115, ":USA", ":H_Thomas")],
    ":C_Nolan": [(":Memento", 113, ":USA", ":G_Pearce"),
                 (":Inception", 148, ":UK", ":L_DiCaprio"),
                 (":Dunkirk", 106, ":UK", ":F_Whitehead")],
    ":A_Varda": [(":Cleo", 90, ":France", ":C_Marchand"),
                 (":Vagabond", 105, ":France", ":S_Bonnaire"),
                 (":Faces_Places", 94, ":France", ":JR")],
    ":O_Welles": [(":Citizen_K", 119, ":USA", ":J_Cotten")],
    ":A_Hitchcock": [(":Vertigo", 128, ":USA", ":J_Stewart"),
                     (":Psycho", 109, ":USA", ":A_Perkins")],
}

# X influenced_by Y, forming one long chain so that most people head a
# two-step chain (needed by the rare chain structures and the
# noisy-linking experiment)
INFLUENCE_CHAIN = [":G_Melies", ":F_Lang", ":A_Hitchcock", ":O_Welles",
                   ":S_Kubrick", ":S_Spielberg", ":T_Burton", ":C_Nolan",
                   ":A_Varda"]

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

PROPERTY_SURFACES = {
    "directed": ":director", "direct": ":director", "director": ":director",
    "by": ":director", "of": ":director",
    "star": ":starring", "starred": ":starring", "starring": ":starring",
    "made": ":country", "countries": ":country",
    "runtime": ":runtime", "longest": ":runtime",
    "influenced": ":influenced_by",
}

CLASS_SURFACES = {"films": ":Film", "movies": ":Film", "film": ":Film"}


def build_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    for director, films in FILMS.items():
        kb.add_fact(director, "a", ":Person")
        for film, runtime, country, star in films:
            kb.add_fact(film, "a", ":Film")
            kb.add_fact(film, ":director", director)
            kb.add_fact(film, ":runtime", str(runtime))
            kb.add_fact(film, ":country", country)
            kb.add_fact(film, ":starring", star)
            kb.add_fact(star, "a", ":Person")
            kb.add_fact(country, "a", ":Country")
    for name in INFLUENCE_CHAIN:
        kb.add_fact(name, "a", ":Person")
    for younger, older in zip(INFLUENCE_CHAIN[1:], INFLUENCE_CHAIN):
        kb.add_fact(younger, ":influenced_by", older)
    kb.schema = build_schema()
    return kb


def build_schema() -> Schema:
    schema = Schema()
    schema.domains.update({":director": ":Film", ":starring": ":Film",
                           ":country": ":Film", ":runtime": ":Film"})
    schema.ranges.update({":director": ":Person", ":starring": ":Person",
                          ":country": ":Country"})
    for a, b in ((":Film", ":Person"), (":Film", ":Country"),
                 (":Person", ":Country")):
        schema.disjoint.add(frozenset((a, b)))
    return schema


def build_gazetteer() -> DictionaryLinker:
    linker = DictionaryLinker()
    for symbol, surface in SURFACES.items():
        linker.add(surface, "entity", symbol)
    for surface, symbol in PROPERTY_SURFACES.items():
        linker.add(surface, "property", symbol)
    for surface, symbol in CLASS_SURFACES.items():
        linker.add(surface, "class", symbol)
    return linker


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

    films = [FILMS[d][0][0] for d in _DIRECTORS]
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


# ---------------------------------------------------------------------------
# file materialization

DATA_FILES = ("mini_dataset.json", "toy_kb.tsv", "toy_schema.txt",
              "toy_gazetteer.tsv")


def write_files(outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "mini_dataset.json", "w", encoding="utf-8") as f:
        json.dump(build_dataset_records(), f, indent=1)

    kb = build_kb()
    lines = []
    for s, p, o in sorted(kb.facts):
        lines.append(f"{s}\t{p}\t{o}")
    for e in sorted(kb.types):
        for c in sorted(kb.types[e]):
            lines.append(f"{e}\ta\t{c}")
    (outdir / "toy_kb.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    schema = build_schema()
    lines = [f"domain {p} {c}" for p, c in sorted(schema.domains.items())]
    lines += [f"range {p} {c}" for p, c in sorted(schema.ranges.items())]
    lines += [f"disjoint {a} {b}" for a, b in sorted(tuple(sorted(d))
                                                     for d in schema.disjoint)]
    (outdir / "toy_schema.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    build_gazetteer().save(outdir / "toy_gazetteer.tsv")


def data_dir() -> Path:
    return Path(__file__).parent / "data"


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else data_dir()
    write_files(target)
    print(f"wrote {', '.join(DATA_FILES)} to {target}")
