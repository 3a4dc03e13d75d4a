"""Seeded synthetic movie KB and question set for the ``kb-scale`` workload.

The generator builds a film knowledge base of about 10^5 facts with the
bundled fixture's schema (films with director, runtime, country and
stars; every director and actor is a ``:Person``; directors influence
one another) and a question set with the fixture's nine query templates
in the fixture's proportions. Degrees are drawn with long tails: a few
directors make dozens of films, a few actors star in many, and the
earliest directors influence many later ones. Every gold answer is
computed from the generator's own tables, never by running a query, and
every gold answer is non-empty.

The same seed gives byte-identical files::

    python3 bench/scalegen.py --seed 1 --out bench/_work/scale-1
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FIXTURE_SCHEMA = Path(__file__).resolve().parents[1] / "src" / "kbqg" / "data" / "toy_schema.txt"

# the seed of the KB and questions that the kb-scale workload always uses
KB_SEED = 1

PEOPLE = 8000
DIRECTORS = 1700
COUNTRIES = 40
# films per director: 1..MAX_FILMS with weight n ** -FILMS_EXPONENT
MAX_FILMS = 60
FILMS_EXPONENT = 1.3
# stars per film, drawn from all people with Zipf weights rank ** -0.6
STARS_PER_FILM = (1, 4)
STAR_EXPONENT = 0.6
# each director after the first was influenced by up to this many
# earlier directors, chosen uniformly
MAX_INFLUENCERS = 3

# (template id, questions in the fixture, two phrasings, SPARQL with {E}
# for the mentioned entity); phrasings and queries are the fixture's
TEMPLATES = [
    ("s1", 5, ("who directed {X}?", "tell me who directed {X}."),
     "SELECT ?p WHERE {{ {E} :director ?p }}"),
    ("s2", 5, ("what did {X} direct?", "tell me what {X} directed."),
     "SELECT ?f WHERE {{ ?f :director {E} }}"),
    ("s3", 5, ("which films star {X}?", "tell me which films star {X}."),
     "SELECT ?f WHERE {{ ?f rdf:type :Film . ?f :starring {E} }}"),
    ("s4", 5, ("how many films did {X} direct?", "tell me how many films did {X} direct."),
     "SELECT (COUNT(?f) AS ?n) WHERE {{ ?f rdf:type :Film . ?f :director {E} }}"),
    ("s5", 5, ("in which countries were the films of {X} made?",
               "tell me in which countries the films of {X} were made."),
     "SELECT ?c WHERE {{ ?f :director {E} . ?f :country ?c }}"),
    ("s7", 5, ("what is the longest film of {X}?", "tell me the longest film of {X}."),
     "SELECT ?f WHERE {{ ?f :director {E} . ?f :runtime ?r }} ORDER BY DESC(?r) LIMIT 1"),
    ("s8", 5, ("what is the average runtime of films by {X}?",
               "tell me the average runtime of films by {X}."),
     "SELECT (AVG(?r) AS ?a) WHERE {{ ?f :director {E} . ?f :runtime ?r }}"),
    ("sw", 3, ("who was influenced by someone influenced by {X}?",
               "tell me who was influenced by someone influenced by {X}."),
     "SELECT ?b WHERE {{ ?a :influenced_by {E} . ?b :influenced_by ?a }}"),
    ("sy", 2, ("which films were directed by someone influenced by {X}?",
               "which movies were directed by a person influenced by {X}?"),
     "SELECT ?f WHERE {{ ?a :influenced_by {E} . ?f :director ?a }}"),
]
# questions per template: the fixture's count times this
QUESTION_SCALE = 3

_SYLLABLES = ["ka", "lo", "mi", "ren", "tu", "sa", "vel", "dor", "ni", "pa",
              "ro", "zel", "ta", "ber", "qui", "fen", "la", "mor", "gi", "an"]


def _word(i: int, syllables: int) -> str:
    """The i-th pseudo-word of the given length; distinct i give distinct
    words while i < 20**syllables. Words hold no digits, so questions offer
    no numeric literal candidates."""
    parts = []
    for _ in range(syllables):
        parts.append(_SYLLABLES[i % len(_SYLLABLES)])
        i //= len(_SYLLABLES)
    return "".join(parts).capitalize()


def _symbol(surface: str) -> str:
    return ":" + surface.replace(" ", "_")


@dataclass
class Tables:
    """The generator's own record of the world it wrote out."""

    directors: list[str]
    director_of: dict[str, str]
    films_of: dict[str, list[str]]
    runtime: dict[str, int]
    country: dict[str, str]
    films_starring: dict[str, list[str]]
    influenced: dict[str, list[str]]   # person -> people influenced by them
    facts: list[tuple[str, str, str]]


def build_tables(rng: random.Random) -> Tables:
    ids = rng.sample(range(400 * 8000), PEOPLE)
    people = [_symbol(f"{_word(i % 400, 2)} {_word(i // 400, 3)}") for i in ids]
    directors = people[:DIRECTORS]
    countries = [_symbol(f"{_word(i, 2)}land") for i in range(COUNTRIES)]

    sizes = range(1, MAX_FILMS + 1)
    n_films = rng.choices(sizes, weights=[n ** -FILMS_EXPONENT for n in sizes],
                          k=DIRECTORS)
    film_ids = rng.sample(range(8000 * 400), sum(n_films))
    films = [_symbol(f"The {_word(i % 8000, 3)} {_word(i // 8000, 2)}") for i in film_ids]
    star_pool = rng.sample(people, PEOPLE)
    star_weights = list(itertools.accumulate(
        (rank + 1) ** -STAR_EXPONENT for rank in range(PEOPLE)))

    facts: list[tuple[str, str, str]] = []
    director_of: dict[str, str] = {}
    films_of: dict[str, list[str]] = {}
    runtime: dict[str, int] = {}
    country: dict[str, str] = {}
    films_starring: dict[str, list[str]] = {}
    pos = 0
    for d, n in zip(directors, n_films):
        films_of[d] = films[pos:pos + n]
        pos += n
        for f in films_of[d]:
            director_of[f] = d
            runtime[f] = rng.randint(70, 200)
            country[f] = rng.choice(countries)
            stars = set(rng.choices(star_pool, cum_weights=star_weights,
                                    k=rng.randint(*STARS_PER_FILM)))
            facts.append((f, "a", ":Film"))
            facts.append((f, ":director", d))
            facts.append((f, ":runtime", str(runtime[f])))
            facts.append((f, ":country", country[f]))
            for s in sorted(stars):
                facts.append((f, ":starring", s))
                films_starring.setdefault(s, []).append(f)
    influenced: dict[str, list[str]] = {}
    for i, d in enumerate(directors[1:], start=1):
        for older in rng.sample(directors[:i], min(i, rng.randint(0, MAX_INFLUENCERS))):
            influenced.setdefault(older, []).append(d)
            facts.append((d, ":influenced_by", older))
    facts += [(p, "a", ":Person") for p in people]
    facts += [(c, "a", ":Country") for c in countries]
    return Tables(directors, director_of, films_of, runtime, country,
                  films_starring, influenced, facts)


def _answer_doc(values=None, aggregate=None) -> dict:
    if values is not None:
        return {"values": sorted(set(values))}
    return {"aggregate": str(aggregate)}


def build_questions(rng: random.Random, t: Tables) -> list[dict]:
    """QUESTION_SCALE times the fixture's questions per template, about
    distinct entities, each with a gold mention span and a gold answer
    from the tables."""
    def two_hop(e: str) -> list[str]:
        return [g for c in t.influenced.get(e, []) for g in t.influenced.get(c, [])]

    def unique_longest(d: str) -> bool:
        rts = sorted((t.runtime[f] for f in t.films_of[d]), reverse=True)
        return len(rts) == 1 or rts[0] != rts[1]

    def answer(tid: str, e: str) -> dict:
        if tid == "s1":
            return _answer_doc([t.director_of[e]])
        if tid == "s2":
            return _answer_doc(t.films_of[e])
        if tid == "s3":
            return _answer_doc(t.films_starring[e])
        if tid == "s4":
            return _answer_doc(aggregate=len(t.films_of[e]))
        if tid == "s5":
            return _answer_doc(t.country[f] for f in t.films_of[e])
        if tid == "s7":
            return _answer_doc([max(t.films_of[e], key=t.runtime.__getitem__)])
        if tid == "s8":
            # aggregates run over distinct bindings, as in kbqg.kb.execute
            rts = {t.runtime[f] for f in t.films_of[e]}
            return _answer_doc(aggregate=Fraction(sum(rts), len(rts)))
        if tid == "sw":
            return _answer_doc(two_hop(e))
        return _answer_doc(f for c in t.influenced[e] for f in t.films_of[c])

    pools = {"s1": sorted(t.director_of), "s2": t.directors, "s3": sorted(t.films_starring),
             "s4": t.directors, "s5": t.directors,
             "s7": [d for d in t.directors if unique_longest(d)], "s8": t.directors,
             "sw": [d for d in t.directors if two_hop(d)],
             "sy": [d for d in t.directors if d in t.influenced]}
    records = []
    for tid, fixture_count, phrasings, sparql in TEMPLATES:
        for i, e in enumerate(rng.sample(pools[tid], fixture_count * QUESTION_SCALE)):
            surface = e[1:].replace("_", " ")
            question = rng.choice(phrasings).format(X=surface)
            start = question.index(surface)
            records.append({
                "id": f"{tid}-{i}",
                "question": question,
                "sparql": sparql.format(E=e),
                "mentions": [{"start": start, "end": start + len(surface),
                              "surface": surface}],
                "gold": answer(tid, e),
            })
    return records


def write_inputs(seed: int, out_dir) -> dict:
    """Write ``kb.tsv``, ``schema.txt`` (the fixture's) and ``dataset.json``
    (records carry their gold answer under ``gold``) and return the input
    make-up."""
    rng = random.Random(seed)
    tables = build_tables(rng)
    records = build_questions(rng, tables)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "kb.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.writelines(f"{s}\t{p}\t{o}\n" for s, p, o in tables.facts)
    (out / "schema.txt").write_bytes(FIXTURE_SCHEMA.read_bytes())
    with open(out / "dataset.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    films_per_director = sorted(len(v) for v in tables.films_of.values())
    influencees = sorted(len(v) for v in tables.influenced.values())
    stars = sorted(len(v) for v in tables.films_starring.values())
    return {
        "facts": len(tables.facts),
        "people": PEOPLE,
        "directors": len(tables.directors),
        "films": len(tables.director_of),
        "countries": COUNTRIES,
        "films_per_director_median_max": [films_per_director[len(films_per_director) // 2],
                                          films_per_director[-1]],
        "films_per_star_median_max": [stars[len(stars) // 2], stars[-1]],
        "influencees_median_max": [influencees[len(influencees) // 2], influencees[-1]],
        "influence_facts": sum(influencees),
        "questions": len(records),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(write_inputs(args.seed, args.out)))


if __name__ == "__main__":
    main()
