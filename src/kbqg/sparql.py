"""Parser and serializer for the supported SPARQL subset.

Supported: SELECT/ASK over a basic graph pattern, COUNT/AVG/MAX/MIN
aggregate selections, ``ORDER BY ASC|DESC(?v) LIMIT 1 OFFSET k`` (mapped
to a MINATN/MAXATN triple with offset value k+1) and ``rdf:type``/``a``
(mapped to ISA). FILTER, UNION, OPTIONAL and GROUP BY are rejected as
unsupported. The full grammar is documented in the README.

Prefixed names are expanded through a prefix table (PREFIX declarations
in the query extend it); names with an unknown prefix are kept verbatim
as opaque symbols, so ``:director`` round-trips unchanged.
"""

from __future__ import annotations

import re

from .graph import (
    AGG_CONNECTORS,
    AGG_RESULT,
    CLASS,
    ENTITY,
    ISA,
    LITERAL,
    MAXATN,
    MINATN,
    ORDER_LABELS,
    QueryGraph,
    Triple,
    VARIABLE,
    Vertex,
    builtin,
    build_graph,
    derive_var_kind,
    user,
)
from .io import InputError, read_json

DEFAULT_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "dbo": "http://dbpedia.org/ontology/",
    "dbp": "http://dbpedia.org/property/",
    "dbr": "http://dbpedia.org/resource/",
    "foaf": "http://xmlns.com/foaf/0.1/",
}

RDF_TYPE = DEFAULT_PREFIXES["rdf"] + "type"

_UNSUPPORTED = {"FILTER", "UNION", "OPTIONAL", "GROUP", "HAVING", "REGEX",
                "MINUS", "EXISTS", "BIND", "VALUES", "CONSTRUCT", "DESCRIBE"}

_AGG_KEYWORDS = {"COUNT", "AVG", "MAX", "MIN"}


class QuerySyntaxError(ValueError):
    """The text is not in the supported grammar."""


class UnsupportedFeatureError(ValueError):
    """The text uses a SPARQL feature outside the supported subset."""


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<iri><[^<>\s]*>) |
        (?P<string>"(?:[^"\\]|\\.)*") |
        (?P<var>\?[A-Za-z_][A-Za-z0-9_]*) |
        (?P<number>-?\d+(?:\.\d+)?) |
        (?P<pname>[A-Za-z_][A-Za-z0-9_\-.]*)?:(?P<plocal>[A-Za-z0-9_\-.]*) |
        (?P<word>[A-Za-z_][A-Za-z0-9_\-]*) |
        (?P<punct>[{}().])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise QuerySyntaxError(f"cannot tokenize near position {pos}: {rest[:30]!r}")
        pos = m.end()
        if m.group("iri") is not None:
            tokens.append(("iri", m.group("iri")[1:-1], m.start()))
        elif m.group("string") is not None:
            raw = m.group("string")[1:-1]
            tokens.append(("string", raw.replace('\\"', '"').replace("\\\\", "\\"), m.start()))
        elif m.group("var") is not None:
            tokens.append(("var", m.group("var"), m.start()))
        elif m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start()))
        elif m.group("plocal") is not None:
            prefix = m.group("pname") or ""
            tokens.append(("pname", f"{prefix}:{m.group('plocal')}", m.start()))
        elif m.group("word") is not None:
            tokens.append(("word", m.group("word"), m.start()))
        else:
            tokens.append(("punct", m.group("punct"), m.start()))
    return tokens


class _Parser:
    def __init__(self, tokens, prefixes):
        self.tokens = tokens
        self.i = 0
        self.prefixes = dict(prefixes)
        self.triples: list[Triple] = []
        self.term_vertices: dict[str, Vertex] = {}
        self.var_order: list[str] = []
        self.ord_count = 0

    # -- token helpers ------------------------------------------------

    def peek(self, offset=0):
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else ("eof", "", -1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def at_word(self, *words) -> bool:
        kind, val, _ = self.peek()
        return kind == "word" and val.upper() in words

    def expect_word(self, word):
        kind, val, pos = self.next()
        if kind != "word" or val.upper() != word:
            raise QuerySyntaxError(f"expected {word} at position {pos}, got {val!r}")

    def expect_punct(self, ch):
        kind, val, pos = self.next()
        if kind != "punct" or val != ch:
            raise QuerySyntaxError(f"expected {ch!r} at position {pos}, got {val!r}")

    # -- vertices -----------------------------------------------------

    def expand(self, pname: str) -> str:
        prefix, local = pname.split(":", 1)
        if prefix in self.prefixes:
            return self.prefixes[prefix] + local
        return pname

    def vertex_for(self, kind_hint: str, token) -> str:
        tkind, val, pos = token
        if tkind == "var":
            if val not in self.term_vertices:
                self.term_vertices[val] = Vertex(val, VARIABLE)
                self.var_order.append(val)
            return val
        if tkind in ("pname", "iri", "word"):
            # bare words are opaque symbols, e.g. structure placeholders (Ent1)
            symbol = self.expand(val) if tkind == "pname" else val
            vid = ("c:" if kind_hint == CLASS else "e:") + symbol
            kind = CLASS if kind_hint == CLASS else ENTITY
            self.term_vertices.setdefault(vid, Vertex(vid, kind, symbol))
            return vid
        if tkind in ("string", "number"):
            vid = "l:" + val
            self.term_vertices.setdefault(vid, Vertex(vid, LITERAL, val))
            return vid
        raise QuerySyntaxError(f"unexpected term {val!r} at position {pos}")

    def fresh_literal(self, value: str) -> str:
        self.ord_count += 1
        vid = f"l:#ord{self.ord_count}"
        self.term_vertices[vid] = Vertex(vid, LITERAL, value)
        return vid

    # -- grammar ------------------------------------------------------

    def parse_prologue(self):
        while self.at_word("PREFIX"):
            self.next()
            kind, val, pos = self.next()
            if kind != "pname" or not val.endswith(":"):
                raise QuerySyntaxError(f"bad PREFIX declaration at position {pos}")
            prefix = val[:-1]
            kind2, iri, pos2 = self.next()
            if kind2 != "iri":
                raise QuerySyntaxError(f"expected IRI at position {pos2}")
            self.prefixes[prefix] = iri

    def parse_pattern(self):
        self.expect_punct("{")
        while True:
            kind, val, pos = self.peek()
            if kind == "punct" and val == "}":
                self.next()
                return
            self.parse_triple()
            kind, val, _ = self.peek()
            if kind == "punct" and val == ".":
                self.next()

    def parse_triple(self):
        subj_tok = self.next()
        pred = self.next()
        pkind, pval, ppos = pred
        is_type = (pkind == "word" and pval == "a") or \
                  (pkind == "pname" and self.expand(pval) == RDF_TYPE) or \
                  (pkind == "iri" and pval == RDF_TYPE)
        obj_tok = self.next()
        subj = self.vertex_for(ENTITY, subj_tok)
        if is_type:
            obj = self.vertex_for(CLASS, obj_tok)
            self.triples.append(Triple(subj, builtin(ISA), obj))
            return
        if pkind == "pname":
            label = user(self.expand(pval))
        elif pkind in ("iri", "word"):
            label = user(pval)
        else:
            raise QuerySyntaxError(f"expected a property at position {ppos}, got {pval!r}")
        obj = self.vertex_for(ENTITY, obj_tok)
        self.triples.append(Triple(subj, label, obj))

    def parse_agg_clause(self, parenthesized: bool):
        """COUNT(?u) or (COUNT(?u) AS ?c); returns the result variable id."""
        kind, fn, pos = self.next()
        if kind != "word" or fn.upper() not in _AGG_KEYWORDS:
            raise QuerySyntaxError(f"expected aggregate function at position {pos}")
        self.expect_punct("(")
        if self.at_word("DISTINCT"):
            self.next()
        arg_tok = self.next()
        if arg_tok[0] != "var":
            raise QuerySyntaxError(f"aggregate argument must be a variable at position {arg_tok[2]}")
        self.expect_punct(")")
        result = None
        if self.at_word("AS"):
            self.next()
            res_tok = self.next()
            if res_tok[0] != "var":
                raise QuerySyntaxError(f"expected result variable at position {res_tok[2]}")
            result = res_tok[1]
        if parenthesized:
            self.expect_punct(")")
        arg = self.vertex_for(ENTITY, arg_tok)
        if result is None:
            result = f"?agg_{len(self.triples) + 1}"
        if result not in self.term_vertices:
            self.term_vertices[result] = Vertex(result, VARIABLE)
        self.triples.append(Triple(arg, builtin(fn.upper()), result))
        return result

    def parse_modifiers(self):
        while self.at_word("ORDER"):
            self.next()
            self.expect_word("BY")
            kind, direction, pos = self.next()
            if kind != "word" or direction.upper() not in ("ASC", "DESC"):
                raise QuerySyntaxError(f"expected ASC or DESC at position {pos}")
            self.expect_punct("(")
            var_tok = self.next()
            if var_tok[0] != "var":
                raise QuerySyntaxError(f"ORDER BY needs a variable at position {var_tok[2]}")
            self.expect_punct(")")
            self.expect_word("LIMIT")
            kind, val, pos = self.next()
            if kind != "number" or val != "1":
                raise UnsupportedFeatureError("only LIMIT 1 is supported")
            offset = 0
            if self.at_word("OFFSET"):
                self.next()
                kind, val, pos = self.next()
                if kind != "number" or int(val) < 0:
                    raise QuerySyntaxError(f"bad OFFSET at position {pos}")
                offset = int(val)
            label = MAXATN if direction.upper() == "DESC" else MINATN
            var = self.vertex_for(ENTITY, var_tok)
            lit = self.fresh_literal(str(offset + 1))
            self.triples.append(Triple(var, builtin(label), lit))
        if self.peek()[0] != "eof":
            kind, val, pos = self.peek()
            raise QuerySyntaxError(f"unexpected trailing {val!r} at position {pos}")


def parse_query(text: str, prefixes: dict[str, str] | None = None) -> QueryGraph:
    """Parse a query in the supported SPARQL subset into a QueryGraph."""
    for word in re.findall(r"[A-Za-z_]+", text):
        if word.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(f"unsupported feature: {word.upper()}")
    tokens = _tokenize(text)
    if not tokens:
        raise QuerySyntaxError("empty query")
    p = _Parser(tokens, DEFAULT_PREFIXES if prefixes is None else prefixes)
    p.parse_prologue()

    target = None
    if p.at_word("SELECT"):
        p.next()
        if p.at_word("DISTINCT"):
            p.next()
        select_targets = []
        while True:
            kind, val, _ = p.peek()
            if kind == "var":
                p.next()
                if val not in p.term_vertices:
                    p.term_vertices[val] = Vertex(val, VARIABLE)
                    p.var_order.append(val)
                select_targets.append(val)
            elif kind == "punct" and val == "(":
                p.next()
                select_targets.append(p.parse_agg_clause(parenthesized=True))
            elif kind == "word" and val.upper() in _AGG_KEYWORDS:
                select_targets.append(p.parse_agg_clause(parenthesized=False))
            else:
                break
        if not select_targets:
            raise QuerySyntaxError("SELECT needs a projection")
        plain = [t for t in select_targets if not any(
            tr.object == t and tr.label.is_builtin and tr.label.builtin in AGG_CONNECTORS
            for tr in p.triples)]
        if len(plain) > 1:
            raise UnsupportedFeatureError("multiple projection variables")
        target = select_targets[0]
        if p.at_word("WHERE"):
            p.next()
        p.parse_pattern()
        p.parse_modifiers()
    elif p.at_word("ASK"):
        p.next()
        if p.at_word("WHERE"):
            p.next()
        p.parse_pattern()
        p.parse_modifiers()
        if not p.var_order:
            raise UnsupportedFeatureError("ASK without variables")
        target = p.var_order[0]
    else:
        kind, val, pos = p.peek()
        raise QuerySyntaxError(f"expected SELECT or ASK at position {pos}, got {val!r}")

    if not p.triples:
        raise QuerySyntaxError("empty graph pattern")
    vertices = []
    used = {t.subject for t in p.triples} | {t.object for t in p.triples}
    for vid, v in p.term_vertices.items():
        if vid not in used:
            continue
        if v.kind == VARIABLE:
            vertices.append(Vertex(vid, derive_var_kind(vid, p.triples)))
        else:
            vertices.append(v)
    return build_graph(vertices, p.triples, target)


# ---------------------------------------------------------------------------
# serialization

_NUMERIC_RE = re.compile(r"-?\d+(\.\d+)?$")


def _render_symbol(surface: str) -> str:
    if "://" in surface:
        return f"<{surface}>"
    return surface


def _render_term(g: QueryGraph, vid: str) -> str:
    v = g.vertex_by_id[vid]
    if v.kind in (VARIABLE, AGG_RESULT):
        return _var_name(vid)
    if v.kind == LITERAL:
        if _NUMERIC_RE.match(v.surface):
            return v.surface
        escaped = v.surface.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return _render_symbol(v.surface)


def _var_name(vid: str) -> str:
    return vid if vid.startswith("?") else "?" + re.sub(r"[^A-Za-z0-9_]", "_", vid)


def serialize_query(g: QueryGraph) -> str:
    """Serialize a QueryGraph back to the SPARQL subset.

    Re-parsing the output yields a structurally equivalent graph with
    identical surface symbols. Requires a target vertex.
    """
    if g.target is None:
        raise ValueError("cannot serialize a graph without a target")
    agg_triples = sorted(
        (t for t in g.triples if t.label.is_builtin and t.label.builtin in AGG_CONNECTORS),
        key=Triple.sort_key)
    order_triples = sorted(
        (t for t in g.triples if t.label.is_builtin and t.label.builtin in ORDER_LABELS),
        key=Triple.sort_key)
    pattern_triples = sorted(
        (t for t in g.triples if t not in set(agg_triples) | set(order_triples)),
        key=Triple.sort_key)

    select_parts = []
    target_agg = [t for t in agg_triples if t.object == g.target]
    if target_agg:
        rest = [t for t in agg_triples if t is not target_agg[0]]
        ordered_aggs = target_agg[:1] + rest
    else:
        select_parts.append(_var_name(g.target))
        ordered_aggs = agg_triples
    for t in ordered_aggs:
        select_parts.append(
            f"({t.label.builtin}({_var_name(t.subject)}) AS {_var_name(t.object)})")

    body_parts = []
    for t in pattern_triples:
        if t.label.is_builtin:  # ISA
            pred = "rdf:type"
        else:
            pred = _render_symbol(t.label.name)
        body_parts.append(f"{_render_term(g, t.subject)} {pred} {_render_term(g, t.object)}")
    if not body_parts:
        raise ValueError("cannot serialize a graph whose pattern is empty")

    out = f"SELECT {' '.join(select_parts)} WHERE {{ {' . '.join(body_parts)} }}"
    for t in order_triples:
        direction = "DESC" if t.label.builtin == MAXATN else "ASC"
        n = int(g.vertex_by_id[t.object].surface)
        out += f" ORDER BY {direction}({_var_name(t.subject)}) LIMIT 1"
        if n > 1:
            out += f" OFFSET {n - 1}"
    return out


def load_prefixes(path) -> dict[str, str]:
    """Load a {prefix: iri} table from a JSON file, merged over the defaults."""
    table = read_json(path)
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise InputError(path, 1, "expected a JSON object of prefix: IRI strings")
    merged = dict(DEFAULT_PREFIXES)
    merged.update(table)
    return merged
