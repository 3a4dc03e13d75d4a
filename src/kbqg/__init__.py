"""Formal query generation over knowledge bases.

The pipeline mines frequent query substructures from question/query
training pairs, trains one probability predictor per substructure,
ranks and merges candidate query structures for a new question, and
grounds the best structures into executable queries over an in-memory
knowledge base.
"""

from .graph import (
    AGG_CONNECTORS,
    AGG_RESULT,
    AGGREGATION_LABELS,
    AVG,
    BUILTIN_LABELS,
    CLASS,
    COUNT,
    ENTITY,
    ISA,
    LITERAL,
    MAX,
    MAXATN,
    MIN,
    MINATN,
    ORDER_LABELS,
    VARIABLE,
    EdgeLabel,
    GraphError,
    QueryGraph,
    Triple,
    Vertex,
    build_graph,
    builtin,
    induced_subgraph,
    user,
)
from .canon import (
    StructureKey,
    canonical_form,
    canonical_key,
    find_isomorphism,
    is_equivalent,
    is_substructure,
)
from .sparql import (
    QuerySyntaxError,
    UnsupportedFeatureError,
    parse_query,
    serialize_query,
)

__version__ = "0.1.0"
