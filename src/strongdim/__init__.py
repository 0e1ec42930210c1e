"""strongdim: exact strong metric dimension of graphs and strong products.

Core pipeline: build the strong resolving graph (edges = mutually maximally
distant pairs), solve its minimum vertex cover exactly, and read the strong
metric dimension off the cover.  A claim-verification harness checks the
structural laws that make the pipeline work on reproducible corpora.
"""

from .cover import (
    BudgetExhausted,
    CoverResult,
    c_graph_partition,
    clique_cover_number,
    max_independent_set,
    min_vertex_cover,
)
from .dimension import (
    DimensionResult,
    is_strong_generator,
    product_dimension,
    product_sr_graph,
    strong_metric_dimension,
)
from .graph import (
    Graph,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    from_graph6,
    generalized_tree,
    generate,
    graphs_isomorphic,
    grid,
    make_graph,
    path,
    random_connected,
    star,
    to_dot,
    to_graph6,
)
from .metrics import (
    DistanceMatrix,
    all_pairs_distances,
    cut_vertices,
    is_connected,
    is_generalized_tree,
    is_two_antipodal,
    leaf_count,
)
from .products import (
    PRODUCT_KINDS,
    product,
    strong_product_distances,
)
from .resolving import (
    PredictedSR,
    SRGraph,
    boundary,
    predicted_mmd_edges,
    strong_resolving_graph,
)
from .verify import (
    ClaimReport,
    Corpus,
    CorpusSpec,
    claim_ids,
    replay_instance,
    run_suite,
    verify_claim,
)

__version__ = "0.1.0"
