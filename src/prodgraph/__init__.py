"""Product-graph toolkit: adjacencies on node tuples, spectral positional
encodings computed from the base graph, and sparse attention blocks."""

from .errors import (
    EmptySample,
    InvalidInput,
    InvalidPermutation,
    NonFiniteGradient,
    NotSymmetric,
    ParseError,
    ProdGraphError,
    RangeError,
    ScaleError,
    ShapeMismatch,
    ValidationError,
)
from .graphs import (
    DistanceMatrix,
    Graph,
    SparseAdjacency,
    dense_adjacency,
    graph_to_json,
    load_graph,
    permutation_matrix,
    permute_graph,
    random_graph,
    random_permutation,
    shortest_path_distances,
)
from .model import (
    AttentionParams,
    EncoderParams,
    GradCheckReport,
    MLPParams,
    Pipeline,
    ProductState,
    RGCNParams,
    SABParams,
    grad_check,
    init_state,
    load_parameters,
    point_update,
    rgcn_layer,
    save_parameters,
    sparse_attention,
)
from .product import (
    MAX_DENSE_PRODUCT_NODES,
    KronAdjacency,
    PointAdjacency,
    ProductGraphBundle,
    SamplingMask,
    apply_sampling_mask,
    build_product_bundle,
    cartesian_operator,
    cartesian_product_adjacency,
    closed_form_cartesian,
    external_adjacency,
    internal_adjacency,
    k_factor_adjacency,
    k_point_adjacency,
    kron,
    point_adjacency,
    product_permutation,
    restrict_adjacency,
    restrict_rows,
    slot_adjacency,
)
from .rng import SplitMix64
from .spectral import (
    EigenDecomposition,
    PEMatrix,
    PEOracleReport,
    concatenation_pe,
    eig_sym,
    jacobi_eigh,
    k_tuple_pe,
    laplacian,
    node_mark_indices,
    pe_oracle_check,
    product_pe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
