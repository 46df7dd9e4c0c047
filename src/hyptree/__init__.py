"""hyptree: hyperbolic denoising of dissimilarity data and tree fitting.

The library learns a low-hyperbolicity Poincare-ball metric close to an
arbitrary dissimilarity matrix and feeds it to tree-metric (Neighbor Joining)
or ultrametric (linkage) decoders, scoring results by l_p distortion,
Dasgupta cost, and four-point hyperbolicity.
"""

__version__ = "0.1.0"

from .ball import PoincarePoint, TangentVector, pairwise_distance_matrix
from .data import (
    FeatureTable,
    MatrixFormatError,
    NoisyGraph,
    add_noise_edges,
    cosine_dissimilarity,
    graph_leaf_shortest_paths,
    load_features,
    load_matrix,
    random_binary_tree,
    save_features,
    save_matrix,
)
from .decoders import (
    Dendrogram,
    dendrogram_to_tree,
    dendrogram_to_ultrametric,
    linkage,
    neighbor_joining,
)
from .embedding import (
    EmbeddingResult,
    EncoderConfig,
    EncodingError,
    PoincareEmbedding,
    denoised_metric,
    embedding_loss,
    loss_gradient,
    train_embedding,
)
from .metrics import (
    DistanceMatrix,
    HyperbolicityReport,
    delta_exact,
    delta_sampled,
    four_point_check,
    gromov_product,
    lp_cost,
    ultrametric_check,
)
from .newick import parse_newick, write_newick
from .pipeline import compare_objectives, measure_delta, run_pipeline
from .report import DecoderRow, ObjectiveStudyResult, RunReport
from .trees import (
    TreeStructureError,
    WeightedTree,
    dasgupta_cost,
    design_matrix,
    fit_edge_weights,
    lca,
    lca_clan_sizes,
    leaf_distance_matrix,
    midpoint_root,
    tree_distance,
    trim_root,
)
