"""phylodist: phylogenetic metric learning in numpy.

Simulates birth-death trees and molecular sequence evolution, computes
analytic and learned pairwise distance functions, reconstructs trees with
neighbor joining, and implements permutation-equivariant and attention-based
distance networks together with closed-form reference constructions.
"""

from .alignment import Alignment, read_fasta, read_phylip, write_fasta, write_phylip
from .audit import MetricAudit, audit_metric
from .distances import (
    SaturationPolicy,
    d_hamming,
    d_jc,
    d_k2p,
    distance_matrix,
    jc_correct,
    k2p_correct,
)
from .embed import (
    DistortionReport,
    embedding_distortion,
    euclidean_matrix,
    llr_embed,
    measure_distortion,
)
from .errors import (
    ConfigError,
    DataError,
    NewickError,
    NumericError,
    PhylodistError,
    SaturationError,
    TrainingDiverged,
)
from .evaluate import PipelineReport, evaluate_pipeline
from .losses import matrix_loss, batch_loss
from .matrices import CovarianceMatrix, DistanceMatrix, inverse_gromov, read_tsv, write_tsv
from .net.architectures import (
    ARCHITECTURES,
    NetworkSpec,
    build_architecture,
    network_forward,
)
from .net.reference import build_reference_net
from .net.serialize import load_network, save_network
from .nj import JoinTrace, bionj, neighbor_join
from .simulate import (
    BDParams,
    SubstModel,
    evolve_alignment,
    rate_matrix,
    sample_hky_frequencies,
    simulate_bd_tree,
)
from .train import TrainConfig, fit_scalar_head, train
from .tree import (
    PhyloTree,
    covariance_matrix,
    diameter,
    parse_newick,
    patristic_matrix,
    rf_distance,
    serialize_newick,
    tree_height,
    tree_splits,
    unroot,
)

__version__ = "0.1.0"
