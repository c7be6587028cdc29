"""Group-invariant kernels by rewriting scalar-product triples.

Any kernel that is a function of (<x,x>, <x,y>, <y,y>) can be made
invariant under sign flips, root-of-unity rotations, complex phases,
scaling, or arbitrary nonzero scalar factors by swapping the raw triple
for the triple of an invariant inner kernel.  The package bundles the
kernel algebra, numerical verification of the claimed invariances,
entropy-ranked spectral clustering on top of it, generators for
sign/scale-corrupted benchmark data, and a CLI for reproducible runs.
"""

from . import errors
from .data import (
    Dataset,
    MixingEstimate,
    angle_between_lines_deg,
    canonical_direction,
    estimate_mixing,
    gen_directions,
    gen_flipped_blobs,
    gen_xor,
    load_csv,
    save_dataset,
    top_norm_select,
)
from .invariance import (
    PHASE,
    PROJ,
    SCALE,
    SIGN,
    ChainCompatibilityWarning,
    Invariance,
    InvarianceReport,
    KernelSpec,
    apply_group,
    chain,
    check_invariance,
    eval_kernel,
    format_invariance,
    frobenius_inner,
    invariant_inner,
    kernel_label,
    kernel_matrix,
    kernel_triple,
    median_heuristic_sigma,
    parse_invariance,
    quotient_map_oracle,
    rotation,
    sample_group_element,
    transform_triples,
    triple_value,
)
from .kernels import (
    BaseKernel,
    ScalarTriple,
    gaussian,
    laplace,
    linear,
    poly,
    polyhom,
)
from .spectral import (
    ClusteringResult,
    EigenDecomposition,
    GramMatrix,
    build_gram,
    check_psd,
    cluster_gram,
    clustering_accuracy,
    keca_embed,
    kmeans,
    renyi_entropy,
    spectral_cluster,
    sym_eig,
    truncated_eig,
)

__version__ = "0.1.0"
