"""Metric learning for matching altered probe faces to an intact gallery.

The package is framework-free (numpy + stdlib): losses carry their own
analytic gradients, the embedding network does explicit backprop, and the
evaluation module implements the full gallery/probe identification and
verification protocol.
"""

from .dataset import (
    Dataset,
    GalleryProbePartition,
    Sample,
    SplitSpec,
    Subclass,
    SubjectRecord,
    SynthConfig,
    gallery_probe_partition,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
    subject_split,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DimensionMismatchError,
    MiningError,
    NumericError,
    ParseError,
    ProtocolError,
    SclMetricError,
)
from .evaluation import (
    CmcCurve,
    EvalConfig,
    EvalReport,
    GarFarEntry,
    RepetitionResult,
    VerificationReport,
    cmc_curve,
    evaluate_model,
    extend_gallery,
    gar_at_far,
    identify,
    mean_inter_class_distance,
    rank_k_accuracy,
    repeated_evaluation,
)
from .losses import (
    LossValue,
    SclConfig,
    contrastive_loss,
    euclidean_distance,
    scl_inter_loss,
    scl_intra_loss,
    scl_set_loss,
    squared_euclidean,
    triplet_loss,
)
from .mining import (
    Batch,
    ContrastivePair,
    GenuineSet,
    ImposterSet,
    Triplet,
    build_cl_pairs,
    build_genuine_sets,
    build_imposter_sets,
    build_triplets,
    make_batches,
)
from .model import (
    Checkpoint,
    ForwardTrace,
    Layer,
    ModelParams,
    backward,
    forward,
    identity_model,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainLog,
    adam_step,
    derive_seed,
    train,
)

__version__ = "0.1.0"
