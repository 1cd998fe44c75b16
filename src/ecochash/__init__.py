"""Online supervised hashing with growing ternary output codes."""

from .bitcode import (PackedCode, TernaryCodeword, hamming_masked, pack,
                      ternary, unpack)
from .codebook import (Codebook, default_capacity, generate, recommended_rho,
                       separation_stats, unique_bipartition_probability)
from .ecoc import EcocMatrix, new_matrix
from .errors import (CodebookExhaustedError, ConsistencyError, DimensionError,
                     DuplicateIdError, EcocHashError, FormatError,
                     UndefinedAPError, UnknownLabelError)
from .evaluation import (CurvePoint, ExperimentConfig, ExperimentResult,
                         derive_seed, make_gaussian_classes, retrieval_map,
                         run_stream_experiment, write_curve_csv)
from .index import (MODE_CODEWORD, MODE_PHI, HashIndex, IndexEntry,
                    UpdateLedger)
from .learner import (BlockReport, FeatureNormalizer, HashModel, StepReport,
                      augment, exact_signs, gradient, init_functions, phi,
                      step, step_many, surrogate_loss)
from .storage import (ModelBundle, load_index, load_model, read_features,
                      save_index, save_model, write_features)

__version__ = "0.1.0"

__all__ = [
    "PackedCode", "TernaryCodeword", "hamming_masked", "pack", "ternary",
    "unpack",
    "Codebook", "default_capacity", "generate", "recommended_rho",
    "separation_stats", "unique_bipartition_probability",
    "EcocMatrix", "new_matrix",
    "EcocHashError", "DimensionError", "CodebookExhaustedError",
    "UnknownLabelError", "DuplicateIdError", "ConsistencyError",
    "UndefinedAPError", "FormatError",
    "CurvePoint", "ExperimentConfig", "ExperimentResult",
    "derive_seed", "make_gaussian_classes", "retrieval_map",
    "run_stream_experiment", "write_curve_csv",
    "MODE_CODEWORD", "MODE_PHI", "HashIndex", "IndexEntry", "UpdateLedger",
    "BlockReport", "FeatureNormalizer", "HashModel", "StepReport", "augment",
    "exact_signs", "gradient", "init_functions", "phi", "step", "step_many",
    "surrogate_loss",
    "ModelBundle", "load_index", "load_model", "read_features", "save_index",
    "save_model", "write_features",
]
