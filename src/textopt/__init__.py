"""Joint optimization of text representation and classifier hyperparameters."""

from .data import (
    DATASETS,
    DatasetInfo,
    LabeledCorpus,
    load_manifest,
    load_tsv,
    save_manifest,
    split_corpus,
    synthetic_corpus,
    write_tsv,
)
from .logreg import (
    LabeledRows,
    Model,
    TrainConfig,
    evaluate_accuracy,
    objective_and_gradient,
    predict,
    train,
)
from .pipeline import assignment_to_configs, evaluate_assignment, make_objective
from .smbo import Objective, RunState, best_so_far_curve, run
from .space import (
    Assignment,
    Categorical,
    Condition,
    ConfigSpace,
    Continuous,
    IntRange,
    ParamNode,
    SpaceError,
    active_nodes,
    define_space,
    enumerate_assignments,
    load_space,
    sample_prior,
    save_space,
    serialize_space,
    text_rep_space,
    validate_assignment,
)
from .textrep import (
    Featurizer,
    RepresentationConfig,
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    tokenize,
    vectorize_corpus,
)
from .tpe import (
    DegenerateDensityError,
    HistorySplit,
    ParzenCategorical,
    ParzenContinuous,
    TpeParams,
    TrialRecord,
    ei_score,
    fit_categorical,
    fit_continuous,
    fit_node_models,
    path_density,
    sample_candidate,
    split_history,
    suggest,
)

__version__ = "0.1.0"
