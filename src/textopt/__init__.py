"""Joint optimization of text representation and classifier hyperparameters."""

from .data import (
    LabeledCorpus,
    load_tsv,
    split_corpus,
    synthetic_corpus,
    write_tsv,
)
from .logreg import (
    LabeledRows,
    TrainConfig,
    evaluate_accuracy,
    objective_and_gradient,
    train,
)
from .pipeline import assignment_to_configs, evaluate_assignment, make_objective
from .smbo import RunState, best_so_far_curve, run
from .space import (
    Assignment,
    Categorical,
    Condition,
    ConfigSpace,
    Continuous,
    IntRange,
    ParamNode,
    define_space,
    enumerate_assignments,
    load_space,
    sample_prior,
    text_rep_space,
    validate_assignment,
)
from .textrep import (
    Featurizer,
    RepresentationConfig,
    build_vocabulary,
    load_stopwords,
    vectorize_corpus,
)
from .tpe import (
    TpeParams,
    TrialRecord,
    fit_categorical,
    fit_continuous,
    suggest,
)

__version__ = "0.1.0"
