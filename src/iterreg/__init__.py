"""iterreg: adjustable ridge-style regularization from one stored
optimization path, via weighted iterate averaging, plus the oracles that
verify every claimed identity, rate, and deviation bound at desk scale."""

from .problems import (
    ConvexityBounds,
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    eval_loss_grad,
    stochastic_grad,
    toy_problem,
)
from .optimizers import (
    DivergenceError,
    LRSchedule,
    PathRecord,
    kernel_gd_run,
    load_path,
    make_schedule,
    nsgd_run,
    psgd_run,
    save_path,
    sgd_run,
)
from .averaging import (
    DegenerateSchemeError,
    RunningAverage,
    WeightScheme,
    averaged_path,
    scheme_to_csv,
    weights_kernel,
    weights_nsgd,
    weights_sgd_adaptive,
)
from .oracles import (
    BoundingSequences,
    bounding_sequences,
    hull_contains,
    identity_check,
    kernel_solution,
    l1_prox_solution,
    lambda_pair,
    minimize_objective,
    nsgd_expectation_increment,
    expectation_path,
    ridge_solution,
    sandwich_check,
    variance_epsilon,
)
from .data_io import (
    Dataset,
    Report,
    load_idx,
    one_hot,
    read_report,
    synthetic_mnist,
    write_idx_images,
    write_idx_labels,
    write_report,
)

__version__ = "0.1.0"
