"""syndatum: synthetic-data generation with utility metrics, analytic utility
bounds, and distributional fidelity measures, plus a reproduction harness."""

__version__ = "0.1.0"

from .datamodel import (  # noqa: F401
    Dataset,
    NoiseKind,
    NoiseModel,
    SeedSpec,
    TaskKind,
    make_dataset,
    read_csv,
    sample_noise,
    write_csv,
)
from .densities import (  # noqa: F401
    BoxSupport,
    DensityModel,
    FidelityCertificate,
    LinearTilt1D,
    PiecewiseConstant1D,
    Triangular1D,
    TruncatedNormalDiag,
    UniformBox,
    certify_fidelity_level,
    chi_square_divergence,
    default_c_grid,
    fidelity_tail_probability,
    lemma1_chi2_to_fidelity,
    lemma1_fidelity_to_chi2_bound,
    parse_density,
)
from .estimators import (  # noqa: F401
    EstimatorSpec,
    FittedEstimator,
    fit_estimator,
    parse_estimator,
)
from .synthesis import synthesize_dataset  # noqa: F401
from .erm import (  # noqa: F401
    BasisFunctionClass,
    FittedModel,
    fit_classification,
    fit_regression,
    make_model_class,
    parse_model_class,
    population_optimum,
)
from .metrics import (  # noqa: F401
    ComparisonReport,
    RiskConfig,
    RiskEstimate,
    UtilityReport,
    compare_models,
    estimate_risk,
    excess_risk,
    utility_metric,
)
from .bounds import (  # noqa: F401
    AssumptionCheck,
    BoundScenario,
    ClassificationBoundReport,
    FittedQuad,
    LRBoundReport,
    RegressionBoundReport,
    assumption4_check,
    assumption4_sup_U,
    classification_bound,
    lr_explicit_bound,
    regression_bound,
)
from .harness import (  # noqa: F401
    ResultRow,
    ScenarioConfig,
    TruthSpec,
    load_scenarios,
    run_builtin,
    run_scenario,
    summarize,
    write_rows_csv,
)
