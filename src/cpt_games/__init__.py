"""CPT lottery evaluation, equilibrium checks, and calibrated learning in finite games."""

from .cpt import (
    CptPreferences,
    Lottery,
    ValueFunction,
    WeightingFunction,
    cpt_regret,
    cpt_value,
    decision_weights,
    eut_preferences,
    evaluate_weight,
    identity_value,
    identity_weighting,
    piecewise_power_value,
    preferences_from_dict,
    preferences_to_dict,
    prelec_weighting,
    tabulated_weighting,
)
from .games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    ProductDistribution,
    UnsupportedActionError,
    conditional,
    empirical_update,
    induced_lottery,
    marginal,
    product_join,
)
from .equilibrium import (
    Certificate,
    best_reaction,
    check_correlated_eq,
    check_mediated_eq,
    check_nash,
    hull_membership,
    mediated_hull_distance,
    region_membership,
    sample_region,
    simplex_grid,
)
from .mediated import (
    InvalidWitnessError,
    MediatedGame,
    RandomizedStrategyProfile,
    UnsupportedSignalError,
    construct_mediator,
    identity_mediated_game,
    induced_action_distribution,
    obedient_profile,
    signal_assessment,
    verify_mediated_nash,
)
from .calibration import (
    CalibratedForecaster,
    ForecastRecord,
    calibration_score,
)
from .engine import (
    ActionScriptStrategy,
    AssessmentDrivenStrategy,
    FixedMixStrategy,
    ForecastingBestReaction,
    MixScheduleStrategy,
    RunTrace,
    Strategy,
    cpt_regret_matrix,
    run_engine,
)
from .replay import (
    AssessmentCollisionError,
    ReplayScripts,
    construct_calibrated_replay,
)
from .scripted import (
    BlockSchedule,
    block_adversary,
    counterexample_game,
    counterexample_game_3p,
    regret_tail_probe,
    scripted_cycle_run,
)

__version__ = "0.1.0"
