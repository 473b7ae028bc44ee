"""stormgrid: coupled power/road network hurricane restoration simulator."""

from .coupling import RoadIndex, component_accessible, fuel_route_available
from .engine import (
    ExperimentResult,
    HourRecord,
    MonteCarloConfig,
    MonteCarloResult,
    ReplicationResult,
    SimulationContext,
    run_experiment,
    run_monte_carlo,
    run_replication,
)
from .fragility import (
    FragilityConfig,
    LineFragilityParams,
    RepairModel,
    RepairSpec,
    SubstationFragilityParams,
    p_fail_conductor,
    p_fail_line,
    p_fail_pole,
    p_fail_substation,
    p_fail_tower,
    sample_failures,
    sample_repair,
)
from .hazard import (
    HazardScenario,
    WindCell,
    drain_step,
    initial_flood,
    wind_at,
)
from .metrics import (
    QualitySeries,
    ResilienceSummary,
    bootstrap_mean_ci,
    improvement_pct,
    max_possible_resilience,
    resilience_loss,
    restoration_quantiles,
)
from .network import (
    ComponentKind,
    DamageLevel,
    Household,
    PowerComponent,
    PowerNetwork,
    RoadLink,
    RoadNetwork,
    TrafficLight,
    load_networks,
)
from .restoration import (
    CrewPool,
    Prioritizer,
    RepairJob,
    RestorationState,
    Strategy,
)
from .testbed import TestbedParams, generate_testbed

__version__ = "0.1.0"
