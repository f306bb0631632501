"""Solar-powered UAV navigation toolkit.

Energy-aware and time-efficient grid planners under battery constraints, a
privacy-aware time-layered DP planner, a hybrid pure-pursuit / reactive
avoidance controller, and a deterministic urban scenario simulator."""

__version__ = "0.1.0"

from .control import (AvoidanceParams, ControlLimits, Detection, LimitClamped, Mode,
                      avoidance_command, pursuit_command, pursuit_lookahead,
                      sense_obstacles, step_kinematics_3d, step_kinematics_planar,
                      supervisor_step, wrap_angle)
from .energy import (BatteryDepleted, BatteryState, ConsumptionParams, EnergyModel,
                     HarvestModel, HarvestParams, battery_step, harvest_power_altitude,
                     harvest_power_clear, harvest_power_cloud, incidence_cosine)
from .grid import EdgeCost, EmptyGrid, NavGrid, build_grid
from .planning import (NoPath, NodeInObstacle, Path, attach_battery_profile,
                       plan_energy_efficient, plan_shortest, plan_time_efficient)
from .privacy import (DpLattice, PrivacyPlan, Unreachable, plan_privacy_dp,
                      privacy_intensity, total_privacy_risk)
from .scenario_io import (ParseError, ValidationError, load_scenario,
                          load_scenario_file, save_scenario, scenario_digest,
                          scenario_from_dict, scenario_to_dict)
from .simulate import (Metrics, MovingObstacle, PlanningFailed, Scenario, SimEvent,
                       SimLog, StepRecord, compute_metrics, energy_audit,
                       min_separation, run_scenario, shadowed_at, step_obstacles)
from .world import (Box, Environment, Prism, PrivacyRegion, SunModel, Vec3, gamma,
                    in_shadow, is_collision, segment_blocked, segments_blocked)

__all__ = [name for name in dir() if not name.startswith("_")]
