"""Experiment harness (S9): scenarios, calibration, runners, figures.

Maps every table/figure of the paper to a regeneration function:

* :mod:`~repro.experiments.paper_values` — the published numbers,
* :mod:`~repro.experiments.calibration` — derives every simulator
  constant from those numbers (documented, invertible math),
* :mod:`~repro.experiments.scenarios` — the five request compositions
  on both environments,
* :mod:`~repro.experiments.runner` — runs a scenario end to end,
* :mod:`~repro.experiments.figures` / :mod:`~repro.experiments.tables`
  — regenerate Figures 1-8 and Table 1,
* :mod:`~repro.experiments.compare` — measured-vs-paper reports.
"""

from repro.experiments.paper_values import (
    PAPER_R1,
    PAPER_R2,
    PAPER_R3,
    PAPER_R4,
    SeriesTargets,
    VIRTUALIZED_TARGETS,
    BARE_METAL_TARGETS,
    DOM0_TARGETS,
)
from repro.experiments.calibration import (
    CalibratedEnvironment,
    calibrate_bare_metal,
    calibrate_virtualized,
)
from repro.experiments.scenarios import (
    Scenario,
    autoscaled_consolidated_scenario,
    autoscaled_flash_crowd_scenario,
    consolidated_scenario,
    consolidated_web_batch_scenario,
    default_duration_s,
    flash_crowd_scenario,
    flash_crowd_window,
    fleet_consolidation_scenario,
    migration_rebalance_scenario,
    open_loop_scenario,
    paper_scenarios,
    scenario,
    scenario_catalog,
)
from repro.experiments.testbed import (
    Testbed,
    TestbedBuilder,
    build_testbed,
    calibrated_environment,
)
from repro.experiments.runner import ExperimentResult, run_scenario, run_scenario_cached
from repro.experiments.suite import (
    RunSummary,
    SuiteResult,
    SuiteRun,
    derive_run_seed,
    execute_run,
    interference_checks,
    paper_matrix_suite,
    render_suite_ratio_table,
    run_suite,
    suite_grid,
    suite_ratio_data,
)
from repro.experiments.figures import (
    FigurePanel,
    FigureData,
    figure,
    render_figure,
    render_suite_figures,
)
from repro.experiments.tables import render_table1, table1_rows
from repro.experiments.compare import (
    QualitativeChecks,
    compare_with_paper,
    qualitative_checks,
)

__all__ = [
    "PAPER_R1",
    "PAPER_R2",
    "PAPER_R3",
    "PAPER_R4",
    "SeriesTargets",
    "VIRTUALIZED_TARGETS",
    "BARE_METAL_TARGETS",
    "DOM0_TARGETS",
    "CalibratedEnvironment",
    "calibrate_virtualized",
    "calibrate_bare_metal",
    "Scenario",
    "scenario",
    "open_loop_scenario",
    "flash_crowd_scenario",
    "flash_crowd_window",
    "autoscaled_flash_crowd_scenario",
    "autoscaled_consolidated_scenario",
    "consolidated_scenario",
    "consolidated_web_batch_scenario",
    "fleet_consolidation_scenario",
    "migration_rebalance_scenario",
    "paper_scenarios",
    "scenario_catalog",
    "default_duration_s",
    "Testbed",
    "TestbedBuilder",
    "build_testbed",
    "calibrated_environment",
    "ExperimentResult",
    "run_scenario",
    "run_scenario_cached",
    "SuiteRun",
    "RunSummary",
    "SuiteResult",
    "suite_grid",
    "paper_matrix_suite",
    "run_suite",
    "execute_run",
    "derive_run_seed",
    "interference_checks",
    "suite_ratio_data",
    "render_suite_ratio_table",
    "FigurePanel",
    "FigureData",
    "figure",
    "render_figure",
    "render_suite_figures",
    "render_table1",
    "table1_rows",
    "QualitativeChecks",
    "qualitative_checks",
    "compare_with_paper",
]
