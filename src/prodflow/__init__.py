"""prodflow: transient-response and flow-variability analysis of production processes."""

from .model import (
    ExponentialMode,
    ModelFormatError,
    ProcessRun,
    ProductivityFunction,
    TimeSeries,
    format_model,
    is_stable,
    parse_model,
    steady_state_gain,
)
from .transient import (
    ChangeoverOverlapError,
    ChangeoverStages,
    SettlingConfig,
    SettlingResult,
    classify_steadiness,
    percentile_reaction_time,
    segment_changeover,
    settling_time,
    simulate_response,
    step_response,
)
from .spc import (
    ProcessMetrics,
    SpecLimits,
    classify_variability,
    coefficient_of_variation,
    process_capability_index,
    process_performance,
    sample_metrics,
)
from .flowchain import ChainNode, ChainResult, propagate_chain, propagate_one
from .identify import FdpFit, FitConfig, FitResult, fit_fdp, fit_productivity, goodness_of_fit
from .report import CaseRecord, ReportRow, build_report, spearman_rank, write_report_csv
from .svgplot import emit_step_plot

__version__ = "0.1.0"

