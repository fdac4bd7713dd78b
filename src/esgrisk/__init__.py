"""ESG reputational-risk event detection and shareholder-response measurement.

The package turns a firm-tagged message stream into daily category
series, flags abnormal-volume risk events against a trailing baseline,
and measures the market response around those events with a market
model event study.
"""

from .aggregate import SeriesStack, build_series, label_mask
from .detect import (
    DetectionConfig,
    RemovedEvent,
    RiskEvent,
    esd_outliers,
    exclude_confounded,
    filter_and_merge,
    select_risk_events,
)
from .errors import ConfigError, DataError, EsgRiskError, NumericError
from .ingest import (
    CalendarEventRow,
    EventKind,
    IngestReport,
    MarketIndexRow,
    parse_timestamp,
    read_calendar_events,
    read_market_index,
    read_prices,
)
from .lexicon import EsgClassifier, LexiconEntry, TokenMatcher, load_esg_lexicon, tokenize
from .pipeline import (
    PathsConfig,
    RunConfig,
    load_run_config,
    run_classify,
    run_detect,
    run_pipeline,
    run_study,
)
from .sentiment import (
    DEFAULT_SIGN_THRESHOLD,
    SentimentScorer,
    Sign,
    classify_sign,
    load_sentiment_lexicon,
)
from .study import (
    EstimationConfig,
    EventAbnormals,
    MarketModelFit,
    NodeStudyResult,
    abnormal_return,
    aggregate_node,
    align_firm_returns,
    align_market_returns,
    bmp_tstat,
    compute_event_abnormals,
    fit_market_model,
    standardize,
)
from .synth import (
    GroundTruth,
    PlantedEvent,
    SynthConfig,
    evaluate_detection,
    generate,
    simulate_event_panel,
)
from .taxonomy import (
    PARENT,
    PILLARS,
    REPORT_ORDER,
    SUBCATEGORIES,
    Node,
    ancestors,
    expand_to_ancestors,
    parse_node,
)
from .trading import TradingCalendar, assign_trading_index

__version__ = "0.1.0"

__all__ = [
    "CalendarEventRow",
    "ConfigError",
    "DEFAULT_SIGN_THRESHOLD",
    "DataError",
    "DetectionConfig",
    "EsgClassifier",
    "EsgRiskError",
    "EstimationConfig",
    "EventAbnormals",
    "EventKind",
    "GroundTruth",
    "IngestReport",
    "LexiconEntry",
    "MarketIndexRow",
    "MarketModelFit",
    "Node",
    "NodeStudyResult",
    "NumericError",
    "PARENT",
    "PILLARS",
    "PathsConfig",
    "PlantedEvent",
    "REPORT_ORDER",
    "RemovedEvent",
    "RiskEvent",
    "RunConfig",
    "SUBCATEGORIES",
    "SentimentScorer",
    "SeriesStack",
    "Sign",
    "SynthConfig",
    "TokenMatcher",
    "TradingCalendar",
    "abnormal_return",
    "aggregate_node",
    "align_firm_returns",
    "align_market_returns",
    "ancestors",
    "assign_trading_index",
    "bmp_tstat",
    "build_series",
    "classify_sign",
    "compute_event_abnormals",
    "esd_outliers",
    "evaluate_detection",
    "exclude_confounded",
    "expand_to_ancestors",
    "filter_and_merge",
    "fit_market_model",
    "generate",
    "label_mask",
    "load_esg_lexicon",
    "load_run_config",
    "load_sentiment_lexicon",
    "parse_node",
    "parse_timestamp",
    "read_calendar_events",
    "read_market_index",
    "read_prices",
    "run_classify",
    "run_detect",
    "run_pipeline",
    "run_study",
    "select_risk_events",
    "simulate_event_panel",
    "standardize",
    "tokenize",
]
