"""streambench: one declarative pipeline, three ways to run it.

Queries are pure data (expression-tree lambdas, stages, a terminal fold) and
execute under interchangeable strategies — pull cursors, push consumer
chains, or fused loop nests — that must agree bit for bit while differing in
how many dispatch boundaries each element crosses.  Counters make those
crossings observable; the harness makes the resulting times comparable.
"""

from .counters import CounterSet, SiteCounters, StageCounters
from .errors import (
    ArityMismatch,
    DivisionByZero,
    GetBeforeAdvance,
    IndexOutOfRange,
    InvalidExpression,
    InvalidPipeline,
    ResultMismatch,
    StreamError,
    TooFewSamples,
    UnresolvedDataset,
    WorkerFailed,
)
from .exprs import (
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    ScalarExpr,
    I64_MAX,
    I64_MIN,
    eval_scalar,
    format_expr,
    mod_i64,
    wrap_i64,
)
from .fuse import FusedPlan, LoopLevel, exec_fused, optimize, render_plan, run_fused, substitute
from .harness import (
    BenchTask,
    CompareResult,
    SampleStats,
    Sink,
    compare,
    measure,
    student_t_stats,
    t_quantile_975,
)
from .lambdas import CallSiteCache, Lambda, apply_lambda, is_capturing, make_lambda
from .parallel import ParallelConfig, run_parallel, split_tasks
from .pull import open_chain, run_pull
from .push import (
    DEFAULT_SPLIT_THRESHOLD,
    SplitCursor,
    build_chain,
    for_each_remaining,
    run_push,
    try_advance,
)
from .query import (
    Dataset,
    Filter,
    FlatMap,
    IntsDataset,
    Map,
    QueryExpr,
    Ref,
    RefsDataset,
    Terminal,
    build_query,
    dataset_values,
    ints_dataset,
    layout_query,
    refs_dataset,
    resolve_dataset,
)
from .suite import Benchmark, define_suite, oracle_run, suite_by_name

__version__ = "0.1.0"
