"""Simulation layer: Table II configs, the driver, and result handling."""

from .config import (
    BASELINE_L1,
    L1_16K_4W_VIPT,
    L1Config,
    SIPT_GEOMETRIES,
    SystemConfig,
    inorder_system,
    ooo_system,
    system_for,
)
from .bench import (
    check_regression,
    profile_simulate,
    run_bench,
    run_sweep_bench,
    write_report,
)
from .checkpoint import (
    checkpoint_path_for,
    load_checkpoint,
    trace_identity,
    write_checkpoint,
)
from .coherent_driver import CoherentRunResult, simulate_coherent
from .driver import simulate, simulate_multicore
from .experiment import (
    SHARED_TRACES,
    TraceCache,
    default_accesses,
    run_app,
)
from .executors import (
    CellOutcome,
    CellTask,
    Executor,
    RetryPolicy,
    SerialExecutor,
    SupervisedPoolExecutor,
)
from .faults import FaultInjector, FaultSpec, WorkerCrash, parse_fault
from .resilience import ResilientRunner, RunnerStats, load_journal
from .results import (
    SimResult,
    arithmetic_mean,
    harmonic_mean,
)
from .sweep import SweepSpec, run_sweep, to_csv
from .warmstate import WarmStateCache, warm_cache_for

__all__ = [
    "CellOutcome",
    "CellTask",
    "Executor",
    "FaultInjector",
    "FaultSpec",
    "ResilientRunner",
    "SerialExecutor",
    "SupervisedPoolExecutor",
    "RetryPolicy",
    "RunnerStats",
    "WorkerCrash",
    "load_journal",
    "parse_fault",
    "BASELINE_L1",
    "CoherentRunResult",
    "L1Config",
    "L1_16K_4W_VIPT",
    "SHARED_TRACES",
    "SIPT_GEOMETRIES",
    "SimResult",
    "SweepSpec",
    "SystemConfig",
    "TraceCache",
    "WarmStateCache",
    "warm_cache_for",
    "arithmetic_mean",
    "check_regression",
    "checkpoint_path_for",
    "load_checkpoint",
    "trace_identity",
    "write_checkpoint",
    "default_accesses",
    "profile_simulate",
    "run_bench",
    "run_sweep_bench",
    "write_report",
    "harmonic_mean",
    "inorder_system",
    "ooo_system",
    "run_app",
    "run_sweep",
    "simulate",
    "simulate_coherent",
    "simulate_multicore",
    "system_for",
    "to_csv",
]
