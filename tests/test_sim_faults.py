"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.errors import (
    ConfigError,
    SimulationError,
    TraceError,
    TransientError,
)
from repro.sim import BASELINE_L1, TraceCache, ooo_system, simulate
from repro.sim.faults import (
    FaultInjector,
    FaultSpec,
    WorkerCrash,
    corrupt_trace,
    parse_fault,
    poison_predictor,
)

CACHE = TraceCache()


def test_parse_fault_forms():
    assert parse_fault("crash@3") == FaultSpec("crash", 3)
    assert parse_fault("transient@2") == FaultSpec("transient", 2, count=1)
    assert parse_fault("transient@2x3") == FaultSpec("transient", 2,
                                                     count=3)
    assert parse_fault("stall@1:0.5") == FaultSpec("stall", 1,
                                                   seconds=0.5)


def test_parse_fault_rejects_garbage():
    for bad in ("crash", "crash@", "meteor@1", "stall@1", "crash@-1"):
        with pytest.raises(ConfigError):
            parse_fault(bad)


def test_crash_is_base_exception():
    """Degradation machinery must not be able to swallow a crash."""
    assert issubclass(WorkerCrash, BaseException)
    assert not issubclass(WorkerCrash, Exception)


def test_injector_fires_only_at_ordinal():
    injector = FaultInjector(["transient@1"])
    injector.on_attempt(0, {}, 0)                      # no fault
    with pytest.raises(TransientError):
        injector.on_attempt(1, {}, 0)
    injector.on_attempt(1, {}, 1)                      # attempt past count
    assert [f[0] for f in injector.fired] == ["transient"]


def test_injector_crash():
    injector = FaultInjector(["crash@0"])
    with pytest.raises(WorkerCrash):
        injector.on_attempt(0, {}, 0)


def test_injector_stall_sleeps():
    naps = []
    injector = FaultInjector(["stall@0:0.25"], sleep=naps.append)
    injector.on_attempt(0, {}, 0)
    assert naps == [0.25]


def test_corrupt_trace_is_deterministic_and_detected():
    trace = CACHE.get("povray", 1200)
    bad1 = corrupt_trace(trace, n_records=8, seed=7)
    bad2 = corrupt_trace(trace, n_records=8, seed=7)
    assert (bad1.va == bad2.va).all()
    assert (bad1.va != trace.va).sum() == 8
    assert (trace.va == CACHE.get("povray", 1200).va).all()  # original safe
    with pytest.raises(TraceError, match="non-canonical"):
        bad1.validate()
    with pytest.raises(TraceError):
        simulate(bad1, ooo_system(BASELINE_L1))


def test_valid_trace_passes_validate():
    CACHE.get("povray", 1200).validate()


def test_poison_predictor_surfaces_as_simulation_error():
    from repro.core.perceptron import PerceptronPredictor
    predictor = PerceptronPredictor()
    predictor.predict(0x400000)                        # healthy
    assert poison_predictor(predictor) == 64
    with pytest.raises(SimulationError, match="non-finite"):
        predictor.predict(0x400000)


def test_poison_predictor_partial_deterministic():
    from repro.core.perceptron import PerceptronPredictor
    a, b = PerceptronPredictor(), PerceptronPredictor()
    assert poison_predictor(a, n_entries=4, seed=3) == 4
    poison_predictor(b, n_entries=4, seed=3)
    poisoned_a = [i for i, w in enumerate(a._weights) if w[0] != w[0]]
    poisoned_b = [i for i, w in enumerate(b._weights) if w[0] != w[0]]
    assert poisoned_a == poisoned_b and len(poisoned_a) == 4


# ---------------------------------------------------------------------
# Mid-simulation crash specs and the armed-fault channel
# ---------------------------------------------------------------------

def test_parse_fault_data_and_midsim_forms():
    assert parse_fault("crash@3@5000") == FaultSpec("crash", 3,
                                                    at_access=5000)
    assert parse_fault("corrupt_trace@0") == FaultSpec("corrupt_trace", 0,
                                                       count=16)
    assert parse_fault("corrupt_trace@0x4") == FaultSpec("corrupt_trace",
                                                         0, count=4)
    assert parse_fault("poison_predictor@1") == FaultSpec(
        "poison_predictor", 1, count=0)
    assert parse_fault("poison_predictor@1x8") == FaultSpec(
        "poison_predictor", 1, count=8)


def test_access_ordinal_is_crash_only():
    with pytest.raises(ConfigError, match="ACCESS"):
        parse_fault("transient@2@500")
    with pytest.raises(ConfigError, match="ACCESS"):
        FaultSpec("stall", 1, seconds=0.5, at_access=10)


def test_requires_serial_tracks_attempt_level_kinds():
    assert FaultInjector(["crash@0"]).requires_serial
    assert FaultInjector(["stall@0:0.1"]).requires_serial
    assert FaultInjector(["crash@0@100",
                          "corrupt_trace@1"]).requires_serial
    assert not FaultInjector(["corrupt_trace@0"]).requires_serial
    assert not FaultInjector(["poison_predictor@2x4",
                              "corrupt_trace@0"]).requires_serial
    assert not FaultInjector([]).requires_serial


def test_data_specs_for_filters_by_ordinal_and_kind():
    injector = FaultInjector(["corrupt_trace@1x4", "poison_predictor@1",
                              "corrupt_trace@2", "crash@1"])
    specs = injector.data_specs_for(1)
    assert [s.kind for s in specs] == ["corrupt_trace",
                                      "poison_predictor"]
    assert injector.data_specs_for(0) == ()


def test_runner_rejects_attempt_faults_in_parallel_mode():
    from repro.errors import ConfigError as CE
    from repro.sim.resilience import ResilientRunner
    with pytest.raises(CE, match="serial"):
        ResilientRunner(jobs=2, faults=FaultInjector(["crash@0"]))
    # Data-level campaigns are armed inside the worker that runs the
    # cell, so they stay legal under a process pool.
    ResilientRunner(jobs=2, faults=FaultInjector(["corrupt_trace@0"]))


def test_parse_kill_worker_forms():
    spec = parse_fault("kill_worker@1")
    assert spec == FaultSpec("kill_worker", 1, count=0)  # every dispatch
    assert parse_fault("kill_worker@2x1") == FaultSpec("kill_worker", 2,
                                                       count=1)
    with pytest.raises(ConfigError):  # @ACCESS is crash-only
        FaultSpec("kill_worker", 1, at_access=5)


def test_kill_worker_requires_parallel_mode():
    injector = FaultInjector(["kill_worker@1"])
    assert injector.requires_parallel
    assert not injector.requires_serial  # legal under --jobs N
    assert injector.kill_plan() == {1: 0}
    assert FaultInjector(["kill_worker@2x1"]).kill_plan() == {2: 1}
    assert not FaultInjector(["transient@0"]).requires_parallel


def test_runner_rejects_kill_worker_in_serial_mode():
    from repro.errors import ConfigError as CE
    from repro.sim.resilience import ResilientRunner
    injector = FaultInjector(["kill_worker@0"])
    with pytest.raises(CE, match="jobs >= 2"):
        ResilientRunner(jobs=1, faults=injector)
    ResilientRunner(jobs=2, faults=injector)  # legal


def test_armed_channel_consume_and_clear():
    from repro.sim.faults import (
        any_armed,
        arm_fault,
        clear_armed,
        consume_fault,
    )
    clear_armed()
    assert not any_armed()
    arm_fault("sim_crash", 123)
    assert any_armed()
    assert consume_fault("sim_crash") == 123
    assert consume_fault("sim_crash") is None   # one-shot
    arm_fault("sim_crash", 5)
    clear_armed()
    assert not any_armed()


def test_midsim_crash_fires_inside_simulate():
    """crash@N@A arms the access ordinal; the driver dies there, not
    before the cell starts."""
    from repro.sim.faults import arm_fault, clear_armed
    clear_armed()
    trace = CACHE.get("povray", 1200)
    arm_fault("sim_crash", 700)
    with pytest.raises(WorkerCrash, match="access 700"):
        simulate(trace, ooo_system(BASELINE_L1))
    # An ordinal at/past the trace end still honours the injected death.
    arm_fault("sim_crash", 10 ** 9)
    with pytest.raises(WorkerCrash):
        simulate(trace, ooo_system(BASELINE_L1))
    clear_armed()


def test_unconsumed_data_fault_does_not_leak_into_next_cell():
    """A data fault armed for a cell whose attempt fails before the
    simulation consumes it must not fire in the next cell."""
    from repro.sim.executors import RetryPolicy
    from repro.sim.faults import any_armed, clear_armed
    from repro.sim.resilience import ResilientRunner
    clear_armed()
    trace = CACHE.get("povray", 1200)

    def cell():
        return {"ipc": simulate(trace, ooo_system(BASELINE_L1)).ipc}

    runner = ResilientRunner(
        faults=FaultInjector(["corrupt_trace@0", "transient@0x5"]),
        retry=RetryPolicy(max_retries=0))
    rows = runner.run_cells([({"cell": 0}, cell), ({"cell": 1}, cell)])
    assert rows[0]["status"] == "error"
    assert "TransientError" in rows[0]["error"]
    assert rows[1]["status"] == "ok", rows[1]["error"]
    assert not any_armed()
