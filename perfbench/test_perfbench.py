"""Checks on the benchmark itself, on a small slice of each workload."""

import rmrsim
import tracing
import workloads

COUNTS = (
    "memory.apply.calls",
    "runner.replay.steps",
    "harness.stability.calls",
    "harness.enumerate.histories",
)


def _slices():
    sim = workloads.Sim(7)
    enum = workloads.Enum(7)
    drill = workloads.Drill(7)
    return [
        (sim, sim.pass_units(0)[:6]),
        (enum, [u for u in enum.pass_units(0) if u[0] in ("cc_flag", "dsm_fixed_waiters",
                                                          "mutant_single_waiter")]),
        (drill, [u for u in drill.pass_units(0) if u[-1] == "16"]),
    ]


def _traced(workload, units):
    tracer = tracing.Tracer(rmrsim)
    tracer.install()
    try:
        result = workloads.run_pass(workload, units)
    finally:
        tracer.uninstall()
    return result, tracer.snapshot()


def test_traced_outputs_equal_untraced_and_counts_repeat():
    totals = dict.fromkeys(COUNTS, 0)
    for workload, units in _slices():
        plain = workloads.run_pass(workload, units)
        first, counts = _traced(workload, units)
        second, again = _traced(workload, units)
        assert plain.failed == 0
        assert first.outputs == plain.outputs == second.outputs
        assert {k: counts[k] for k in COUNTS} == {k: again[k] for k in COUNTS}
        for k in COUNTS:
            totals[k] += counts[k]
    assert all(totals.values()), totals


def test_tracer_uninstall_restores_the_program():
    before = (rmrsim.Runner.step, rmrsim.Runner.__dict__["replay"], rmrsim.harness.stability,
              rmrsim.cli.adversary_separation, rmrsim.enumerate_histories)
    tracer = tracing.Tracer(rmrsim)
    tracer.install()
    assert rmrsim.harness.stability is not before[2]
    assert rmrsim.cli.enumerate_histories is rmrsim.harness.enumerate_histories
    tracer.uninstall()
    after = (rmrsim.Runner.step, rmrsim.Runner.__dict__["replay"], rmrsim.harness.stability,
             rmrsim.cli.adversary_separation, rmrsim.enumerate_histories)
    assert after == before


def test_seed_changes_sim_inputs_only():
    for cls in (workloads.Enum, workloads.Drill):
        assert cls(1).pass_units(0) == cls(2).pass_units(0) == cls(1).pass_units(1)
    sim = workloads.Sim(1)
    assert sim.pass_units(0) == workloads.Sim(1).pass_units(0)
    assert sim.pass_units(0) != workloads.Sim(2).pass_units(0)
    assert sim.pass_units(0) != sim.pass_units(1)
