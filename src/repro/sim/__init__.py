"""Discrete-event simulation substrate.

This package provides the asynchronous execution environment in which the
consensus algorithms of the paper run: a seeded event-driven kernel
(:class:`~repro.sim.kernel.SimulationKernel`), generator-based processes,
crash injection and execution tracing.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "context": [
            "BroadcastEffect", "Effect", "LocalEffect", "ProcessContext", "ProcessStats",
            "RoundLimitExceeded", "SendEffect", "SharedMemEffect", "WaitEffect",
        ],
        "events": [
            "MessageDelivery", "ProcessCrash", "ProcessStart", "ScheduledEvent", "StepResume",
        ],
        "kernel": ["RunStatus", "SimConfig", "SimulationKernel", "SimulationResult"],
        "multikernel": [
            "DEFAULT_BATCH_EVENTS", "CooperativeScheduler", "kernel_stepper", "run_cooperative",
            "scheduler_rng",
        ],
        "process": ["ProcessState", "SimProcess"],
        "rng": ["RandomSource"],
        "trace": ["Trace"],
    },
)
