"""Message-passing substrate: messages, delay models and the network."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "delays": [
            "ConstantDelay", "DelayModel", "ExponentialDelay", "LogNormalDelay", "SpikeDelay",
            "UniformDelay",
        ],
        "empirical": [
            "REFERENCE_RTT_MS", "EmpiricalDelay", "ShiftedLogNormalDelay", "TraceExhausted",
            "TraceReplayDelay", "fit_delay_model", "load_rtt_samples", "scale_to_unit_mean",
        ],
        "message": ["Message", "payload_size"],
        "transport": ["Network", "TrafficStats"],
    },
)
