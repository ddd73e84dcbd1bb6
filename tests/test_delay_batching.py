"""Exact-sequence guarantees of batched delay sampling.

The transport's delay cache (PR 6) may prefetch any number of draws ahead of
the kernel, so correctness of every experiment rests on one contract:
``DelayModel.sample_batch(rng, k)`` returns bit-identical floats to ``k``
per-call ``sample(rng)`` draws and leaves ``rng`` in the identical state --
for every model, at any batch size.  Every refill is plain Python over the
very ``rng.random()`` calls ``sample`` makes: the structural tests below
fail if a refill ever reads or writes the generator's state instead.
"""

import random
from itertools import accumulate

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import prepare_consensus, run_consensus
from repro.network.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    SpikeDelay,
    UniformDelay,
)
from repro.network.empirical import (
    REFERENCE_RTT_MS,
    EmpiricalDelay,
    ShiftedLogNormalDelay,
    TraceReplayDelay,
    scale_to_unit_mean,
)
from repro.network.message import Message
from repro.network.transport import Network
from repro.sim.rng import RandomSource

_UNIT_RTT = scale_to_unit_mean(REFERENCE_RTT_MS)

# Long enough for the 512-draw batch tests AND the transport test: serving
# 700 cached draws consumes 1008 prefetched entries (refills double
# 16..512), so the replay trace needs headroom well past the draw count.
_TRACE = tuple(random.Random(8).uniform(0.2, 3.0) for _ in range(2048))

MODELS = [
    ConstantDelay(),
    UniformDelay(),
    UniformDelay(low=0.1, high=9.0),
    ExponentialDelay(),
    ExponentialDelay(mean=3.0, floor=0.25),
    LogNormalDelay(),
    # spike_probability=0.5 exercises both branches of the two-draw recipe
    # in every batch size.
    SpikeDelay(),
    SpikeDelay(spike_probability=0.5),
    # The trace-driven models: a hand-rolled coarse grid, the fitted pair
    # (ECDF sketch + shifted log-normal) and a deterministic trace replay.
    EmpiricalDelay(quantiles=(0.5, 0.75, 1.0, 2.0, 4.0)),
    EmpiricalDelay.fit(_UNIT_RTT),
    ShiftedLogNormalDelay.fit(_UNIT_RTT),
    TraceReplayDelay(_TRACE),
]

# The transport's refill sizes, pinned literally: how far a run over-draws
# (and so where a ``TraceReplayDelay`` runs dry) is observable behaviour.
_REFILL_SCHEDULE = [16, 32, 64, 128, 256, 512, 512, 512]

BATCH_SIZES = [0, 1, 7, 16, 512]


def _model_id(model):
    # ``describe()`` is ``repr`` for the synthetic models and a bounded
    # digest for the trace-driven ones (a 2048-float repr makes no test id).
    return model.describe()


@pytest.mark.parametrize("k", BATCH_SIZES)
@pytest.mark.parametrize("model", MODELS, ids=_model_id)
def test_sample_batch_is_exact_sequence(model, k):
    """Batched draws equal per-call draws bit for bit, same end state."""
    seed = 12345
    batched_rng = random.Random(seed)
    percall_rng = random.Random(seed)
    batched = model.sample_batch(batched_rng, k)
    percall = [model.sample(percall_rng) for _ in range(k)]
    assert batched == percall
    assert batched_rng.getstate() == percall_rng.getstate()


@pytest.mark.parametrize("model", MODELS, ids=_model_id)
def test_interleaved_batches_continue_the_stream(model):
    """Mixed batch sizes and per-call draws walk one uninterrupted stream."""
    seed = 777
    mixed_rng = random.Random(seed)
    percall_rng = random.Random(seed)
    mixed = []
    mixed.extend(model.sample_batch(mixed_rng, 3))
    mixed.append(model.sample(mixed_rng))
    mixed.extend(model.sample_batch(mixed_rng, 16))
    mixed.extend(model.sample_batch(mixed_rng, 1))
    percall = [model.sample(percall_rng) for _ in range(len(mixed))]
    assert mixed == percall
    assert mixed_rng.getstate() == percall_rng.getstate()


class _NoTransplantRandom(random.Random):
    """A generator that counts uniform draws and refuses state access.

    A refill may only *call* ``random()`` (directly or through ``uniform``,
    ``expovariate``, ... which call it): copying the Mersenne-Twister state
    out to advance it in another library's generator and back costs ~150x
    the 16 draws of a first refill, and raises here.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getstate(self):
        raise AssertionError("a delay refill read the generator state")

    def setstate(self, state):
        raise AssertionError("a delay refill wrote the generator state")


def _uniforms_per_sample(model):
    """Uniform draws one sample costs; ``None`` where CPython's recipe varies."""
    if isinstance(model, (ConstantDelay, TraceReplayDelay)):
        return 0
    if isinstance(model, SpikeDelay):
        return 2
    if isinstance(model, (LogNormalDelay, ShiftedLogNormalDelay)):
        return None  # rejection-sampled normalvariate
    return 1


@pytest.mark.parametrize("k", [16, 512])
@pytest.mark.parametrize("model", MODELS, ids=_model_id)
def test_sample_batch_draws_uniforms_and_never_touches_the_state(model, k):
    """A batch costs exactly the ``random()`` calls of ``k`` samples.

    ``k`` for the one-uniform recipes, ``2 * k`` for ``SpikeDelay`` (coin,
    then magnitude), none for the constant and the trace replay -- and no
    ``getstate``/``setstate`` round-trip at either refill size.
    """
    rng = _NoTransplantRandom(99)
    percall_rng = _NoTransplantRandom(99)
    batched = model.sample_batch(rng, k)
    assert batched == [model.sample(percall_rng) for _ in range(k)]
    assert rng.draws == percall_rng.draws
    per_sample = _uniforms_per_sample(model)
    if per_sample is not None:
        assert rng.draws == per_sample * k


def test_base_class_batch_is_the_percall_loop():
    """Models without an override inherit the per-call loop (still exact)."""

    class CountingModel(DelayModel):
        def __init__(self):
            self.calls = 0

        def sample(self, rng):
            self.calls += 1
            return rng.random() + 1.0

    model = CountingModel()
    rng = random.Random(5)
    reference = random.Random(5)
    assert model.sample_batch(rng, 7) == [reference.random() + 1.0 for _ in range(7)]
    assert model.calls == 7


@pytest.mark.parametrize(
    "base",
    [
        ConstantDelay(),
        UniformDelay(),
        ExponentialDelay(),
        SpikeDelay(),
        EmpiricalDelay(quantiles=(0.5, 1.0, 2.0)),
        TraceReplayDelay(_TRACE),
    ],
    ids=_model_id,
)
def test_subclass_overriding_sample_gets_the_percall_loop(base):
    """The ``type(self) is not X`` guard on every inlined refill.

    The parent's ``sample_batch`` inlines the *parent's* recipe, so a
    subclass that redefines ``sample`` must be routed to the base per-call
    loop: ``k`` calls of its own ``sample``, values and end state included.
    """
    calls = []

    class Doubled(type(base)):
        def sample(self, rng):
            calls.append(1)
            return 2.0 * super().sample(rng)

    model = Doubled(**{field: getattr(base, field) for field in base.__dataclass_fields__})
    rng = random.Random(23)
    reference = random.Random(23)
    batched = model.sample_batch(rng, 9)
    assert len(calls) == 9
    assert batched == [model.sample(reference) for _ in range(9)]
    assert rng.getstate() == reference.getstate()


# ------------------------------------------------------------ transport seam
@pytest.mark.parametrize("model", MODELS, ids=_model_id)
def test_network_delay_cache_serves_the_percall_stream(model):
    """``Network.sample_delay`` with the refill cache equals per-call draws.

    The reference stream is rebuilt from a fresh ``RandomSource`` with the
    same master seed: the network's delays stream is its sole consumer, so
    draw ``i`` must be the same float no matter how far the cache prefetched.
    """
    network = Network(8, delay_model=model, rng=RandomSource(17))
    reference_rng = RandomSource(17).stream("network", "delays")
    for i in range(700):
        sender = i % 8
        dest = (i * 3 + 1) % 8
        expected = model.sample(reference_rng)
        if sender == dest:
            expected *= network.self_delay_factor
        assert network.sample_delay(sender, dest) == expected, f"draw {i} diverged"


@pytest.mark.parametrize("model", MODELS, ids=_model_id)
def test_transmit_equals_prepare_plus_sample_delay(model):
    """The hot-path seam is the two public methods minus the envelope, exactly."""
    combined = Network(6, delay_model=model, rng=RandomSource(3))
    split = Network(6, delay_model=model, rng=RandomSource(3))
    payloads = [None, 0, 7, "text", (1, 2, 3), {"k": 1.5}, ["x", ("y",)]]
    for i in range(200):
        sender = i % 6
        dest = (i + 1 + i // 6) % 6
        payload = payloads[i % len(payloads)]
        msg_id, delay = combined.transmit(sender, dest, payload)
        message = split.prepare(sender, dest, payload, float(i))
        assert type(message) is Message
        assert message == (sender, dest, payload, float(i), msg_id)
        assert msg_id == i + 1
        assert delay == split.sample_delay(sender, dest)
    assert combined.stats.as_dict() == split.stats.as_dict()
    assert combined.stats == split.stats and combined.stats.messages_sent == 200


def test_transmit_validates_pids_like_prepare():
    network = Network(4, rng=RandomSource(1))
    for sender, dest in ((0, 9), (-1, 0)):
        with pytest.raises(ValueError):
            network.transmit(sender, dest, "payload")
        with pytest.raises(ValueError):
            network.prepare(sender, dest, "payload", 0.0)
    assert network.stats.messages_sent == 0


class _RecordingModel(DelayModel):
    """Uniform delays that log the size of every refill asked of them."""

    def __init__(self):
        self.refills = []
        self._inner = UniformDelay()

    def sample(self, rng):
        return self._inner.sample(rng)

    def sample_batch(self, rng, k):
        self.refills.append(k)
        return self._inner.sample_batch(rng, k)


def _via_transmit(network, i):
    network.transmit(i % 4, (i + 1) % 4, "x")


def _via_sample_delay(network, i):
    network.sample_delay(i % 4, (i + 1) % 4)


def _alternating(network, i):
    (_via_transmit, _via_sample_delay)[i % 2](network, i)


@pytest.mark.parametrize("send", [_via_transmit, _via_sample_delay, _alternating])
def test_sample_delay_and_transmit_refill_on_the_same_schedule(send):
    """Both entry points share one refill: 16, 32, ... 512, 512, 512.

    The schedule must not depend on which of the two public paths the
    sends took, nor on how they interleave.
    """
    model = _RecordingModel()
    network = Network(4, delay_model=model, rng=RandomSource(11))
    for i in range(sum(_REFILL_SCHEDULE[:-1])):
        send(network, i)
    assert model.refills == _REFILL_SCHEDULE[:-1]
    send(network, -1)  # the first draw of the last block
    assert model.refills == _REFILL_SCHEDULE


@pytest.mark.parametrize(
    "model", [UniformDelay(), SpikeDelay(), EmpiricalDelay.fit(_UNIT_RTT)], ids=_model_id
)
def test_full_run_draws_delays_without_touching_generator_state(model):
    """A whole ``ben-or`` n=4 run on a state-guarded delays stream.

    The guarded generator continues the run's own delays stream, so the run
    must match an untouched one, and its uniform-draw count must be the
    refill schedule's: the blocks needed to cover the messages sent.
    """
    config = ExperimentConfig(
        topology=ClusterTopology.singleton_clusters(4),
        algorithm="ben-or",
        seed=5,
        delay_model=model,
    )
    reference = run_consensus(config)

    prepared = prepare_consensus(config)
    network = prepared.network
    guarded = _NoTransplantRandom(0)
    random.Random.setstate(guarded, network._rng.getstate())
    network._rng = guarded
    result = prepared.finalize(prepared.kernel.run(), 0.0)

    assert result.decided_value == reference.decided_value
    assert result.sim_result.events_processed == reference.sim_result.events_processed
    sent = result.metrics.messages_sent
    assert sent == reference.metrics.messages_sent and sent > _REFILL_SCHEDULE[0]
    drawn = next(total for total in accumulate(_REFILL_SCHEDULE) if total >= sent)
    assert guarded.draws == drawn * _uniforms_per_sample(model)
