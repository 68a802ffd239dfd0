"""Failure-injection tests: the threaded runtime must fail loudly, not hang."""

import numpy as np
import pytest

from repro.core import FFSVAConfig
from repro.core.pipeline import (
    ABORTED,
    PER_STREAM,
    BatchRule,
    StageGraph,
    StageLogic,
    StageSpec,
    ref_spec,
    sdd_spec,
    tyolo_spec,
)
from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.runtime import ThreadedPipeline
from repro.video import jackson, make_stream


@pytest.fixture(scope="module")
def trained():
    stream = make_stream(jackson(), 500, tor=0.3, seed=131)
    zoo = ModelZoo()
    zoo.train_for_stream(
        stream,
        n_train_frames=150,
        stride=2,
        train_config=TrainConfig(epochs=6, batch_size=32, seed=9),
    )
    return stream, zoo


class _ExplodingSDD:
    """SDD stand-in that fails after a few batches."""

    def __init__(self, real, fail_after=3):
        self._real = real
        self._calls = 0
        self.fail_after = fail_after

    def passes(self, frames):
        self._calls += 1
        if self._calls > self.fail_after:
            raise RuntimeError("injected SDD fault")
        return self._real.passes(frames)


class TestFailurePropagation:
    def test_sdd_fault_surfaces(self, trained):
        stream, zoo = trained
        pipe = ThreadedPipeline([stream], zoo, FFSVAConfig(batch_size=4))
        bundle = pipe.ctxs[0].bundle
        bundle.sdd = _ExplodingSDD(bundle.sdd)
        try:
            with pytest.raises(RuntimeError, match="injected SDD fault"):
                pipe.run(n_frames=200)
        finally:
            # Restore the shared fixture's bundle for other tests.
            bundle.sdd = bundle.sdd._real

    def test_partial_outcomes_before_fault(self, trained):
        stream, zoo = trained
        pipe = ThreadedPipeline([stream], zoo, FFSVAConfig(batch_size=4))
        bundle = pipe.ctxs[0].bundle
        bundle.sdd = _ExplodingSDD(bundle.sdd, fail_after=2)
        try:
            with pytest.raises(RuntimeError):
                pipe.run(n_frames=200)
        finally:
            bundle.sdd = bundle.sdd._real
        # Work done before the fault is still observable, the pipeline
        # terminated rather than hanging (pytest.raises returning proves it),
        # and no frame was silently lost: everything still in flight at the
        # abort carries the terminal "aborted" disposition.
        assert len(pipe.outcomes) == 200
        stages = {o.stage for o in pipe.outcomes}
        assert ABORTED in stages
        indices = sorted(o.index for o in pipe.outcomes)
        assert indices == list(range(200))

    def test_run_without_fault_after_restore(self, trained):
        stream, zoo = trained
        pipe = ThreadedPipeline([stream], zoo, FFSVAConfig(batch_size=4))
        m = pipe.run(n_frames=100)
        assert len(pipe.outcomes) == 100
        assert not any(o.stage == ABORTED for o in pipe.outcomes)
        m.check_conservation()

    def test_run_is_single_use(self, trained):
        # Queues stay closed after a run; a second run() used to return
        # normally with every frame "dropped" and twice the outcomes offered.
        stream, zoo = trained
        pipe = ThreadedPipeline([stream], zoo, FFSVAConfig(batch_size=4))
        pipe.run(n_frames=60)
        with pytest.raises(RuntimeError, match="single-use"):
            pipe.run(n_frames=60)
        assert len(pipe.outcomes) == pipe.metrics.frames_offered == 60


def _faulty_graph(fail_after: int) -> StageGraph:
    """The paper's cascade with an injected mid-pipeline stage that fails
    after ``fail_after`` batches — exercised purely through the StageLogic
    seam, no model monkey-patching required."""
    calls = {"n": 0}

    def evaluate(pixels, bundles, zoo, config):
        calls["n"] += 1
        if calls["n"] > fail_after:
            raise RuntimeError("injected mid-stage fault")
        return np.ones(len(pixels), dtype=bool), None

    faulty = StageSpec(
        name="faulty",
        device="cpu0",
        fan_in=PER_STREAM,
        batch=BatchRule("fixed", 4),
        logic=StageLogic(evaluate, lambda trace, cfg: np.ones(len(trace), dtype=bool)),
        queue_key="snm",  # reuse an existing queue-depth threshold
    )
    return StageGraph([sdd_spec(), faulty, tyolo_spec(), ref_spec()], name="faulty")


class TestInjectedStageFault:
    """Drain/abort behaviour with a fault injected via the StageLogic seam."""

    def test_fault_propagates_and_nothing_is_lost(self, trained):
        stream, zoo = trained
        pipe = ThreadedPipeline(
            [stream],
            zoo,
            FFSVAConfig(batch_size=4),
            graph=_faulty_graph(fail_after=2),
        )
        with pytest.raises(RuntimeError, match="injected mid-stage fault"):
            pipe.run(n_frames=200)
        # The original exception is chained, every queue is empty (run()
        # returned, and the drain gave what they held an outcome), and
        # frame accounting holds on the failure path too.
        assert len(pipe.outcomes) == pipe.metrics.frames_offered == 200
        assert any(o.stage == ABORTED for o in pipe.outcomes)
        assert not any(len(q) for q in [*pipe._feeds, *pipe.kernel.queues])

    def test_fault_in_first_batch_still_terminates(self, trained):
        stream, zoo = trained
        pipe = ThreadedPipeline(
            [stream],
            zoo,
            FFSVAConfig(batch_size=4),
            graph=_faulty_graph(fail_after=0),
        )
        with pytest.raises(RuntimeError, match="injected mid-stage fault"):
            pipe.run(n_frames=120)
        assert len(pipe.outcomes) == 120
