"""Content-adaptive query planner: decision core, determinism, integration.

The planner's load-bearing guarantees, each pinned here:

* the Schmitt-trigger + hysteresis decision core cannot flap — a monotone
  signal yields a monotone band sequence, and noise confined to the
  deadband yields no transitions at all (property-based);
* the decision log is **replayable**: feeding a run's sampled
  ``plan_activity[*]`` series back through the pure decision core
  reproduces the live log exactly;
* the threaded runtime and the simulator derive the *identical* decision
  log and identical per-stage frame counts for the same workload, plan
  churn included;
* ``FusedSNM.t_pre`` keys its threshold cache by the full per-stream
  degree *vector* — two streams on different degrees never alias one
  scalar's cache line (regression: the cache once used a scalar key).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FFSVAConfig, build_trace
from repro.core.metrics import assert_stage_counts_equal
from repro.core.pipeline import STAGES
from repro.core.qplan import (
    BANDS,
    PlanCatalog,
    PlanSignals,
    PlanState,
    decide,
    replay_decisions,
)
from repro.models.snm import SNM, FusedSNM, SNMConfig, build_snm_network
from repro.models.zoo import ModelZoo, TrainConfig
from repro.runtime import ThreadedPipeline
from repro.sim import PipelineSimulator
from repro.video import jackson, make_stream

N_FRAMES = 240


@pytest.fixture(scope="module")
def fleet():
    """One quiet and one busy trained stream plus their traces.

    The busy stream's scene alternation (TOR 0.6) forces at least one
    mid-run band shift, so the cross-runtime comparison exercises plan
    churn, not just the initial settle.
    """
    zoo = ModelZoo()
    streams, traces = [], []
    for i, tor in enumerate((0.05, 0.6)):
        stream = make_stream(jackson(), N_FRAMES, tor=tor, seed=40 + i)
        zoo.train_for_stream(
            stream,
            n_train_frames=120,
            stride=2,
            train_config=TrainConfig(epochs=6, batch_size=32, seed=7),
        )
        streams.append(stream)
        traces.append(build_trace(stream, zoo))
    return streams, traces, zoo


def _plan_config(**overrides):
    base = dict(
        plan="adaptive",
        plan_epoch=32,
        queue_depths={s: 10_000 for s in STAGES},
    )
    base.update(overrides)
    return FFSVAConfig(**base)


def _settled_state(catalog, cfg, activity, rounds=10):
    """A PlanState driven to its fixed point for a constant activity."""
    state = PlanState(cfg.plan_hysteresis)
    for _ in range(rounds):
        decide(
            PlanSignals(activity=activity, batch_target=cfg.batch_size),
            catalog,
            state,
        )
    return state


class TestDecideAntiFlap:
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40)
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_signal_yields_monotone_bands(self, values):
        cfg = FFSVAConfig()
        catalog = PlanCatalog.build(cfg)
        state = _settled_state(catalog, cfg, 0.0)
        bands = []
        for a in sorted(values):
            plan = decide(
                PlanSignals(activity=a, batch_target=cfg.batch_size), catalog, state
            )
            bands.append(BANDS.index(plan.band))
        assert bands == sorted(bands), "band reverted under a monotone signal"
        # At most one transition per band boundary.
        transitions = sum(1 for a, b in zip(bands, bands[1:]) if a != b)
        assert transitions <= len(BANDS) - 1

    @given(
        values=st.lists(
            st.one_of(
                # Strictly inside the quiet threshold's deadband...
                st.floats(min_value=0.12 - 0.03 + 1e-6, max_value=0.12 + 0.03 - 1e-6),
                # ...or strictly inside the busy threshold's deadband.
                st.floats(min_value=0.35 - 0.03 + 1e-6, max_value=0.35 + 0.03 - 1e-6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_deadband_noise_causes_no_transitions(self, values):
        cfg = FFSVAConfig()  # plan_quiet=0.12, plan_busy=0.35, deadband=0.03
        catalog = PlanCatalog.build(cfg)
        # Settle at "mid" (above quiet+deadband, below busy-deadband).
        state = _settled_state(catalog, cfg, 0.25)
        assert state.band_index == 1
        for a in values:
            plan = decide(
                PlanSignals(activity=a, batch_target=cfg.batch_size), catalog, state
            )
            assert plan.band == "mid", f"deadband noise {a} flipped the band"


class TestReplayDeterminism:
    def test_replay_reproduces_live_log(self, fleet):
        _, traces, _ = fleet
        cfg = _plan_config()
        sim = PipelineSimulator(traces, cfg, online=False)
        sim.run()
        live = sim.planner.sorted_decisions()
        assert live, "expected at least one plan transition"
        replayed = replay_decisions(sim.planner.sampler, cfg)
        assert replayed == live

    def test_replay_from_shared_telemetry_sampler(self, fleet):
        # With telemetry on, activity series ride the telemetry sampler;
        # replay from that (busier) sampler must still match.
        _, traces, _ = fleet
        cfg = _plan_config(telemetry=True)
        sim = PipelineSimulator(traces, cfg, online=False)
        sim.run()
        assert replay_decisions(sim.planner.sampler, cfg) == (
            sim.planner.sorted_decisions()
        )


class TestCrossRuntime:
    def test_threaded_and_sim_logs_identical_under_churn(self, fleet):
        streams, traces, zoo = fleet
        cfg = _plan_config()
        eng = ThreadedPipeline(streams, zoo, cfg)
        m_eng = eng.run(N_FRAMES)
        sim = PipelineSimulator(traces, cfg, online=False)
        m_sim = sim.run()
        assert_stage_counts_equal(m_eng, m_sim)
        log_eng = eng.planner.decision_labels()
        log_sim = sim.planner.decision_labels()
        assert log_eng == log_sim
        assert log_eng, "expected plan transitions on the quiet/busy mix"
        # The quiet stream must have relaxed below full depth at some point.
        assert any(band != "busy" for _, _, band, _, _ in log_eng)
        # Both runtimes agree in the end-of-run summary too.
        assert m_eng.extra["qplan"]["streams"] == m_sim.extra["qplan"]["streams"]
        assert m_eng.extra["qplan"]["decisions"] == m_sim.extra["qplan"]["decisions"]

    def test_static_plan_reports_no_qplan_extra(self, fleet):
        _, traces, _ = fleet
        m = PipelineSimulator(traces, _plan_config(plan="static"), online=False).run()
        assert "qplan" not in m.extra

    def test_adaptive_rejects_attach_and_reserve_slots(self, fleet):
        streams, traces, zoo = fleet
        cfg = _plan_config()
        sim = PipelineSimulator(traces, cfg, online=False)
        with pytest.raises(ValueError, match="attach_stream"):
            sim.attach_stream(traces[0])
        with pytest.raises(ValueError, match="reserve_slots"):
            ThreadedPipeline(streams, zoo, cfg, reserve_slots=1)


def _toy_snms(k):
    rng = np.random.default_rng(7)
    snms = []
    for i in range(k):
        scfg = SNMConfig(seed=100 + i, temperature=1.5 + 0.5 * i)
        snm = SNM(build_snm_network(scfg), scfg, background=rng.random((60, 80)))
        snm.c_low, snm.c_high = 0.2 + 0.05 * i, 0.7 + 0.02 * i
        snms.append(snm)
    return snms


class TestFusedDegreeVector:
    def test_vector_key_does_not_alias_scalar_cache(self):
        """Regression: the t_pre cache once keyed on the scalar degree, so a
        per-stream vector whose first entry matched a previously-cached
        scalar returned the *scalar's* thresholds for every stream."""
        fused = FusedSNM(_toy_snms(2))
        scalar = fused.t_pre(0.5)  # prime the cache at degree 0.5
        vector = fused.t_pre([0.5, 1.0])
        assert vector[0] == scalar[0]
        assert vector[1] == fused.snms[1].t_pre(1.0)
        assert vector[1] != scalar[1]
        # The scalar entry is unchanged (no cache clobbering either way).
        assert np.array_equal(fused.t_pre(0.5), scalar)

    def test_vector_length_must_match_streams(self):
        fused = FusedSNM(_toy_snms(2))
        with pytest.raises(ValueError, match="degree vector"):
            fused.t_pre([0.5])

    def test_passes_with_per_stream_degrees(self):
        fused = FusedSNM(_toy_snms(2))
        rng = np.random.default_rng(3)
        frames = rng.random((12, 60, 80), dtype=np.float32)
        sidx = np.array([0, 1] * 6)
        probs = fused.predict_proba(frames, sidx)
        mixed = fused.passes(probs, sidx, [0.0, 1.0])
        for k, d in enumerate((0.0, 1.0)):
            sel = np.nonzero(sidx == k)[0]
            assert np.array_equal(
                mixed[sel], fused.snms[k].passes(probs[sel], d)
            )
