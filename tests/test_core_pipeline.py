"""Tests for the stage-graph control plane (repro.core.pipeline)."""

import numpy as np
import pytest

from repro.core import FFSVAConfig
from repro.core.pipeline import (
    CASCADES,
    MERGED,
    PER_STREAM,
    REF,
    REF_BATCH,
    SDD,
    SHARED_RR,
    SNM,
    STAGES,
    TYOLO,
    BatchRule,
    StageGraph,
    StageLogic,
    StageSpec,
    arbitration_batch,
    cascade,
    effective_batch,
    ffs_va_graph,
    ref_spec,
    sdd_spec,
    snm_spec,
    tyolo_spec,
)
from repro.core.trace import FrameTrace


def _trace(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return FrameTrace(
        stream_id=f"t{seed}",
        kind="car",
        fps=30.0,
        sdd_dist=rng.uniform(0.0, 1.0, n),
        sdd_threshold=0.5,
        snm_prob=rng.uniform(0.0, 1.0, n).astype(np.float32),
        c_low=0.2,
        c_high=0.8,
        tyolo_count=rng.integers(0, 3, n),
        gt_count=rng.integers(0, 3, n),
    )


class TestBatchRule:
    def test_valid_kinds(self):
        for kind in ("fixed", "config", "rr_cap"):
            assert BatchRule(kind, 4).kind == kind

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            BatchRule("adaptive")

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            BatchRule("fixed", 0)


class TestStageSpec:
    def test_depth_key_defaults_to_name(self):
        assert sdd_spec().depth_key == SDD

    def test_queue_key_overrides_depth_key(self):
        spec = StageSpec(
            name="blur",
            device="cpu0",
            fan_in=PER_STREAM,
            batch=BatchRule("fixed", 8),
            logic=ref_spec().logic,
            queue_key=SNM,
        )
        assert spec.depth_key == SNM

    def test_aborted_is_not_a_valid_stage_name(self):
        with pytest.raises(ValueError):
            StageSpec(
                name="aborted",
                device="cpu0",
                fan_in=PER_STREAM,
                batch=BatchRule("fixed", 1),
                logic=ref_spec().logic,
            )

    def test_bad_fan_in_rejected(self):
        with pytest.raises(ValueError, match="fan_in"):
            StageSpec(
                name="x",
                device="cpu0",
                fan_in="broadcast",
                batch=BatchRule("fixed", 1),
                logic=ref_spec().logic,
            )


class TestStageGraph:
    def test_default_graph_matches_canonical_stages(self):
        g = ffs_va_graph()
        assert g.names == STAGES == (SDD, SNM, TYOLO, REF)
        assert g.first.name == SDD
        assert g.terminal.name == REF and g.terminal.terminal

    def test_fan_in_modes_of_the_paper(self):
        g = ffs_va_graph()
        assert g[SDD].fan_in == PER_STREAM
        assert g[SNM].fan_in == PER_STREAM
        assert g[TYOLO].fan_in == SHARED_RR
        assert g[REF].fan_in == MERGED

    def test_next_and_upstream(self):
        g = ffs_va_graph()
        assert g.next(SDD).name == SNM
        assert g.next(REF) is None
        assert tuple(s.name for s in g.upstream(TYOLO)) == (SDD, SNM)
        assert g.upstream(SDD) == ()

    def test_container_protocol(self):
        g = ffs_va_graph()
        assert len(g) == 4
        assert TYOLO in g and "warp" not in g
        assert g[1].name == SNM  # int indexing
        assert [s.name for s in g] == list(STAGES)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StageGraph([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph([sdd_spec(), sdd_spec(), ref_spec()])

    def test_terminal_must_be_last(self):
        with pytest.raises(ValueError, match="terminal"):
            StageGraph([ref_spec(), sdd_spec()])
        with pytest.raises(ValueError, match="terminal"):
            StageGraph([sdd_spec(), snm_spec()])

    def test_default_placement_map(self):
        assert ffs_va_graph().default_placement_map() == {
            SDD: ["cpu0"],
            SNM: ["gpu0"],
            TYOLO: ["gpu0"],
            REF: ["gpu1"],
        }


class TestCascadeRegistry:
    def test_known_compositions(self):
        assert cascade("ffs-va").names == (SDD, SNM, TYOLO, REF)
        assert cascade("no-sdd").names == (SNM, TYOLO, REF)
        assert cascade("no-snm").names == (SDD, TYOLO, REF)
        assert cascade("snm-only").names == (SNM, REF)
        assert cascade("tyolo-only").names == (TYOLO, REF)
        assert cascade("ref-only").names == (REF,)

    def test_none_resolves_to_default(self):
        assert cascade(None) is CASCADES["ffs-va"]

    def test_graph_passthrough(self):
        g = StageGraph([snm_spec(), ref_spec()], name="mine")
        assert cascade(g) is g

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="snm-only"):
            cascade("warp-cascade")

    def test_config_selects_cascade(self):
        cfg = FFSVAConfig(cascade="no-sdd")
        assert cfg.graph().names == (SNM, TYOLO, REF)
        with pytest.raises(ValueError, match="cascade"):
            FFSVAConfig(cascade="nope")


class TestTraceMasks:
    def test_cascade_mask_is_conjunction(self):
        tr = _trace()
        cfg = FFSVAConfig()
        g = ffs_va_graph()
        masks = g.trace_masks(tr, cfg)
        expected = (
            masks[SDD] & masks[SNM] & masks[TYOLO] & masks[REF]
        )
        assert np.array_equal(g.cascade_mask(tr, cfg), expected)
        assert np.array_equal(
            g.cascade_mask(tr, cfg),
            tr.cascade_pass(cfg.filter_degree, cfg.number_of_objects, cfg.relax),
        )

    def test_stage_fractions_monotone_and_start_at_one(self):
        tr = _trace(seed=3)
        cfg = FFSVAConfig()
        fr = ffs_va_graph().stage_fractions(tr, cfg)
        vals = [fr[s] for s in STAGES]
        assert vals[0] == 1.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dropping_a_filter_passes_more_frames(self):
        tr = _trace(seed=5)
        cfg = FFSVAConfig()
        full = ffs_va_graph().cascade_mask(tr, cfg).sum()
        no_snm = cascade("no-snm").cascade_mask(tr, cfg).sum()
        assert no_snm >= full


class TestBatchHelpers:
    def test_effective_batch_config_policy(self):
        snm = snm_spec()
        assert effective_batch(snm, FFSVAConfig(batch_policy="static", batch_size=30)) == 30
        # Dynamic/feedback cap at the queue depth threshold (default 10).
        assert effective_batch(snm, FFSVAConfig(batch_policy="dynamic", batch_size=30)) == 10

    def test_effective_batch_rr_cap_and_fixed(self):
        cfg = FFSVAConfig(num_t_yolo=3)
        assert effective_batch(tyolo_spec(), cfg) == 3
        assert effective_batch(sdd_spec(), cfg) == 16
        assert effective_batch(ref_spec(), cfg) == REF_BATCH

    def test_arbitration_batch(self):
        cfg = FFSVAConfig(batch_size=7, num_t_yolo=2)
        assert arbitration_batch(snm_spec(), cfg) == 7
        assert arbitration_batch(tyolo_spec(), cfg) == 2
        assert arbitration_batch(sdd_spec(), cfg) == 16


class TestReferenceBatch:
    def test_interleaved_batch_one_detector_call_per_batch(self):
        from types import SimpleNamespace

        from repro.models.reference import ReferenceModel
        from repro.video import jackson, make_streams

        a, b = make_streams(jackson(), 2, 40, tor=0.9, seed=7)
        bundles = {s: SimpleNamespace(background=s.reference_image()) for s in (a, b)}
        picks = list(zip((a, a, b, b, a, a, b), (3, 4, 5, 6, 9, 10, 12)))
        pixels = np.stack([s.pixels(t) for s, t in picks])
        batch_bundles = [bundles[s] for s, _ in picks]
        ref = ReferenceModel()
        calls = []

        class Counting:
            def count_batch(self, frames, background):
                calls.append((len(frames), frames is pixels, len(background)))
                return ref.count_batch(frames, background)

        passes, counts = ref_spec().logic.evaluate(
            pixels, batch_bundles, SimpleNamespace(reference=Counting()), FFSVAConfig()
        )
        oracle = [ref.count(px, bd.background) for px, bd in zip(pixels, batch_bundles)]
        assert any(oracle)
        assert passes.tolist() == [True] * 7
        assert counts.tolist() == oracle
        # The whole interleaved batch, in place, with a background per frame.
        assert calls == [(7, True, 7)]

    def test_planner_costs_the_paper_reference_one_frame_a_call(self):
        from repro.core.pipeline import call_batch, stage_per_frame_time
        from repro.devices.costs import CostModel

        costs, spec = CostModel(), ref_spec()
        assert spec.batch.kind == "fixed" and spec.batch.size > 1
        assert call_batch(spec, costs, spec.batch.size) == 1
        assert stage_per_frame_time(spec, costs, spec.batch.size) == costs.per_frame_time(REF, 1)
        assert call_batch(snm_spec(), costs, 30) == 30


class TestCustomStageCosts:
    def test_canonical_stages_resolve_by_name(self):
        from repro.core.pipeline import stage_per_frame_time, stage_service_time
        from repro.devices.costs import CostModel

        costs = CostModel()
        assert stage_service_time(snm_spec(), costs, 8) == costs.service_time(SNM, 8)
        assert stage_per_frame_time(snm_spec(), costs, 8) == costs.per_frame_time(SNM, 8)

    def test_custom_cost_pair_wins(self):
        from repro.core.pipeline import stage_service_time
        from repro.devices.costs import CostModel

        spec = StageSpec(
            name="blur",
            device="cpu0",
            fan_in=PER_STREAM,
            batch=BatchRule("fixed", 4),
            logic=ref_spec().logic,
            cost=(1e-3, 1e-4),
        )
        assert stage_service_time(spec, CostModel(), 5) == pytest.approx(1e-3 + 5e-4)

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            StageSpec(
                name="blur",
                device="cpu0",
                fan_in=PER_STREAM,
                batch=BatchRule("fixed", 4),
                logic=ref_spec().logic,
                cost=(-1.0, 1e-4),
            )

    def test_custom_stage_runs_in_the_simulator(self):
        from repro.core.pipeline import tyolo_spec
        from repro.sim import PipelineSimulator
        from tests.helpers import make_synth_trace

        blur = StageSpec(
            name="blur",
            device="cpu0",
            fan_in=PER_STREAM,
            batch=BatchRule("fixed", 8),
            logic=StageLogic(
                evaluate=lambda px, b, z, c: (np.ones(len(px), dtype=bool), None),
                trace_mask=lambda t, c: np.arange(len(t)) % 2 == 0,
            ),
            queue_key=SNM,
            cost=(0.0, 1e-4),
        )
        graph = StageGraph([blur, tyolo_spec(), ref_spec()], name="blur-cascade")
        traces = [make_synth_trace(300, 1.0, 1.0, 0.9, seed=i) for i in range(2)]
        m = PipelineSimulator(traces, FFSVAConfig(), online=False, graph=graph).run()
        m.check_conservation()
        assert set(m.stages) == {"blur", "tyolo", "ref"}
        assert m.stages["blur"].entered == 600
        assert m.stages["blur"].passed == 300  # every other frame


class TestStageLogicSeam:
    def test_custom_stage_runs_in_a_graph(self):
        tr = _trace()
        cfg = FFSVAConfig()
        even = StageSpec(
            name="even",
            device="cpu0",
            fan_in=PER_STREAM,
            batch=BatchRule("fixed", 8),
            logic=StageLogic(
                evaluate=lambda px, b, z, c: (np.ones(len(px), dtype=bool), None),
                trace_mask=lambda t, c: np.arange(len(t)) % 2 == 0,
            ),
            queue_key=SNM,
        )
        g = StageGraph([even, ref_spec()], name="even-only")
        assert g.cascade_mask(tr, cfg).sum() == (len(tr) + 1) // 2
