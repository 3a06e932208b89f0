"""Targeted edge-case tests across modules."""

import pytest

from repro.cfg.basicblock import TerminatorKind
from repro.compiler import PartitionConfig
from repro.compiler.partitioner import TaskPartitioner
from repro.errors import PartitionError, SimulationError
from repro.synth.behavior import BiasedChoice

from tests.helpers import block, diamond_program


class TestPartitionerEdges:
    def test_unsplittable_single_block_raises(self):
        """A conditional branch whose two arms are forced task starts has
        two distinct exit targets even as a single-block task: under a
        1-exit budget the partitioner must fail loudly rather than emit an
        illegal header."""
        from repro.cfg.graph import ControlFlowGraph
        from repro.synth.behavior import FixedChoice

        cfg = ControlFlowGraph("f", entry_label="f.entry")
        cfg.add_block(block("f.entry", TerminatorKind.JUMP, ("f.cond",)))
        cfg.add_block(
            block(
                "f.cond",
                TerminatorKind.COND_BRANCH,
                ("f.a", "f.b"),
                behavior=BiasedChoice(0.5),
            )
        )
        # f.a is also targeted by f.join, so both arms are multi-pred
        # leaders that cannot be absorbed into f.cond's task.
        cfg.add_block(block("f.a", TerminatorKind.JUMP, ("f.join",)))
        cfg.add_block(block("f.b", TerminatorKind.JUMP, ("f.join",)))
        cfg.add_block(
            block(
                "f.join",
                TerminatorKind.COND_BRANCH,
                ("f.a", "f.ret"),
                behavior=FixedChoice(1),
            )
        )
        cfg.add_block(block("f.ret", TerminatorKind.RETURN))
        with pytest.raises(PartitionError):
            TaskPartitioner(
                cfg, PartitionConfig(max_exits_per_task=1)
            ).partition()

    def test_diamond_fits_one_exit_budget(self):
        """Both arms of a diamond share the join target, so the whole
        diamond legally collapses into a single one-exit task."""
        program = diamond_program(BiasedChoice(0.5))
        regions = TaskPartitioner(
            program.function("main"),
            PartitionConfig(max_exits_per_task=1),
        ).partition()
        for region in regions:
            assert len(region.exit_descriptors) <= 1

    def test_two_exit_budget_suffices_for_diamond(self):
        program = diamond_program(BiasedChoice(0.5))
        regions = TaskPartitioner(
            program.function("main"),
            PartitionConfig(max_exits_per_task=2),
        ).partition()
        for region in regions:
            assert len(region.exit_descriptors) <= 2

    def test_unreachable_blocks_ignored(self):
        from repro.cfg.graph import ControlFlowGraph

        cfg = ControlFlowGraph("f", entry_label="f.a")
        cfg.add_block(block("f.a", TerminatorKind.RETURN))
        cfg.add_block(block("f.dead", TerminatorKind.JUMP, ("f.a",)))
        regions = TaskPartitioner(cfg, PartitionConfig()).partition()
        assigned = {label for r in regions for label in r.blocks}
        assert "f.dead" not in assigned


class TestSimulatorEdges:
    def test_exit_simulation_detects_corrupt_trace(self, compress_workload):
        """A single-exit task recorded with exit 1 is a corrupt trace; the
        simulator must refuse rather than mis-count."""
        from repro.sim.functional import simulate_exit_prediction
        from repro.predictors.ideal import IdealPathPredictor
        from repro.synth.trace import TaskTrace
        from repro.synth.workloads import Workload

        trace = compress_workload.trace
        n_exits = compress_workload.headers.n_exits_of(trace.task_addr)
        # Find a single-exit record and corrupt its exit index.
        position = n_exits.tolist().index(1)
        exit_index = trace.exit_index.copy()
        exit_index[position] = 1
        corrupt = Workload(
            profile=compress_workload.profile,
            compiled=compress_workload.compiled,
            trace=TaskTrace(
                task_addr=trace.task_addr,
                exit_index=exit_index,
                cf_type=trace.cf_type,
                next_addr=trace.next_addr,
                instructions=trace.instructions,
                internal_branches=trace.internal_branches,
                internal_mispredicts=trace.internal_mispredicts,
            ),
        )
        with pytest.raises(SimulationError):
            simulate_exit_prediction(corrupt, IdealPathPredictor(2))

    def test_relaxed_sim_handles_unknown_wrong_path_target(
        self, compress_workload
    ):
        """Wrong-path walking must stop gracefully at targets that are not
        task starts (e.g. stale header targets)."""
        from repro.predictors.folding import DolcSpec
        from repro.predictors.speculative import SpeculativePathPredictor
        from repro.sim.relaxed import simulate_speculative_exit_prediction

        stats = simulate_speculative_exit_prediction(
            compress_workload,
            SpeculativePathPredictor(
                DolcSpec.parse("2-4-5-5(1)"), repair="squash"
            ),
            wrong_path_depth=8,
        )
        assert stats.trials == len(compress_workload.trace)


class TestChartEdges:
    def test_single_series_many_points(self):
        from repro.evalx.charts import render_chart

        chart = render_chart(
            list(range(50)),
            {"s": [0.5 - 0.005 * i for i in range(50)]},
            height=8,
            width=30,
        )
        assert chart.count("\n") >= 8

    def test_negative_values_supported(self):
        from repro.evalx.charts import render_chart

        chart = render_chart(
            [0, 1, 2],
            {"delta": [-0.05, 0.0, 0.08]},
            as_percent=False,
        )
        assert "-0.050" in chart
