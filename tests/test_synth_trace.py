"""Tests for the trace container and builder."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.synth.trace import (
    CF_TYPE_CODES,
    CF_TYPE_FROM_CODE,
    TaskTrace,
    TraceBuilder,
)


def build_sample(n=10):
    builder = TraceBuilder(program_name="sample")
    for i in range(n):
        builder.append(
            task_addr=0x1000 + 4 * (i % 3),
            exit_index=i % 2,
            cf_type_code=0,
            next_addr=0x1000 + 4 * ((i + 1) % 3),
            instructions=10 + i,
            internal_branches=2,
            internal_mispredicts=1,
        )
    return builder.build()


class TestTraceBuilder:
    def test_length_tracks_appends(self):
        builder = TraceBuilder()
        assert len(builder) == 0
        builder.append(0x1000, 0, 0, 0x1004, 5, 0, 0)
        assert len(builder) == 1

    def test_build_produces_correct_dtypes(self):
        trace = build_sample()
        assert trace.task_addr.dtype == np.uint32
        assert trace.exit_index.dtype == np.uint8
        assert trace.instructions.dtype == np.uint16

    def test_saturating_instruction_counts(self):
        builder = TraceBuilder()
        for value in (0xFFFE, 0xFFFF, 0x10000, 10**6):
            builder.append(0x1000, 0, 0, 0x1004, value, value, value)
        trace = builder.build()
        for column in (
            trace.instructions,
            trace.internal_branches,
            trace.internal_mispredicts,
        ):
            assert column.dtype == np.uint16
            assert column.tolist() == [0xFFFE, 0xFFFF, 0xFFFF, 0xFFFF]


class TestTaskTrace:
    def test_column_length_mismatch_rejected(self):
        trace = build_sample()
        with pytest.raises(TraceError):
            TaskTrace(
                task_addr=trace.task_addr,
                exit_index=trace.exit_index[:-1],
                cf_type=trace.cf_type,
                next_addr=trace.next_addr,
                instructions=trace.instructions,
                internal_branches=trace.internal_branches,
                internal_mispredicts=trace.internal_mispredicts,
            )

    def test_distinct_tasks_seen(self):
        assert build_sample(9).distinct_tasks_seen() == 3

    def test_total_instructions(self):
        trace = build_sample(3)
        assert trace.total_instructions() == 10 + 11 + 12

    def test_head(self):
        trace = build_sample(10)
        head = trace.head(4)
        assert len(head) == 4
        assert head.program_name == "sample"
        np.testing.assert_array_equal(
            head.task_addr, trace.task_addr[:4]
        )

    def test_head_negative_rejected(self):
        with pytest.raises(TraceError):
            build_sample().head(-1)

    def test_save_load_round_trip(self, tmp_path):
        trace = build_sample(20)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = TaskTrace.load(path)
        assert loaded.program_name == trace.program_name
        for field in (
            "task_addr", "exit_index", "cf_type", "next_addr",
            "instructions", "internal_branches", "internal_mispredicts",
        ):
            np.testing.assert_array_equal(
                getattr(loaded, field), getattr(trace, field)
            )

    def test_load_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, task_addr=np.zeros(3, dtype=np.uint32))
        with pytest.raises(TraceError):
            TaskTrace.load(path)


class TestCfTypeCodes:
    def test_codes_are_a_bijection(self):
        assert len(CF_TYPE_CODES) == 5
        assert set(CF_TYPE_FROM_CODE) == set(CF_TYPE_CODES.values())
        for cf, code in CF_TYPE_CODES.items():
            assert CF_TYPE_FROM_CODE[code] is cf

    def test_codes_fit_uint8(self):
        assert all(0 <= code <= 255 for code in CF_TYPE_CODES.values())
