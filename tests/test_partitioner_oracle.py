"""Differential test: the worklist partitioner against regrow-all splitting.

The oracle is the original splitting loop, kept here and not in the
library: after every promotion it regrows every region of the function
and splits the first (by leader) region that still violates a limit.
The library regrows only the split region and the new one. Both must
produce the same regions, in the same order, with the same contents.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler.partitioner import PartitionConfig, Region, TaskPartitioner
from repro.errors import PartitionError
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import BENCHMARK_NAMES, get_profile
from tests.test_property_pipeline import tiny_profiles

CAPS = (1, 2, 4, 8, 16)


class RegrowAllPartitioner(TaskPartitioner):
    """Reference splitter: regrow every region after each promotion."""

    def partition(self) -> list[Region]:
        leaders = self._initial_leaders()
        while True:
            regions = self._grow_regions(leaders)
            oversized = self._find_violation(regions)
            if oversized is None:
                return self._layout_order(regions)
            leaders.add(self._pick_split_block(oversized))

    def _grow_regions(self, leaders: set[str]) -> dict[str, Region]:
        regions: dict[str, Region] = {}
        assigned: set[str] = set()
        for leader in sorted(leaders & self._reachable):
            region = self._grow_one(leader, leaders)
            regions[leader] = region
            for label in region.blocks:
                if label in assigned and label != leader:
                    raise PartitionError(
                        f"block {label!r} assigned to two regions"
                    )
                assigned.add(label)
        unassigned = self._reachable - assigned
        if unassigned:
            raise PartitionError(
                f"blocks never assigned to a region: {sorted(unassigned)}"
            )
        return regions

    def _find_violation(self, regions: dict[str, Region]) -> Region | None:
        for leader in sorted(regions):
            region = regions[leader]
            if len(region.exit_descriptors) > self._config.max_exits_per_task:
                return region
            if len(region.blocks) > self._config.max_blocks_per_task:
                return region
        return None


def _as_tuples(regions: list[Region]) -> list[tuple]:
    return [
        (
            region.leader,
            region.blocks,
            region.exit_descriptors,
            region.internal_branch_blocks,
        )
        for region in regions
    ]


def assert_partitions_match(program_cfg, caps=CAPS) -> None:
    for cap in caps:
        config = PartitionConfig(max_blocks_per_task=cap)
        for cfg in program_cfg.functions():
            expected = RegrowAllPartitioner(cfg, config).partition()
            actual = TaskPartitioner(cfg, config).partition()
            assert _as_tuples(actual) == _as_tuples(expected), (
                cfg.function_name, cap,
            )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(tiny_profiles())
def test_worklist_matches_regrow_all_on_fuzzed_programs(profile):
    assert_partitions_match(SyntheticProgramGenerator(profile).generate())


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_worklist_matches_regrow_all_on_calibrated_profiles(name):
    profile = get_profile(name)
    program_cfg = SyntheticProgramGenerator(profile).generate()
    assert_partitions_match(program_cfg, caps=(profile.max_blocks_per_task,))

