"""Pinned synthesis outputs for the five calibrated profiles.

Each profile's compiled task headers and the first 5,000 tasks of its
default trace are hashed and compared with digests recorded before the
task partitioner and the trace executor were last optimised. A change
that alters any compiled program or any trace record fails here; one
that is meant to do so must bump ``GENERATOR_VERSION`` and re-record.
The bump also matters outside this file: the trace cache stores each
program's task headers beside its trace, keyed by ``GENERATOR_VERSION``
and the profile, so a compiler change that keeps the key would be
served the old headers from a warm cache.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compiler import PartitionConfig, compile_program
from repro.synth.executor import TraceExecutor
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import BENCHMARK_NAMES, get_profile
from repro.synth.trace import TaskTrace
from repro.synth.workloads import build_program

PIN_TASKS = 5_000

#: (header digest, trace digest) per profile, seed as calibrated.
PINNED = {
    "gcc": (
        "86c13c4f6acddefdbd896f58d52ae0937a3e39a5d4c6fa2422e40608e786c834",
        "6687d6a1d68d2143655633699c816b09ba1bbc872612e719d5ee1a47b07963e9",
    ),
    "compress": (
        "fbba487befa7a116987bed132b62436e536477b6de8f6cdf7ce51e377b215e6d",
        "2d83a55d75f50fa61b22888a291d5e12cc076376da167fb3bbf3ec783c0ac187",
    ),
    "espresso": (
        "c30d5e70708689914c25f74b03e7cb66fe22d409d029aa07ef2c2127fd775a35",
        "c5f4e59331da1971906156b967945f2421c89271bc0638e604c5bc40945b61de",
    ),
    "sc": (
        "3e668e4bda89c3fc568ffa7da60b1dcc1527f980d4644ec0bdbe5bd86da3ce21",
        "cebca6cd4e0b86d1e41ce4a05b7f0e3e7836b856d3465c458872ea8fc189e0b4",
    ),
    "xlisp": (
        "09a196f578d6070e773aa2d442b1fcff8527c255f6cb6a6e12950a343df5906f",
        "9ec4685dd08d77d906d81d62efd7011812f1672633d8f477921fb194484e554e",
    ),
}


def headers_digest(program) -> str:
    """SHA-256 over every static task's address, exits, masks and counts."""
    digest = hashlib.sha256()
    for task in program.tfg:
        exits = [
            (e.cf_type.name, e.target, e.return_address)
            for e in task.header.exits
        ]
        digest.update(repr((
            task.address, exits, task.header.create_mask, task.use_mask,
            task.instruction_count, task.internal_branch_count,
        )).encode("utf-8"))
    return digest.hexdigest()


def trace_digest(trace: TaskTrace) -> str:
    """SHA-256 over the program name and every column's dtype and bytes."""
    digest = hashlib.sha256(trace.program_name.encode("utf-8"))
    for name in (
        "task_addr", "exit_index", "cf_type", "next_addr",
        "instructions", "internal_branches", "internal_mispredicts",
    ):
        column = np.ascontiguousarray(getattr(trace, name))
        digest.update(f"\n{name}:{column.dtype.str}:{column.shape}\n".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def _execute(name: str, compiled, **kwargs) -> TaskTrace:
    profile = get_profile(name)
    return TraceExecutor(
        compiled, seed=profile.seed, phase_period=profile.phase_period,
        **kwargs,
    ).run(PIN_TASKS)


#: Why a pin moved, and what a deliberate move must do.
_BUMP = (
    "{what} of {name} changed. If that is meant, bump GENERATOR_VERSION "
    "and re-record PINNED: the trace cache keys the headers it stores on "
    "GENERATOR_VERSION, so without the bump a warm cache keeps serving "
    "the old headers and traces."
)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_compiled_headers_and_trace_match_pin(name):
    compiled = build_program(name)
    headers_pin, trace_pin = PINNED[name]
    assert headers_digest(compiled.program) == headers_pin, _BUMP.format(
        what="The compiled task headers", name=name
    )
    trace = _execute(name, compiled)
    assert trace_digest(trace) == trace_pin, _BUMP.format(
        what="The first 5,000 trace records", name=name
    )


def test_recording_dynamic_arcs_does_not_change_the_trace():
    # A private compile: recording arcs mutates the program's task graph.
    profile = get_profile("xlisp")
    compiled = compile_program(
        SyntheticProgramGenerator(profile).generate(),
        name=profile.name,
        config=PartitionConfig(max_blocks_per_task=profile.max_blocks_per_task),
    )
    recorded = _execute("xlisp", compiled, record_dynamic_arcs=True)
    assert trace_digest(recorded) == PINNED["xlisp"][1]
    assert any(
        compiled.program.tfg.successors(address)
        - compiled.program.tfg.static_successors(address)
        for address in compiled.program.tfg.addresses()
    )
