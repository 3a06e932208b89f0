"""Differential property test of the max-plus timing scan.

The reference is a plain transcription of the stepped loop in
:func:`repro.sim.timing.machine.simulate_timing`, driven by the same
per-task columns the scan receives. It keeps a real
:class:`~repro.sim.timing.ring.ProcessingRing`, squash clamp included,
so the scan's ring elimination is checked rather than assumed.

Lengths concentrate where the scan's chunking can go wrong: 0, 1, one
step short of the ring, the ring size itself, and ``K * chunk - 1``,
``K * chunk`` and ``K * chunk + 1`` for the chunk length the scan picks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.timing.ring import ProcessingRing
from repro.sim.timing.scan import (
    CODE_CORRECT,
    CODE_GATED,
    CODE_MISPREDICT,
    _chunk_length,
    max_plus_timing_scan,
)


def stepped_ring(
    exec_cycles, forward_stalls, codes, n_units, dispatch_interval,
    mispredict_penalty, commit_interval,
):
    """``(total_cycles, stall_cycles)`` from the per-task stepped loop."""
    ring = ProcessingRing(n_units)
    dispatch = prev_finish = prev_commit = stalls = 0
    for exec_i, forward_i, code in zip(exec_cycles, forward_stalls, codes):
        start = max(dispatch, ring.unit_free_time())
        finish = max(start + exec_i, prev_finish + forward_i)
        commit = max(finish, prev_commit + commit_interval)
        ring.occupy_and_commit(commit)
        if code == CODE_GATED:
            dispatch = finish
        elif code == CODE_CORRECT:
            dispatch += dispatch_interval
        else:
            restart = finish + mispredict_penalty
            ring.squash_speculative(restart)
            stalls += max(0, restart - (dispatch + dispatch_interval))
            dispatch = restart
        prev_finish, prev_commit = finish, commit
    return prev_commit, stalls


@st.composite
def lengths(draw, n_units: int) -> int:
    kind = draw(st.sampled_from(("edge", "chunk", "any")))
    if kind == "edge":
        return draw(st.sampled_from((0, 1, n_units - 1, n_units)))
    if kind == "any":
        return draw(st.integers(0, 2500))
    # Walk up from a random start to the nearest length n with
    # n - delta a multiple of the chunk length the scan picks for n.
    delta = draw(st.sampled_from((-1, 0, 1)))
    n = draw(st.integers(n_units + 1, 2500))
    while (n - delta) % _chunk_length(n, n_units):
        n += 1
    return n


_OUTCOMES = {
    "correct": (CODE_CORRECT,),
    "mispredict": (CODE_MISPREDICT,),
    "gated": (CODE_GATED,),
    "mixed": (CODE_CORRECT, CODE_GATED, CODE_MISPREDICT),
}


@st.composite
def scan_cases(draw):
    n_units = draw(st.integers(1, 8))
    n = draw(lengths(n_units))
    outcomes = _OUTCOMES[draw(st.sampled_from(sorted(_OUTCOMES)))]
    exec_high = draw(st.sampled_from((3, 1_000, 1_000_000)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    exec_cycles = rng.integers(0, exec_high, n, endpoint=True)
    forward_stalls = rng.integers(0, exec_high, n, endpoint=True)
    codes = rng.choice(np.array(outcomes, dtype=np.int64), n)
    knobs = (
        n_units,
        draw(st.integers(0, 3)),   # dispatch interval
        draw(st.integers(0, 20)),  # mispredict penalty
        draw(st.integers(0, 3)),   # commit interval
    )
    return exec_cycles, forward_stalls, codes, knobs


class TestScanMatchesSteppedRing:
    @settings(max_examples=400, deadline=None)
    @given(scan_cases())
    def test_scan_equals_stepped_ring(self, case):
        exec_cycles, forward_stalls, codes, knobs = case
        expected = stepped_ring(
            exec_cycles.tolist(), forward_stalls.tolist(), codes.tolist(),
            *knobs,
        )
        assert max_plus_timing_scan(
            exec_cycles, forward_stalls, codes, *knobs
        ) == expected
