"""Segmented finite-state-machine scans over grouped trace columns.

The realistic predictors keep their state in tables of small automata —
LE/LEH entries in a PHT, resetting confidence counters — and the scalar
simulators advance that state one trace record at a time. When an
automaton's reachable state space is small, its whole per-entry history
can instead be replayed as a *function-composition scan*: each trace step
is a state-transition function ``f_i(s) = T[s, input_i]``, and the state
an entry is in just before step ``i`` is the composition of every earlier
``f`` of the same entry applied to the initial state.

Representing each function as a length-``S`` lookup vector makes
composition a gather (``(g ∘ f)[s] = g[f[s]]``). A segment start is a
*constant* function pinning the state to its group's initial value, so
compositions may cross segment boundaries freely — which lets the whole
sorted trace be evaluated by a chunked three-pass scan (compose ``K``
functions per chunk columnwise across all chunks, propagate chunk-entry
states sequentially, re-run values inside chunks) in ``O(n · S)`` numpy
work with ``O(K + n/K)`` Python iterations — no log factor and no
per-step Python.

The scan is *exact*: transition tables are enumerated by driving a real
automaton object through every reachable state
(:func:`repro.predictors.automata.tabulate_automaton`), so the kernel is
bit-identical to the object-at-a-time reference by construction.
"""

from __future__ import annotations

import numpy as np

#: State-space ceiling for tabulation; above this a scan's memory traffic
#: (an ``(n, S)`` composition array) outweighs the Python loop it replaces.
MAX_SCAN_STATES = 64


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort, radix-friendly: narrow nonnegative keys to 16 bits.

    Radix sort cost scales with key width; table indices almost always
    fit 16 bits, which sorts ~5x faster than the same keys as int64.
    """
    keys = np.asarray(keys)
    if keys.size and 0 <= int(keys.min()) and int(keys.max()) < (1 << 16):
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def segmented_fsm_scan(
    group_ids: np.ndarray,
    inputs: np.ndarray,
    transitions: np.ndarray,
    initial_states: np.ndarray | None = None,
) -> np.ndarray:
    """Pre-update automaton state at every step of a grouped trace.

    ``group_ids[i]`` names the table entry step ``i`` touches (dense ids,
    ``0..G-1``); ``inputs[i]`` is the training input the step applies to
    that entry; ``transitions[s, x]`` is the automaton's next state from
    state ``s`` on input ``x``. Returns ``states`` where ``states[i]`` is
    the entry's state *before* step ``i``'s update — i.e. the state its
    prediction is read from — with every entry starting in
    ``initial_states[group]`` (state 0 when omitted).

    Equivalent to, but much faster than::

        table = defaultdict(int)
        for i in range(n):
            states[i] = table[group_ids[i]]
            table[group_ids[i]] = transitions[states[i], inputs[i]]
    """
    n = len(group_ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    n_states = transitions.shape[0]
    order = stable_argsort(group_ids)
    grouped = group_ids[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = grouped[1:] != grouped[:-1]

    # Chunk geometry: the Python-iteration count is 2K + n/K, but each
    # pass-1/3 iteration also moves O(n/K) data, so the optimum sits
    # well below sqrt(n).
    chunk = max(int((n / 8) ** 0.5), 1)
    n_chunks = -(-n // chunk)
    padded = n_chunks * chunk

    # Per-step functions in sorted order: funcs[k] maps the state before
    # step k-1's update to the state before step k's update. A segment
    # start is a constant function (the group's initial state), so a
    # composition never leaks state across segments; pads are identity.
    funcs = np.empty((padded, n_states), dtype=np.int8)
    inp = inputs[order]
    if n > 1:
        funcs[1:n] = transitions[:, inp[:-1]].T
    start_rows = np.flatnonzero(starts)
    if initial_states is None:
        funcs[start_rows] = 0
    else:
        init_col = initial_states[grouped].astype(np.int8)
        funcs[start_rows] = init_col[start_rows][:, None]
    funcs[n:] = np.arange(n_states, dtype=np.int8)

    # Gathers below address funcs flat: element (m, k, s) lives at
    # (m * chunk + k) * n_states + s.
    flat = funcs.reshape(-1)
    base = np.arange(n_chunks, dtype=np.int64) * (chunk * n_states)

    # Pass 1: compose each chunk's functions, columnwise across chunks.
    composed = funcs.reshape(n_chunks, chunk, n_states)[:, 0, :].astype(
        np.int64
    )
    for k in range(1, chunk):
        composed = flat.take((base + k * n_states)[:, None] + composed)

    # Pass 2: propagate the entry state of each chunk sequentially (the
    # first chunk opens with a constant function, so 0 is a safe seed).
    entries = np.empty(n_chunks, dtype=np.int64)
    state = 0
    for index, row in enumerate(composed.tolist()):
        entries[index] = state
        state = row[state]

    # Pass 3: re-run the per-step functions on values inside every chunk
    # at once to recover each step's pre-update state.
    current = entries
    states_sorted = np.empty((n_chunks, chunk), dtype=np.int64)
    for k in range(chunk):
        current = flat.take(base + k * n_states + current)
        states_sorted[:, k] = current

    states = np.empty(n, dtype=np.int64)
    states[order] = states_sorted.reshape(-1)[:n]
    return states


def final_fsm_states(
    group_ids: np.ndarray,
    inputs: np.ndarray,
    transitions: np.ndarray,
    pre_states: np.ndarray,
    n_groups: int,
    initial_states: np.ndarray | None = None,
) -> np.ndarray:
    """State of every entry after the last step of a scanned trace.

    Complements :func:`segmented_fsm_scan` for chunked (checkpoint /
    resume) replays: the returned vector feeds the next chunk's
    ``initial_states``. Entries never touched keep their initial state.
    """
    if initial_states is None:
        finals = np.zeros(n_groups, dtype=np.int64)
    else:
        finals = initial_states.astype(np.int64).copy()
    if len(group_ids):
        # Trace order + numpy's documented repeated-index rule (the last
        # assignment wins) leave each entry at its final post-update state.
        post = transitions[pre_states, inputs].astype(np.int64)
        finals[group_ids] = post
    return finals

