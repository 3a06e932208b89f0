"""Event-compressed timing evaluation as a max-plus (tropical) scan.

The task-granularity timing model (:mod:`repro.sim.timing.machine`) is a
chain of ``max``/``+`` recurrences per dynamic task::

    start_i  = max(dispatch_i, unit_free_i)
    finish_i = max(start_i + exec_i, finish_{i-1} + forward_i)
    commit_i = max(finish_i, commit_{i-1} + commit_interval)

with ``dispatch_{i+1}`` set by the prediction outcome (``+ interval`` on a
correct prediction, ``finish_i`` on a gated one, ``finish_i + penalty`` on
a mispredict). Once the per-task prediction outcomes are known — the
batched predictors supply them as a column — the whole chain is linear in
the *max-plus semiring*, so it can be evaluated without a per-task Python
loop.

Two exact reductions make that possible:

* **Ring elimination.** ``unit_free_i`` is the commit time of the task
  that last ran on the same unit, ``commit_{i-N}`` for an ``N``-unit
  ring, *except* that a squash clamps the unit-free times down to the
  restart point. The clamp is removable: if any task in ``[i-N, i-1]``
  mispredicted, ``dispatch_i`` already dominates the clamped unit-free
  time (dispatch is monotone and a mispredict at ``j`` forces
  ``dispatch_{j+1} = finish_j + penalty``, an upper bound of every
  clamped entry), so ``start_i = dispatch_i``; otherwise no clamp was
  live in the window and ``start_i = max(dispatch_i, commit_{i-N})``.
  The window is scattered from the mispredict positions as a ``-inf``
  unit operand on the ``N`` steps after each one.

* **Chunked scan.** With the ``2+N``-wide state vector ``(dispatch,
  finish, unit_0 .. unit_{N-1})`` each task is a max-plus matrix. The
  commit time needs no component of its own: it always equals the unit
  slot written last. Composing ``K`` steps per chunk *columnwise across
  all chunks at once* (pass 1), propagating chunk-entry states
  sequentially (pass 2, ``n/K`` cheap steps), then re-running values
  inside chunks (pass 3) costs ``O(n * (2+N))`` numpy work with only
  ``K + n/K + K`` Python iterations — minimised near ``K ≈ sqrt(n/6)``.

The per-task operands are laid out *step-major*: one ``(K, n/K)`` block
per operand, so step ``k`` of every chunk is one contiguous row, and
every pass-1 and pass-3 ufunc writes into a preallocated buffer. Both
passes run the same step on different views: coefficient blocks of shape
``(2+N, n/K)`` in pass 1, value rows in pass 3. On a 300k-task Table 4
cell (4 units, ``K = 224``; 2-CPU x86 host, numpy 2.4) a call takes about
35 ms: set-up 10, pass 1 13, pass 2 6, pass 3 5, stall gather 1.

The scan is validated bit-identical to the stepped reference over every
predictor scheme and several ring/penalty configurations by
``tests/test_sim_timing_vectorized.py``, and against a plain stepped
ring on generated traces by ``tests/test_property_timing_scan.py``.
"""

from __future__ import annotations

import numpy as np

#: "Minus infinity" of the max-plus semiring. Chosen so one addition of
#: two sentinels lands exactly on INT64_MIN without wrapping.
_NEG = np.int64(-(1 << 62))

#: Per-step prediction outcome codes.
CODE_CORRECT = 0
CODE_GATED = 1
CODE_MISPREDICT = 2


def _chunk_length(n: int, n_units: int) -> int:
    """Steps per chunk: near ``sqrt(n/6)`` and a multiple of ``n_units``.

    The multiple keeps the unit-slot rotation aligned at chunk
    boundaries.
    """
    return max(int(round((n / 6) ** 0.5)) // n_units * n_units, n_units)


def max_plus_timing_scan(
    exec_cycles: np.ndarray,
    forward_stalls: np.ndarray,
    codes: np.ndarray,
    n_units: int,
    dispatch_interval: int,
    mispredict_penalty: int,
    commit_interval: int,
) -> tuple[int, int]:
    """Evaluate the timing recurrences over a whole trace at once.

    ``exec_cycles`` and ``forward_stalls`` are per-task cycle columns;
    ``codes`` holds :data:`CODE_CORRECT` / :data:`CODE_GATED` /
    :data:`CODE_MISPREDICT` per task. Returns ``(total_cycles,
    mispredict_stall_cycles)``, bit-identical to the stepped model.
    """
    n = len(exec_cycles)
    if n == 0:
        return 0, 0
    ring = int(n_units)
    d_step = np.int64(dispatch_interval)
    c_step = np.int64(commit_interval)
    chunk = _chunk_length(n, ring)
    n_chunks = -(-n // chunk)
    full = n // chunk  # chunks without tail padding

    # Per-task operands. ``exec_unit`` is -inf on the ring steps after
    # a mispredict (ring elimination). The dispatch update is
    # max(dispatch + advance, finish + redirect) with exactly one finite
    # operand: advance on a correct prediction, redirect otherwise. The
    # finite term keeps every pass-1 coefficient at or above _NEG, so no
    # coefficient plus operand wraps.
    missed = np.flatnonzero(codes == CODE_MISPREDICT)
    correct = codes == CODE_CORRECT
    exec_unit = np.array(exec_cycles, dtype=np.int64)
    for offset in range(1, ring + 1):
        window = missed + offset
        exec_unit[window[window < n]] = _NEG
    advance = np.where(correct, d_step, _NEG)
    redirect = np.where(correct, _NEG, np.int64(0))
    redirect[missed] = mispredict_penalty

    # Step-major layout: row k of a block is step k of every chunk. The
    # last chunk's tail padding is zero; no result reads it back.
    tail = n - full * chunk
    blocks = np.empty((5, chunk, n_chunks), dtype=np.int64)
    blocks[:, tail:, full:] = 0
    columns = (exec_cycles, exec_unit, forward_stalls, advance, redirect)
    for block, column in zip(blocks, columns):
        block[:, :full] = column[: full * chunk].reshape(full, chunk).T
        block[:tail, full:] = column[full * chunk:, None]
    exec_b, exec_unit_b, forward_b, advance_b, redirect_b = blocks

    def step(
        k, dispatch, finish, unit_free, last_commit,
        new_dispatch, new_finish, new_commit, t1, t2,
    ) -> None:
        # Ordered so each output may alias its input (pass 1 updates in
        # place): every input is read before its alias is written.
        np.add(finish, forward_b[k], out=t1)
        np.add(unit_free, exec_unit_b[k], out=t2)
        np.maximum(t1, t2, out=t1)
        np.add(dispatch, exec_b[k], out=new_finish)
        np.maximum(new_finish, t1, out=new_finish)
        np.add(last_commit, c_step, out=new_commit)
        np.maximum(new_commit, new_finish, out=new_commit)
        np.add(dispatch, advance_b[k], out=new_dispatch)
        np.add(new_finish, redirect_b[k], out=t1)
        np.maximum(new_dispatch, t1, out=new_dispatch)

    # Pass 1: compose each chunk's max-plus coefficients, columnwise
    # across all chunks. coef[i, j, c] maps entry component j of chunk c
    # to component i; the identity has zeros on the diagonal.
    state_dim = 2 + ring  # (dispatch, finish, unit_0 .. unit_{N-1})
    coef = np.full((state_dim, state_dim, n_chunks), _NEG, dtype=np.int64)
    diagonal = np.arange(state_dim)
    coef[diagonal, diagonal] = 0
    t1 = np.empty((state_dim, n_chunks), dtype=np.int64)
    t2 = np.empty_like(t1)
    dispatch, finish, units = coef[0], coef[1], coef[2:]
    for k in range(chunk):
        unit = units[k % ring]
        step(
            k, dispatch, finish, unit, units[k % ring - 1],
            dispatch, finish, unit, t1, t2,
        )

    # Pass 2: propagate the entry state of each chunk sequentially.
    mats = coef.transpose(2, 0, 1).copy()
    states = np.empty((n_chunks, state_dim), dtype=np.int64)
    states[0] = 0
    scratch = np.empty((state_dim, state_dim), dtype=np.int64)
    for chunk_index in range(n_chunks - 1):
        np.add(mats[chunk_index], states[chunk_index], out=scratch)
        scratch.max(axis=1, out=states[chunk_index + 1])

    # Pass 3: re-run the recurrence on values inside every chunk at once,
    # keeping each step's dispatch for stall accounting.
    dispatches = np.empty((chunk + 1, n_chunks), dtype=np.int64)
    dispatches[0] = states[:, 0]
    finish, new_finish = states[:, 1].copy(), np.empty(n_chunks, np.int64)
    units = states[:, 2:].T.copy()
    r1, r2 = np.empty(n_chunks, np.int64), np.empty(n_chunks, np.int64)
    last = (n - 1) % chunk
    total_cycles = 0
    for k in range(chunk):
        unit = units[k % ring]
        step(
            k, dispatches[k], finish, unit, units[k % ring - 1],
            dispatches[k + 1], new_finish, unit, r1, r2,
        )
        finish, new_finish = new_finish, finish
        if k == last:
            total_cycles = int(unit[-1])

    # A mispredict's stall is how far its restart (the next dispatch)
    # lands beyond the dispatch a correct prediction would have allowed.
    chunk_of, step_of = np.divmod(missed, chunk)
    at = step_of * n_chunks + chunk_of
    flat = dispatches.reshape(-1)
    stalls = int(
        np.maximum(0, flat[at + n_chunks] - flat[at] - d_step).sum()
    )
    return total_cycles, stalls
