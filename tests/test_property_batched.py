"""Generated-input differential tests: batched kernels vs stepped loops.

Hypothesis draws miniature programs (``tiny_profiles``), compiles them,
runs them for 0, 1 or a few hundred tasks, and draws predictor shapes
(history depths, small tables, automata) alongside. Every batched path
must return exactly what the stepped loop (``vectorize=False``) returns.
The fixed grids in ``test_sim_vectorized.py`` and
``test_sim_timing_vectorized.py`` cover the calibrated profiles at the
paper's table sizes; these cover the programs, lengths and sizes they
do not.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
)
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.speculative import SpeculativePathPredictor
from repro.predictors.static_hints import StaticHintExitPredictor
from repro.predictors.task_predictor import (
    CttbOnlyTaskPredictor,
    HeaderTaskPredictor,
)
from repro.predictors.ttb import (
    CorrelatedTaskTargetBuffer,
    IdealCorrelatedTargetBuffer,
    TaskTargetBuffer,
)
from repro.sim.functional import (
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
    simulate_task_prediction,
)
from repro.sim.relaxed import simulate_speculative_exit_prediction
from repro.synth.executor import TraceExecutor
from repro.synth.workloads import Workload

from tests.test_property_pipeline import _compile, tiny_profiles
from tests.test_property_predictors import dolc_specs

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DEPTHS = st.integers(min_value=0, max_value=7)
_TABLE_BITS = st.integers(min_value=1, max_value=6)
_AUTOMATA = st.sampled_from(("LE", "LEH-1", "LEH-2"))
_SMALL_SPECS = dolc_specs().filter(lambda spec: spec.index_bits <= 8)


@st.composite
def workloads(draw):
    """A compiled tiny program and a trace of 0, 1 or a few hundred tasks."""
    profile = draw(tiny_profiles())
    compiled = _compile(profile)
    trace = TraceExecutor(compiled, seed=profile.seed).run(600)
    n_tasks = draw(st.sampled_from((0, 1, 200, 600)))
    return Workload(profile, compiled, trace.head(n_tasks))


def _assert_paths_agree(simulate, workload, make, **kwargs):
    stepped = simulate(workload, make(), vectorize=False, **kwargs)
    batched = simulate(workload, make(), vectorize=True, **kwargs)
    assert batched == stepped


@_SETTINGS
@given(workloads(), _DEPTHS, _TABLE_BITS, _AUTOMATA, _SMALL_SPECS)
def test_exit_prediction(workload, depth, bits, automaton, spec):
    trace = workload.trace
    makers = (
        lambda: IdealGlobalPredictor(depth, automaton=automaton),
        lambda: IdealPerTaskPredictor(depth, automaton=automaton),
        lambda: IdealPathPredictor(depth, automaton=automaton),
        lambda: GlobalExitPredictor(
            depth, index_bits=bits, automaton=automaton
        ),
        lambda: PerTaskExitPredictor(
            depth, index_bits=bits, hrt_index_bits=bits, automaton=automaton
        ),
        lambda: PathExitPredictor(spec, automaton=automaton),
        lambda: StaticHintExitPredictor.profile_from_trace(trace),
    )
    for make in makers:
        _assert_paths_agree(simulate_exit_prediction, workload, make)


@_SETTINGS
@given(workloads(), _DEPTHS, _TABLE_BITS, _SMALL_SPECS)
def test_indirect_target_prediction(workload, depth, bits, spec):
    makers = (
        lambda: TaskTargetBuffer(index_bits=bits),
        lambda: CorrelatedTaskTargetBuffer(spec),
        lambda: IdealCorrelatedTargetBuffer(depth),
    )
    for make in makers:
        _assert_paths_agree(
            simulate_indirect_target_prediction, workload, make
        )


@_SETTINGS
@given(
    workloads(),
    _SMALL_SPECS,
    _SMALL_SPECS,
    st.integers(min_value=1, max_value=4),
)
def test_task_prediction(workload, exit_spec, cttb_spec, ras_depth):
    program = workload.compiled.program
    makers = (
        lambda: HeaderTaskPredictor(
            program=program,
            exit_predictor=PathExitPredictor(exit_spec),
            cttb=CorrelatedTaskTargetBuffer(cttb_spec),
            ras=ReturnAddressStack(depth=ras_depth),
        ),
        lambda: CttbOnlyTaskPredictor(CorrelatedTaskTargetBuffer(cttb_spec)),
    )
    for make in makers:
        _assert_paths_agree(simulate_task_prediction, workload, make)


@_SETTINGS
@given(workloads(), _SMALL_SPECS, st.integers(min_value=0, max_value=6))
def test_perfect_repair_speculative_replay(workload, spec, wrong_path_depth):
    _assert_paths_agree(
        simulate_speculative_exit_prediction,
        workload,
        lambda: SpeculativePathPredictor(spec),
        wrong_path_depth=wrong_path_depth,
    )
