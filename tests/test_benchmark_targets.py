"""Every library name the benchmark's tracer wraps or replays still exists.

perfbench/tracing.py reports a target the library no longer defines as
absent instead of failing, so a refactor that renames or removes one would
silently blank a benchmark span.  The tracer's source is read and run here
without writing anything next to it.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_trace_and_replay_targets_resolve():
    tracing = _tracing_module()
    assert tracing.TARGETS and tracing.REPLAY_TARGETS
    for owner_path, attr, span in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        # the tracer wraps the attribute found in the owner's own namespace
        assert owner is not None and vars(owner).get(attr) is not None, span
    for owner_path, attr in tracing.REPLAY_TARGETS:
        assert callable(getattr(tracing._resolve(owner_path), attr, None)), f"{owner_path}.{attr}"
