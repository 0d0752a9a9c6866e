"""Every layer the benchmark tracer times or counts still exists.

perfbench/tracer.py looks its targets up by module and attribute path and
reports a vanished one only as a missing layer whose metrics read 0, so a
refactor that renames or deletes a traced function would go unnoticed.
The names below are dead already; ROADMAP item 1 (benchmark upkeep)
drops or retargets them.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

KNOWN_DEAD = {"quasi.remainder_tower", "quasi.in_ideal_part", "linsys.rref"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_target_resolves():
    tracer = load_tracer()
    entries = tracer.TARGETS + tracer.COUNTED
    for _, module, _ in entries:
        importlib.import_module(module)
    dead = {name for name, module, path in entries if tracer.resolve(module, path) is None}
    assert dead == KNOWN_DEAD
