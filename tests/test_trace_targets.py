"""Every name the benchmark looks up in quasi3 still exists.

perfbench/tracer.py looks its targets up by module and attribute path and
reports a vanished one only as a missing layer whose metrics read 0, so a
refactor that renames or deletes a traced function would go unnoticed.
The names below are dead already (paths._count_family calls
_pypaths.family_count directly, so paths.count_families_bruteforce is
gone, and is_quasiinvariant is the one public divisibility search, so
quasi.largest_dividing_power is gone); ROADMAP item 1 (benchmark upkeep)
drops or retargets them.
perfbench/smoke.py breaks functions through patched_everywhere(module,
name, ...), which unpacks tracer.resolve and so fails with a TypeError
on a vanished name.
perfbench/run.py's set-up probe imports the CLI and builds its parser,
so a rename there would only fail the benchmark run.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

KNOWN_DEAD = {
    "quasi.remainder_tower",
    "quasi.in_ideal_part",
    "linsys.rref",
    "paths.count_families_bruteforce",
    "quasi.largest_dividing_power",
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = load_perfbench("tracer")
    entries = tracer.TARGETS + tracer.COUNTED
    for _, module, _ in entries:
        importlib.import_module(module)
    dead = {name for name, module, path in entries if tracer.resolve(module, path) is None}
    assert dead == KNOWN_DEAD


def smoke_patch_targets():
    """(module, name) of every patched_everywhere call in perfbench/smoke.py."""
    tree = ast.parse((PERFBENCH / "smoke.py").read_text())
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "patched_everywhere"
    ]


def test_every_smoke_patch_target_resolves():
    tracer = load_perfbench("tracer")
    targets = smoke_patch_targets()
    assert targets  # the smoke test still breaks something on purpose
    for module, name in targets:
        importlib.import_module(module)
        assert tracer.resolve(module, name) is not None, f"{module}.{name}"


def test_setup_probe_prints_one_float():
    run = load_perfbench("run")
    done = subprocess.run(
        [sys.executable, "-c", run.SETUP_PROBE, str(run.SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    (seconds,) = done.stdout.split()
    assert float(seconds) > 0
