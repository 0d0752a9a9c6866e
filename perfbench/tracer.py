"""Spans and counters recorded at quasi3's module boundaries, from outside.

Tracer.install replaces each traced function with a timing wrapper in
every quasi3 module that binds it, including names bound by
``from ... import`` (``basis.nullspace``, ``paths.det_exact``) and
methods (``Polynomial.__mul__``, which also backs ``__rmul__``).  Nothing
under src/ changes; uninstall puts the originals back.

A span is (name, start, end, parent).  Self time is a span's duration
minus the time covered by its child spans, accumulated as the spans
close, so per-layer self times plus the benchmark's own spans add up to
the traced wall time.  Spans of the first traced pass are kept in memory
(up to SPAN_CAP) and written when the run ends.

Which end-to-end metric each layer should move, and on which workload:
  poly.* (vandermonde_power, mul, apply_perm, parse_poly, to_json_obj)
                              wall_s on basis; mul also wall_s on graded
  arith.binom.calls           op_ms.p50 on identities
  quasi.is_quasiinvariant, largest_dividing_power, dividing_power.sum
                              wall_s and op_ms.p50 on basis
  quasi.graded_qi_basis, remainder_tower, independent_modulo_ideal,
  in_ideal_part               wall_s on graded
  linsys.build_system, restrict_Bm, extract_blocks, nullspace, det_exact,
  nullspace.cells, det_exact.n3
                              wall_s and op_ms.tail on basis; many tiny
                              det_exact calls op_ms.p50 on identities
  linsys.rref, rref.cells, rref.rank_ratio
                              wall_s on graded
  paths.verify_thm1, verify_thm2, count_families_bruteforce, checked_ratio
                              wall_s and op_ms.tail on identities
  pypaths.family_count, dp_count, guard_product.sum
                              wall_s, op_ms.tail and op_ms.p50 on identities
                              (a transfer-matrix count also peak_rss_mb)
  basis.*, cli.main           op_ms.p50 on basis and graded
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager

SPAN_CAP = 1_000_000

# (metric prefix, module, attribute path); "Polynomial.__mul__" is a method.
TARGETS = (
    ("poly.vandermonde_power", "quasi3.poly", "vandermonde_power"),
    ("poly.Polynomial.mul", "quasi3.poly", "Polynomial.__mul__"),
    ("poly.Polynomial.apply_perm", "quasi3.poly", "Polynomial.apply_perm"),
    ("poly.parse_poly", "quasi3.poly", "parse_poly"),
    ("poly.Polynomial.to_json_obj", "quasi3.poly", "Polynomial.to_json_obj"),
    ("quasi.is_quasiinvariant", "quasi3.quasi", "is_quasiinvariant"),
    ("quasi.largest_dividing_power", "quasi3.quasi", "largest_dividing_power"),
    ("quasi.graded_qi_basis", "quasi3.quasi", "graded_qi_basis"),
    ("quasi.remainder_tower", "quasi3.quasi", "remainder_tower"),
    ("quasi.independent_modulo_ideal", "quasi3.quasi", "independent_modulo_ideal"),
    ("quasi.in_ideal_part", "quasi3.quasi", "in_ideal_part"),
    ("linsys.build_system", "quasi3.linsys", "build_system"),
    ("linsys.restrict_Bm", "quasi3.linsys", "restrict_Bm"),
    ("linsys.extract_blocks", "quasi3.linsys", "extract_blocks"),
    ("linsys.nullspace", "quasi3.linsys", "nullspace"),
    ("linsys.det_exact", "quasi3.linsys", "det_exact"),
    ("linsys.rref", "quasi3.linsys", "rref"),
    ("paths.verify_thm1", "quasi3.paths", "verify_thm1"),
    ("paths.verify_thm2", "quasi3.paths", "verify_thm2"),
    ("paths.count_families_bruteforce", "quasi3.paths", "count_families_bruteforce"),
    ("pypaths.family_count", "quasi3._pypaths", "family_count"),
    ("pypaths.dp_count", "quasi3._pypaths", "dp_count"),
    ("basis.build_basis", "quasi3.basis", "build_basis"),
    ("basis.ansatz_coefficients", "quasi3.basis", "ansatz_coefficients"),
    ("basis.assemble_ansatz", "quasi3.basis", "assemble_ansatz"),
    ("cli.main", "quasi3.cli", "main"),
)
# Counted, not timed: binom runs inside nearly every entry formula.
COUNTED = (("arith.binom", "quasi3.arith", "binom"),)

# Named counts: numerator and, for ratios, denominator accumulated per pass.
COUNTS = (
    "quasi.dividing_power.sum",
    "linsys.nullspace.cells",
    "linsys.det_exact.n3",
    "linsys.rref.cells",
    "pypaths.guard_product.sum",
)
RATIOS = ("linsys.rref.rank_ratio", "paths.checked_ratio")


def resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None when it is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = vars(owner).get(parts[-1])
    if original is None:
        return None
    return owner, parts[-1], original


def bindings(owner, original):
    """Every (namespace owner, name) in quasi3 bound to ``original``."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in vars(owner).items() if v is original]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quasi3" or name.startswith("quasi3.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    """Per-pass self times, call counts and named counts for TARGETS."""

    def __init__(self):
        self.names = ["bench.request"]
        self.names += [t[0] for t in TARGETS]
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.stack = []
        self.restore = []
        self.missing = []
        self.recording = False
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counted = {name: 0 for name, _, _ in COUNTED}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.ratio = {name: [0, 0] for name in RATIOS}
        self.hook_errors = 0

    def reset(self):
        """Zero the per-pass numbers in place (wrappers hold references)."""
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        for table in (self.counted, self.counts):
            for key in table:
                table[key] = 0
        for pair in self.ratio.values():
            pair[:] = [0, 0]
        self.hook_errors = 0

    # --- spans ---------------------------------------------------------------

    def _enter(self, nid):
        index = -1
        if self.recording:
            if len(self.span_start) < SPAN_CAP:
                index = len(self.span_start)
                parent = self.stack[-1][1] if self.stack else -1
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                self.dropped += 1
        frame = [0.0, index, nid, 1]  # child time, span index, name id, product
        self.stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self.stack.pop()
        duration = end - start
        nid = frame[2]
        self.calls[nid] += 1
        self.self_s[nid] += duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration
        if frame[1] >= 0:
            self.span_start[frame[1]] = start
            self.span_end[frame[1]] = end

    @contextmanager
    def span(self, name):
        frame = self._enter(self.ids[name])
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    def _wrap(self, name, fn, hook):
        nid = self.ids[name]
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, start, clock())
            if hook is not None:
                try:
                    hook(frame, args, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, name, fn):
        counted = self.counted

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- hooks computing the named counts --------------------------------------

    def _hooks(self):
        counts, ratio = self.counts, self.ratio
        family = self.ids["pypaths.family_count"]

        def dividing_power(frame, args, result):
            if result is not None:
                counts["quasi.dividing_power.sum"] += result

        def nullspace(frame, args, result):
            counts["linsys.nullspace.cells"] += len(args[0].entries) * len(args[0].cols)

        def det(frame, args, result):
            counts["linsys.det_exact.n3"] += len(args[0]) ** 3

        def rref(frame, args, result):
            rows = len(args[0])
            counts["linsys.rref.cells"] += rows * (len(args[0][0]) if rows else 0)
            ratio["linsys.rref.rank_ratio"][0] += len(result[1])
            ratio["linsys.rref.rank_ratio"][1] += rows

        def report(frame, args, result):
            ratio["paths.checked_ratio"][0] += bool(result.checked)
            ratio["paths.checked_ratio"][1] += 1

        def dp(frame, args, result):
            # the guard product: single-path counts taken inside family_count
            if self.stack and self.stack[-1][2] == family:
                self.stack[-1][3] *= result

        def family_count(frame, args, result):
            counts["pypaths.guard_product.sum"] += frame[3]

        return {
            "quasi.largest_dividing_power": dividing_power,
            "linsys.nullspace": nullspace,
            "linsys.det_exact": det,
            "linsys.rref": rref,
            "paths.verify_thm1": report,
            "paths.verify_thm2": report,
            "pypaths.dp_count": dp,
            "pypaths.family_count": family_count,
        }

    # --- install / uninstall -----------------------------------------------------

    def install(self):
        hooks = self._hooks()
        for name, module, path in TARGETS + COUNTED:
            found = resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            if name in self.counted:
                wrapper = self._count_only(name, original)
            else:
                wrapper = self._wrap(name, original, hooks.get(name))
            for target, key in bindings(owner, original):
                self.restore.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self.restore):
            setattr(target, key, original)
        self.restore.clear()

    # --- results -------------------------------------------------------------------

    def snapshot(self, wall):
        """This pass's per-layer numbers, keyed by metric name."""
        out = {}
        for name, _, _ in TARGETS:
            nid = self.ids[name]
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        for name in self.counted:
            out[f"{name}.calls"] = self.counted[name]
        out.update(self.counts)
        for name, (num, den) in self.ratio.items():
            out[name] = num / den if den else 0.0
        out["bench.self_s"] = self.self_s[self.ids["bench.request"]]
        out["tracing.accounted_frac"] = sum(self.self_s) / wall
        return out

    def write_spans(self, path):
        """Gzipped text: a header naming the ids, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# " + " ".join(self.names) + "\n")
            fh.write(f"# name_id start_s end_s parent_index dropped={self.dropped}\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_name[i]} {self.span_start[i] - t0:.9f} "
                    f"{self.span_end[i] - t0:.9f} {self.span_parent[i]}\n"
                )
