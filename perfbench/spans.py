"""Span recording around the package's layer entry points, from outside.

``Tracer.install()`` replaces each entry point listed in ``LAYERS`` by a
wrapper, under every name a hannerfaces module resolves it by (modules
such as ``recursion`` and ``polys`` import functions by name, so patching
the defining module alone would miss their calls).  A wrapper records one
span (name, start, end, parent) in flat in-memory arrays; ``uninstall()``
puts the originals back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, function, span name).  Several functions may share a span name;
# a span nested directly or indirectly in one of the same name counts
# toward that layer's self time but not again toward its busy time.
LAYERS = [
    ("schedule", "is_product_step", "schedule"),
    ("schedule", "window_profile", "schedule"),
    ("_kernels", "convolve_exact", "kernels.exact"),
    ("_kernels", "_mul_bigint", "kernels.mul"),
    ("_kernels", "log_convolve", "kernels.log"),
    ("recursion", "run", "recursion.run"),
    ("recursion", "step", "recursion.step"),
    ("asymptotics", "scan", "asymptotics.scan"),
    ("phimap", "compose_window", "phimap.compose"),
    ("trees", "tree_sum_check", "trees.sum_check"),
    ("trees", "tree_weight", "trees.weight"),
    ("geometry", "build_polytope", "geometry.build"),
    ("geometry", "face_lattice", "geometry.lattice"),
    ("cli", "_emit_rows", "cli.emit"),
    ("cli", "_emit_object", "cli.emit"),
]

SMALL_CALL_COEFFS = 64


class Tracer:
    """Flat span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._exact_code = -1

    # -- recording ---------------------------------------------------------

    def _span(self, label: str, fn, before=None, after=None):
        if label not in self.names:
            self.names.append(label)
        code = self.names.index(label)
        clock = time.perf_counter
        stack, name, start, end, parent = self._stack, self.name, self.start, self.end, self.parent

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(start)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_exact(self, args):
        f, g = args[0], args[1]
        self.counts["kernels.exact.small_calls"] += max(len(f), len(g)) <= SMALL_CALL_COEFFS

    def _count_mul(self, args):
        # Packed operand bits of exact-path multiplies (the window-map
        # composer multiplies through the same helper; it is not counted).
        if self._stack and self.name[self._stack[-1]] == self._exact_code:
            self.counts["kernels.exact.operand_bits"] += args[0].bit_length() + args[1].bit_length()

    def _count_log(self, args):
        k = len(args[0])
        self.counts["kernels.log.pairs"] += k * (k + 1) // 2

    def _count_faces(self, lattice):
        self.counts["geometry.faces"] += lattice.total

    def _count_trees(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for tree in fn(*args, **kwargs):
                counts["trees.enumerated"] += 1
                yield tree

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hannerfaces" or name.startswith("hannerfaces."))
        }
        hooks = {
            "convolve_exact": (self._count_exact, None),
            "_mul_bigint": (self._count_mul, None),
            "log_convolve": (self._count_log, None),
            "face_lattice": (None, self._count_faces),
        }
        replacements = []
        for mod_name, fn_name, label in LAYERS:
            original = getattr(mods[f"hannerfaces.{mod_name}"], fn_name)
            before, after = hooks.get(fn_name, (None, None))
            replacements.append((original, self._span(label, original, before, after)))
        self._exact_code = self.names.index("kernels.exact")
        trees = mods["hannerfaces.trees"]
        replacements.append((trees.enumerate_trees, self._count_trees(trees.enumerate_trees)))
        for original, wrapper in replacements:
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and busy time of outermost spans, self time of all."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        mask = [0] * n  # bit set per span name on the path above each span
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | (1 << self.name[p])
        out = {label: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for label in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["self_s"] += dur[i] - child[i]
            if not mask[i] >> self.name[i] & 1:
                row["calls"] += 1
                row["busy_s"] += dur[i]
        return out

    def dump(self, path, meta: dict):
        """Write every span once, as gzipped column arrays."""
        payload = {
            "meta": meta,
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
