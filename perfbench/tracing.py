"""Per-layer spans recorded from outside the library.

``Tracer.install`` rebinds the public functions of each ``permres.*``
module, plus ``Mat.__matmul__``, ``Mat.kron`` and ``Subgroup.__init__``,
to wrappers that record one span per call: name, start, end, parent span
and the item being processed.  Every namespace of the package that holds
a traced function gets the wrapper, so calls between layers are seen as
well as calls from the benchmark.  ``uninstall`` puts the originals back.
No file under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import time
from collections import Counter

PACKAGE_MODULES = (
    "permres",
    "permres.linalg",
    "permres.groups",
    "permres.modules",
    "permres.permutation",
    "permres.complexes",
    "permres.resolution",
    "permres.io",
    "permres.random_modules",
    "permres.cli",
)

# (layer, metric name, module, attribute); a dotted attribute is a method.
TRACED = (
    ("linalg", "matmul", "permres.linalg", "Mat.__matmul__"),
    ("linalg", "kron", "permres.linalg", "Mat.kron"),
    ("linalg", "rank", "permres.linalg", "rank"),
    ("linalg", "solve", "permres.linalg", "solve"),
    ("linalg", "nullspace", "permres.linalg", "nullspace"),
    ("linalg", "row_space", "permres.linalg", "row_space"),
    ("linalg", "mat_pow", "permres.linalg", "mat_pow"),
    ("linalg", "permutation_vector", "permres.linalg", "permutation_vector"),
    ("groups", "subgroup", "permres.groups", "Subgroup.__init__"),
    ("modules", "validate_module", "permres.modules", "validate_module"),
    ("modules", "check_module_map", "permres.modules", "check_module_map"),
    ("modules", "kernel", "permres.modules", "kernel"),
    ("modules", "projective_cover", "permres.modules", "projective_cover"),
    ("modules", "composition_series", "permres.modules", "composition_series"),
    ("modules", "orbit_columns", "permres.modules", "orbit_columns"),
    ("modules", "tensor", "permres.modules", "tensor"),
    ("modules", "direct_sum", "permres.modules", "direct_sum"),
    ("modules", "ses_from_flag", "permres.modules", "ses_from_flag"),
    ("permutation", "recognize", "permres.permutation", "recognize"),
    ("permutation", "element_images", "permres.permutation", "element_images"),
    ("complexes", "tensor_complexes", "permres.complexes", "tensor_complexes"),
    ("complexes", "cone", "permres.complexes", "cone"),
    ("complexes", "lift_chain_map", "permres.complexes", "lift_chain_map"),
    ("complexes", "direct_sum_complexes", "permres.complexes", "direct_sum_complexes"),
    ("complexes", "truncate", "permres.complexes", "truncate"),
    ("complexes", "homology_dims", "permres.complexes", "homology_dims"),
    ("complexes", "certify_resolution", "permres.complexes", "certify_resolution"),
    ("complexes", "free_up_to", "permres.complexes", "free_up_to"),
    ("resolution", "good_resolution", "permres.resolution", "good_resolution"),
    ("resolution", "rotate", "permres.resolution", "rotate"),
    ("resolution", "splice", "permres.resolution", "splice"),
    ("resolution", "periodic_complex", "permres.resolution", "periodic_complex"),
    ("resolution", "trivial_resolution", "permres.resolution", "trivial_resolution"),
    ("io", "load_obj", "permres.io", "load_obj"),
    ("io", "complex_from_obj", "permres.io", "complex_from_obj"),
    ("io", "complex_to_obj", "permres.io", "complex_to_obj"),
    ("io", "save_obj", "permres.io", "save_obj"),
    ("random_modules", "random_module", "permres.random_modules", "random_module"),
)

# Functions that never call another traced function have no self time
# distinct from their inclusive time, so no .self_s is reported for them.
LEAVES = frozenset(
    {
        "linalg.matmul",
        "linalg.kron",
        "linalg.rank",
        "linalg.solve",
        "linalg.nullspace",
        "linalg.row_space",
        "linalg.permutation_vector",
        "modules.orbit_columns",
        "modules.direct_sum",
        "permutation.element_images",
        "io.load_obj",
        "io.complex_to_obj",
        "io.save_obj",
    }
)

# The checks inside certify_resolution are inline code, so each is timed as
# the direct children of the certify span that its code calls.
CERTIFY_CHECKS = {
    "modules.validate_module": "terms_valid",
    "modules.check_module_map": "maps_intertwine",
    "linalg.matmul": "d_squared",
    "linalg.rank": "exact",
    "complexes.homology_dims": "exact",
    "permutation.recognize": "tags",
    "complexes.free_up_to": "free_up_to",
}
CHECK_NAMES = ("terms_valid", "maps_intertwine", "d_squared", "exact", "tags", "free_up_to")
COUNTERS = ("linalg.matmul.flops", "linalg.elim.cells", "io.bytes")


def _count(x: float):
    """A per-pass count: an int when the passes agree, else their mean."""
    return int(round(x)) if abs(x - round(x)) < 1e-6 else x


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        attr = meth
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans in memory while installed; analyses them afterwards."""

    def __init__(self):
        # one span: [name, start, end, parent index, item, outermost of its name]
        self.spans: list[list] = []
        self.item: str | None = None
        # counter totals, keyed by (counter, item == "setup")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._recognized: set[bytes] = set()
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, not open_[name]]
            spans.append(span)
            stack.append(idx)
            open_[name] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_[name] -= 1
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        """Wrap fn in a span, and add its size counter where it has one."""
        inner = self._span(name, fn)
        add = self._add
        if name == "linalg.matmul":

            def wrapper(a, b):
                add("linalg.matmul.flops", 2 * a.rows * a.cols * b.cols)
                return inner(a, b)

        elif name == "permutation.recognize":
            seen = self._recognized

            def wrapper(m):
                digest = hashlib.blake2b(digest_size=16)
                for g in m.action:
                    digest.update(repr(g.shape).encode())
                    digest.update(g.a.tobytes())
                seen.add(digest.digest())
                return inner(m)

        elif name in ("io.load_obj", "io.save_obj"):

            def wrapper(path, *args):
                out = inner(path, *args)
                add("io.bytes", os.path.getsize(path))
                return out

        else:
            return inner
        return functools.wraps(fn)(wrapper)

    def _add(self, counter: str, n: int) -> None:
        self.counts[counter, self.item == "setup"] += n

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(n) for n in PACKAGE_MODULES]
        linalg = importlib.import_module("permres.linalg")
        echelon = linalg._echelon
        add = self._add

        def counted_echelon(a, p, reduced):
            add("linalg.elim.cells", a.shape[0] * a.shape[1])
            return echelon(a, p, reduced)

        self._saved.append((linalg, "_echelon", echelon))
        linalg._echelon = counted_echelon
        for layer, name, module_name, attr in TRACED:
            owner, key, original = _resolve(module_name, attr)
            wrapped = self._counted(f"{layer}.{name}", original)
            if isinstance(owner, type):
                self._saved.append((owner, key, original))
                setattr(owner, key, wrapped)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, binding, original))
                        setattr(mod, binding, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def _child_time(self) -> list[float]:
        """For each span, the summed duration of its direct children."""
        out = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] += end - start
        return out

    def check_tree(self) -> list[str]:
        """Problems with the span tree: a span that ends before it starts,
        a child outside its parent, or negative self time.  Empty when the
        tree is well-formed."""
        problems = []
        for idx, (name, start, end, parent, _, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {idx} ({name}) ends before it starts")
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                if parent >= idx or start < p_start or end > p_end:
                    problems.append(f"span {idx} ({name}) lies outside parent {parent}")
        child_time = self._child_time()
        for idx, span in enumerate(self.spans):
            if span[2] - span[1] - child_time[idx] < -1e-9:
                problems.append(f"span {idx} ({span[0]}) has negative self time")
        return problems[:10]

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures for the set-up plus one pass.

        Spans whose item is ``setup`` count once; spans of the timed passes
        are summed and divided by the number of traced passes.
        """
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        checks: Counter = Counter()
        child_time = self._child_time()
        for idx, (name, start, end, parent, item, outer) in enumerate(self.spans):
            w = 1.0 if item == "setup" else 1.0 / passes
            dur = end - start
            calls[name] += w
            self_s[name] += w * (dur - child_time[idx])
            if outer:
                incl[name] += w * dur
            if parent >= 0 and self.spans[parent][0] == "complexes.certify_resolution":
                check = CERTIFY_CHECKS.get(name)
                if check:
                    checks[check] += w * dur
        out: dict[str, float] = {}
        for layer, fn, _, _ in TRACED:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = _count(calls[name])
            out[f"{name}.s"] = incl[name]
            if name not in LEAVES:
                out[f"{name}.self_s"] = self_s[name]
        for check in CHECK_NAMES:
            out[f"certify.{check}.s"] = checks[check]
        for counter in COUNTERS:
            out[counter] = _count(self.counts[counter, True] + self.counts[counter, False] / passes)
        out["permutation.recognize.distinct"] = len(self._recognized)
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write every span as JSON: names are indices into ``names``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], round(start, 7), round(end, 7), parent, item]
            for name, start, end, parent, item, _ in self.spans
        ]
        doc = dict(extra)
        doc.update(
            {
                "span_fields": ["name", "start_s", "end_s", "parent", "item"],
                "names": names,
                "spans": rows,
            }
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
