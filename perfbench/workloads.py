"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

Each workload is a closed loop with one caller in one process, handling
one item at a time.  ``setup`` makes the inputs, ``run_pass`` is the timed
step, and ``check`` verifies a pass's outputs outside the timed region.
See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import os
import random
import re
import time
from dataclasses import dataclass, field

from permres import cli, complexes, groups, modules, random_modules, resolution
from permres import io as pio

# The acceptance-6 corpus, (p, r, dim, m, seed), as in tests/test_acceptance.py.
CORPUS = (
    (2, 1, 1, 0, 601), (2, 1, 2, 1, 602), (2, 1, 3, 2, 603), (2, 1, 4, 1, 604), (2, 1, 5, 2, 605),
    (3, 1, 1, 1, 611), (3, 1, 2, 2, 612), (3, 1, 3, 0, 613), (3, 1, 4, 2, 614), (3, 1, 5, 1, 615),
    (2, 2, 1, 2, 621), (2, 2, 2, 0, 622), (2, 2, 3, 1, 623), (2, 2, 4, 2, 624), (2, 2, 5, 2, 625),
    (3, 2, 1, 2, 631), (3, 2, 2, 2, 632), (3, 2, 3, 2, 633), (3, 2, 4, 2, 634), (3, 2, 5, 2, 635),
)
# 625 (14 s a pass) and 635 (60 s and more) do not fit the run budget; 634
# shows the same exponential growth of length (92) at about 7 s a pass.
DEEP = ((3, 2, 4, 2, 634),)
SMALL = tuple(e for e in CORPUS if e[4] not in (625, 634, 635))
# (p, r, m) of the trivial resolutions that the verify workload re-certifies.
VERIFY_INPUTS = ((2, 3, 5), (3, 2, 20), (5, 2, 7))

FAIL_LINE = re.compile(r"^([a-z][a-z-]*): FAIL", re.MULTILINE)


def _capture(fn, *args):
    """Call fn with stdout and stderr captured; return (result, text)."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        out = fn(*args)
    return out, buf.getvalue()


@dataclass
class Outcome:
    """One operation of a pass: its time, and its output or the exception raised."""

    seconds: float
    output: object = None
    error: str | None = None


@dataclass
class Item:
    label: str
    identity: dict
    module: object = None
    m: int = 0
    path: str | None = None
    omega_dims: list[int] = field(default_factory=list)


class Workload:
    """Base class: subclasses make ``items`` in ``setup``."""

    def __init__(self, seed: int, workdir: str, group_params):
        self.seed = seed
        self.workdir = workdir
        self.group_params = sorted(set(group_params))
        self.items: list[Item] = []
        self.dims: list[tuple[int, ...]] | None = None

    def warm_up(self) -> None:
        """A small round trip through every layer, once per group (p, r).

        Resolve k and a small module, write the module's resolution to a
        file and verify it with the CLI.  This fills lazy caches, and in a
        traced run it reaches every traced function on every workload.  The
        module is 2-dimensional, so that its resolution needs a splice,
        except over rank 3, where one splice costs seconds.
        """
        for p, r in self.group_params:
            resolution.trivial_resolution(groups.Group(p, r), 1)
            mod = random_modules.random_module(p, r, 2 if r <= 2 else 1, self.seed)
            res = resolution.good_resolution(mod, 1)
            path = os.path.join(self.workdir, f"warm-up-{p}-{r}.json")
            pio.save_obj(path, pio.complex_to_obj(res.complex, m=res.m))
            code, text = _capture(cli.main, ["verify", path])
            if code != 0:
                raise RuntimeError(f"warm-up verify of {path} exited {code}: {text}")

    def run_pass(self, on_item=None) -> list[Outcome]:
        """The timed step: every item once, in order."""
        outcomes = []
        for item in self.items:
            if on_item is not None:
                on_item(item.label)
            t0 = time.perf_counter()
            try:
                output, error = self.run_item(item), None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(time.perf_counter() - t0, output, error))
        return outcomes

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Failure messages for a pass, one per failed operation."""
        failures = []
        dims = []
        for item, out in zip(self.items, outcomes):
            if out.error is not None:
                failures.append(f"{item.label}: {out.error}")
                dims.append(())
                continue
            problem = self.check_item(item, out.output)
            if problem:
                failures.append(f"{item.label}: {problem}")
            dims.append(self.output_dims(item, out.output))
        if self.dims is None:
            self.dims = dims
        elif dims != self.dims:
            failures.append("term dims differ from the first pass")
        return failures

    def shape_metrics(self) -> dict[str, int]:
        dims = [d for d in (self.dims or []) if d]
        return {
            "total_dim": sum(sum(d) for d in dims),
            "max_term_dim": max((max(d) for d in dims), default=0),
            "length_sum": sum(len(d) - 1 for d in dims),
        }

    def identities(self) -> list[dict]:
        out = []
        for k, item in enumerate(self.items):
            ident = dict(item.identity)
            if self.dims is not None and self.dims[k]:
                ident["length"] = len(self.dims[k]) - 1
                ident["term_dims"] = list(self.dims[k])
                ident["total_dim"] = sum(self.dims[k])
            out.append(ident)
        return out

    def negative_control(self) -> dict | None:
        return None


class ResolveWorkload(Workload):
    """good_resolution(random_module(p, r, dim, seed), m) on corpus entries."""

    def __init__(self, seed: int, workdir: str, entries):
        super().__init__(seed, workdir, [(e[0], e[1]) for e in entries])
        self.entries = entries

    def _module(self, p, r, dim, entry_seed):
        """The first seeded module that is free exactly when the corpus one is.

        Term dims depend only on (p, r, dim, m) and on whether M is free, so
        keeping freeness fixed keeps the workload's shape fixed while the
        seed varies the matrices.  Seed 0 gives the corpus module itself.
        """
        order = p**r
        want = modules.free_rank(random_modules.random_module(p, r, dim, entry_seed))
        want_free = want * order == dim
        base = entry_seed + 1000 * self.seed
        for k in range(1000):
            module_seed = base + k
            mod = random_modules.random_module(p, r, dim, module_seed)
            if (modules.free_rank(mod) * order == dim) == want_free:
                return mod, module_seed
        raise RuntimeError(f"no module like corpus entry {entry_seed} near seed {base}")

    def setup(self) -> None:
        self.items = []
        for p, r, dim, m, entry_seed in self.entries:
            mod, module_seed = self._module(p, r, dim, entry_seed)
            ident = {"p": p, "r": r, "dim": dim, "m": m, "seed": module_seed}
            self.items.append(Item(f"{p},{r},{dim},{m},{module_seed}", ident, mod, m))

    def run_item(self, item: Item):
        return resolution.good_resolution(item.module, item.m)

    def output_dims(self, item: Item, res) -> tuple[int, ...]:
        return tuple(res.complex.dims())

    def check_item(self, item: Item, res) -> str | None:
        c = res.complex
        mod = item.module
        if not res.report.ok:
            return f"certificate fails: {res.report.first_failure()}"
        if c.aug is None or c.aug.target != mod:
            return "augmentation target differs from the input module"
        if complexes.euler_characteristic(c) != mod.dim:
            return "Euler characteristic differs from dim M"
        if not complexes.free_up_to(c, item.m):
            return f"not free up to degree {item.m}"
        if not item.omega_dims:
            item.omega_dims = [modules.omega_iter(mod, j).dim for j in range(1, item.m + 1)]
        order = mod.group.order
        for j in range(1, item.m + 1):
            k_j = complexes.syzygy(c, j)
            if k_j.dim - order * modules.free_rank(k_j) != item.omega_dims[j - 1]:
                return f"syzygy identity fails at j = {j}"
        return None


class VerifyWorkload(Workload):
    """``permres verify`` in process on trivial resolutions written at set-up."""

    def setup(self) -> None:
        inputs = list(VERIFY_INPUTS)
        random.Random(self.seed).shuffle(inputs)
        self.items = []
        for p, r, m in inputs:
            res = resolution.trivial_resolution(groups.Group(p, r), m)
            path = os.path.join(self.workdir, f"trivial-{p}-{r}-{m}.json")
            pio.save_obj(path, pio.complex_to_obj(res.complex, m=m))
            ident = {
                "p": p,
                "r": r,
                "m": m,
                "file": os.path.basename(path),
                "term_dims": list(res.complex.dims()),
            }
            self.items.append(Item(f"{p},{r},{m}", ident, m=m, path=path))

    def identities(self) -> list[dict]:
        out = super().identities()
        for ident, item in zip(out, self.items):
            with open(item.path, "rb") as fh:
                data = fh.read()
            ident["bytes"] = len(data)
            ident["sha256"] = hashlib.sha256(data).hexdigest()
        return out

    def run_item(self, item: Item):
        return _capture(cli.main, ["verify", item.path])

    def output_dims(self, item: Item, out) -> tuple[int, ...]:
        return tuple(item.identity["term_dims"])

    def check_item(self, item: Item, out) -> str | None:
        code, text = out
        if code != 0:
            return f"verify exited {code}"
        if "VERDICT: PASS" not in text.splitlines():
            return "no VERDICT: PASS line"
        return None

    def negative_control(self) -> dict:
        """Verify a copy of one input with one differential entry changed.

        The verdict must be exit code 2 with a failing check named; a pass
        means verification checked less than it claims.
        """
        rng = random.Random(self.seed)
        item = rng.choice(self.items)
        obj = pio.load_obj(item.path)
        p = obj["p"]
        degree = rng.randrange(len(obj["differentials"]))
        diff = obj["differentials"][degree]
        pos = rng.randrange(len(diff))
        diff[pos] = (diff[pos] + 1) % p
        path = os.path.join(self.workdir, "negative-control.json")
        pio.save_obj(path, obj)
        code, text = _capture(cli.main, ["verify", path])
        named = FAIL_LINE.findall(text)
        ok = code == 2 and bool(named)
        return {
            "input": item.label,
            "differential": degree + 1,
            "entry": pos,
            "exit_code": code,
            "failed_checks": named,
            "rejected": ok,
        }


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "resolve-small":
        return ResolveWorkload(seed, workdir, SMALL)
    if name == "resolve-deep":
        return ResolveWorkload(seed, workdir, DEEP)
    if name == "verify":
        return VerifyWorkload(seed, workdir, [(p, r) for p, r, _ in VERIFY_INPUTS])
    raise ValueError(f"unknown workload {name!r}")

