"""Command-line interface.

Verbs: build, verify, omega, tensor, random, info, trim; ``verify``
certifies a file as read, and ``trim`` passes a file's stored tags on to
its certificate, so stored tags are the ones checked.  Exit codes:
0 = pass, 2 = invalid input, 3 = resource cap exceeded, 4 = internal
assertion failure.  All outputs are canonical JSON, so identical inputs
and seeds reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import cache

import numpy as np

from . import config
from .complexes import certify_resolution, tag_complex
from .errors import CapExceeded, InternalError, LiftFailed, PermresError
from .io import (
    FormatError,
    complex_from_obj,
    complex_to_obj,
    descriptor_from_obj,
    descriptor_to_obj,
    detect_kind,
    load_obj,
    module_from_obj,
    module_to_obj,
    save_obj,
)
from .linalg import Mat
from .modules import (
    Module,
    ModuleMap,
    free_rank,
    omega_iter,
    radical_series,
)
from .permutation import tensor_descriptor
from .resolution import good_resolution, trim
from .random_modules import random_module

EXIT_PASS = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _tag_line(parts) -> str:
    """Render a part multiset compactly: '2x{} + 1x{01}'."""
    counts = Counter(repr(part) for part in parts)  # keeps first-seen order
    return " + ".join(f"{n}x{key}" for key, n in counts.items()) or "(zero)"


def _load_module(path) -> Module:
    mod = module_from_obj(load_obj(path))
    bad = mod.defect
    if bad is not None:
        raise FormatError(bad)
    return mod


def cmd_build(args) -> int:
    mod = _load_module(args.module)
    res = good_resolution(mod, args.m)
    save_obj(args.out, complex_to_obj(res.complex, m=res.m))
    print(f"module: p={mod.group.p} rank={mod.group.rank} dim={mod.dim}")
    print(f"resolution: length {res.complex.top}, free up to degree {res.m}")
    print("term dims: " + " ".join(str(d) for d in res.complex.dims()))
    for j, tag in enumerate(res.complex.tags):
        print(f"degree {j}: dim {res.complex.terms[j].dim}, tag {_tag_line(tag.parts)}")
    for line in res.report.lines():
        print(line)
    print(f"VERDICT: {'PASS' if res.report.ok else 'FAIL'}")
    print(f"wrote {args.out}")
    return EXIT_PASS if res.report.ok else EXIT_INTERNAL


def cmd_verify(args) -> int:
    loaded = complex_from_obj(load_obj(args.complex))
    m = args.m if args.m is not None else loaded.m
    report = certify_resolution(loaded.complex, m=m)
    digest_ok = loaded.digest_expected is not None and loaded.digest == loaded.digest_expected
    for line in report.lines():
        print(line)
    print(f"digest: {'ok' if digest_ok else 'MISMATCH (informational)'}")
    print(f"VERDICT: {'PASS' if report.ok else 'FAIL'}")
    return EXIT_PASS if report.ok else EXIT_INVALID


def cmd_omega(args) -> int:
    if args.n < 0:
        raise FormatError(f"--n must be >= 0, got {args.n}")
    mod = _load_module(args.module)
    current = omega_iter(mod, args.n)
    save_obj(args.out, module_to_obj(current))
    print(f"omega^{args.n}: dim {current.dim}, free_rank {free_rank(current)}")
    print(f"wrote {args.out}")
    return EXIT_PASS


def cmd_tensor(args) -> int:
    d1 = descriptor_from_obj(load_obj(args.first))
    d2 = descriptor_from_obj(load_obj(args.second))
    out = tensor_descriptor(d1, d2)
    save_obj(args.out, descriptor_to_obj(out))
    print(f"tensor: dim {out.dim}, parts {_tag_line(out.parts)}")
    print(f"wrote {args.out}")
    return EXIT_PASS


def cmd_random(args) -> int:
    mod = random_module(args.p, args.r, args.dim, args.seed)
    save_obj(args.out, module_to_obj(mod))
    bad = mod.defect
    print(f"random module: p={args.p} rank={args.r} dim={mod.dim} seed={args.seed}")
    print(f"validate: {'ok' if bad is None else bad}")
    print(f"wrote {args.out}")
    return EXIT_PASS if bad is None else EXIT_INTERNAL


def cmd_info(args) -> int:
    obj = load_obj(args.file)
    kind = detect_kind(obj)
    if kind == "module":
        mod = module_from_obj(obj)
        bad = mod.defect
        print(f"module file: p={mod.group.p} rank={mod.group.rank} dim={mod.dim}")
        print(f"validate: {'ok' if bad is None else bad}")
        if bad is None:
            print(f"free_rank: {free_rank(mod)}")
            dims = [rows.rows for rows in radical_series(mod)]
            print("radical series dims: " + " ".join(str(d) for d in dims))
            # every composition factor of a kE-module is k
            print(f"composition length: {mod.dim}")
    elif kind == "descriptor":
        d = descriptor_from_obj(obj)
        print(f"descriptor file: p={d.group.p} rank={d.group.rank} dim={d.dim}")
        print(f"parts: {_tag_line(d.parts)}")
    else:
        loaded = complex_from_obj(obj)
        c = loaded.complex
        print(f"complex file: p={c.group.p} rank={c.group.rank} length {c.top}")
        print("term dims: " + " ".join(str(d) for d in c.dims()))
        if c.aug is not None:
            print(f"target dim: {c.aug.target.dim}")
        print(f"tagged: {'yes' if c.tags is not None else 'no'}")
        print(f"meta m: {loaded.m}")
    return EXIT_PASS


def cmd_trim(args) -> int:
    if args.free_rank < 0:
        raise FormatError(f"--free-rank must be >= 0, got {args.free_rank}")
    loaded = complex_from_obj(load_obj(args.complex))
    c = loaded.complex
    if c.aug is None:
        raise FormatError("complex is not augmented")
    group = c.group
    t = args.free_rank
    qdim = t * group.order
    target = c.aug.target
    if qdim > target.dim:
        raise FormatError(
            f"target dim {target.dim} cannot contain a free block of rank {t}"
        )
    split = target.dim - qdim
    for i, a in enumerate(target.action):
        if a.a[:split, split:].any() or a.a[split:, :split].any():
            raise FormatError(
                f"target generator {i + 1} is not block-diagonal for the trailing free block"
            )
    m_mod = Module(group, tuple(Mat(group.p, a.a[:split, :split]) for a in target.action))
    q_mod = Module(group, tuple(Mat(group.p, a.a[split:, split:]) for a in target.action))
    eye = np.eye(target.dim, dtype=np.int64)
    proj_m = ModuleMap(target, m_mod, Mat(group.p, eye[:split]))
    proj_q = ModuleMap(target, q_mod, Mat(group.p, eye[split:]))
    # stored tags are passed on, so the certificate of the trimmed complex checks them
    if c.tags is None:
        try:
            c = tag_complex(c)
        except InternalError as exc:  # permutation generators that do not act as E
            raise FormatError(f"complex file: {exc}") from exc
    out = trim(c, proj_m, proj_q)
    save_obj(args.out, complex_to_obj(out, m=loaded.m))
    print(f"trimmed a free block of rank {t} ({qdim} dimensions) off degree 0")
    print("term dims: " + " ".join(str(d) for d in out.dims()))
    print(f"wrote {args.out}")
    return EXIT_PASS


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: ``parse_args`` reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="permres",
        description="Finite permutation-module resolutions over elementary abelian p-groups",
    )
    parser.add_argument("--cap-dim", type=int, default=None, help="module dimension cap")
    parser.add_argument("--cap-order", type=int, default=None, help="group order cap")
    sub = parser.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("build", help="build a certified resolution of a module")
    b.add_argument("module")
    b.add_argument("--m", type=int, required=True, help="freeness degree")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="re-certify a complex file from scratch")
    v.add_argument("complex")
    v.add_argument("--m", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("omega", help="iterated Heller loop of a module")
    o.add_argument("module")
    o.add_argument("--n", type=int, default=1)
    o.add_argument("--out", required=True)
    o.set_defaults(func=cmd_omega)

    t = sub.add_parser("tensor", help="tensor two permutation descriptors")
    t.add_argument("first")
    t.add_argument("second")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_tensor)

    r = sub.add_parser("random", help="generate a seeded random module")
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--r", type=int, required=True)
    r.add_argument("--dim", type=int, required=True)
    r.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_random)

    i = sub.add_parser("info", help="summarize any permres file")
    i.add_argument("file")
    i.set_defaults(func=cmd_info)

    tr = sub.add_parser("trim", help="remove a trailing free block from the target")
    tr.add_argument("complex")
    tr.add_argument("--free-rank", type=int, required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_trim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with config.limits(args.cap_dim, args.cap_order):
            return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InternalError, LiftFailed) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PermresError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
