"""Independent brute-force reference routines used as test oracles.

Everything here is pure Python on lists of ints, deliberately sharing no
code with the library, so that expected values in the tests come from a
second implementation path.  The ``ref_*`` routines at the end keep the
library's earlier, slower implementations: the stdlib JSON reader and
encoding, the per-entry matrix parse, the dense module certificate, the dense fixed
points, the elimination loop with one numpy call per step, the per-orbit
recognition and the dense norm rank.  ``ref_coset_module``,
``ref_block_sum`` and ``ref_tensor`` build permutation modules densely,
as the library did before it kept them as index vectors, and
``ref_densify`` writes a file object's index vectors back as the dense
generators that files held before.
"""

import hashlib
import itertools
import json

import numpy as np


def ref_reduce(rows, p):
    """Row-reduce a list of row lists mod p; returns (echelon rows, rank)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def ref_rank(rows, p):
    return ref_reduce(rows, p)[1]


def ref_matmul(a, b, p):
    """a b mod p, each row of the product summed from the rows of b that it weights."""
    k = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * k
        for c, b_row in zip(row, b):
            if c:
                acc = [x + c * y for x, y in zip(acc, b_row)]
        out.append([x % p for x in acc])
    return out


def ref_certify_lines(p, dims, diffs, aug=None, target_dim=0):
    """The ``d-squared`` and ``exact`` lines of a certificate, from a full
    product of each adjacent pair and a rank of each map on all its rows.

    ``dims`` are the term dims, ``diffs[j]`` the rows of d_(j+1) : C_(j+1) -> C_j
    and ``aug`` the rows of the augmentation onto a target of ``target_dim``.
    """

    def line(name, bad):
        return f"{name}: PASS" if bad is None else f"{name}: FAIL ({bad})"

    def nonzero(a, b):
        return any(any(row) for row in ref_matmul(a, b, p))

    top = len(dims) - 1
    bad = None
    for j in range(2, top + 1):
        if nonzero(diffs[j - 2], diffs[j - 1]):
            bad = f"d_{j - 1} o d_{j} != 0"
            break
    if bad is None and aug is not None and top >= 1 and nonzero(aug, diffs[0]):
        bad = "eps o d_1 != 0"
    lines = [line("d-squared", bad)]
    if aug is None:
        return lines + [line("exact", "no augmentation")]
    ranks = [ref_rank(aug, p)] + [ref_rank(d, p) for d in diffs] + [0]
    bad = None
    if target_dim - ranks[0]:
        bad = f"augmentation rank deficit {target_dim - ranks[0]}"
    else:
        for j in range(top + 1):
            h = dims[j] - ranks[j] - ranks[j + 1]
            if h:
                bad = f"dim H_{j} = {h}"
                break
    return lines + [line("exact", bad)]


def ref_mat_pow(a, e, p):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = ref_matmul(out, a, p)
    return out


def ref_span_dim(vectors, p):
    """Dimension of the span of a list of vectors over F_p."""
    return ref_rank(vectors, p)


def ref_permutation_vector(a):
    """sigma with a e_x = e_sigma[x] for a 0/1 matrix with one 1 per row and column, else None."""
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    if any(x not in (0, 1) for row in a for x in row):
        return None
    if any(sum(row) != 1 for row in a) or any(sum(col) != 1 for col in zip(*a)):
        return None
    return [[a[y][x] for y in range(n)].index(1) for x in range(n)]


def ref_action(mod):
    """The dense generators of a module (lists of rows), read from ``.action``:
    the oracle side of a test, whichever form the module keeps."""
    return [a.a.tolist() for a in mod.action]


def ref_non_permutation(action):
    """(generator index, offending row) of the first generator (a list of
    rows) that is no permutation matrix, or None.  The row is the first
    that is not one 1 among 0s; when every row is, the second row hitting
    the first column that is not one 1 among 0s (or row 0 if none hits it)."""
    for i, a in enumerate(action):
        if ref_permutation_vector(a) is not None:
            continue
        for y, row in enumerate(a):
            if sorted(row) != [0] * (len(row) - 1) + [1]:
                return i, y
        col = next(x for x in range(len(a)) if sum(row[x] for row in a) != 1)
        hits = [y for y, row in enumerate(a) if row[col]]
        return i, hits[1] if len(hits) > 1 else hits[0] if hits else 0
    return None


def ref_block_matrix(heights, widths, parts):
    """The row lists of the block matrix with parts[i, j] at block (i, j), zero elsewhere."""
    out = []
    for i, h in enumerate(heights):
        for r in range(h):
            row = []
            for j, w in enumerate(widths):
                row.extend(parts[i, j][r] if (i, j) in parts else [0] * w)
            out.append(row)
    return out


class RefFormatError(ValueError):
    """The format error of ``ref_load_obj``, with the library's text."""


def ref_load_obj(path):
    """A file read as the library read it with ``json.load``, before any list
    became an array."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise RefFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise RefFormatError("invalid JSON: nested too deeply") from exc


def ref_canonical_dumps(obj) -> str:
    """The canonical file text as the stdlib encoder writes it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def ref_unflat_error(p, rows, cols, entries, what):
    """The text of the format error for a flat matrix entry list, or None."""
    if not isinstance(entries, list):
        return f"{what}: expected a JSON list"
    if len(entries) != rows * cols:
        return f"{what}: expected {rows * cols} entries, got {len(entries)}"
    for x in entries:
        if type(x) is not int or not 0 <= x < p:
            return f"{what}: entry {x!r} is not a reduced residue mod {p}"
    return None


def ref_mat_pow_fast(a, e, p):
    """a^e mod p by binary powering, for exponents too large to step through."""
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    square = [list(row) for row in a]
    while e:
        if e & 1:
            out = ref_matmul(out, square, p)
        square = ref_matmul(square, square, p)
        e >>= 1
    return out


def ref_validate_module(action, p):
    """The module certificate on dense generator matrices (lists of rows)."""
    d = len(action[0]) if action else 0
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i, a in enumerate(action):
        if len(a) != d or any(len(row) != d for row in a):
            return f"generator {i + 1}: not a {d} x {d} matrix"
        if ref_mat_pow_fast(a, p, p) != eye:
            return f"generator {i + 1}: order does not divide p"
    for i, j in itertools.combinations(range(len(action)), 2):
        if ref_matmul(action[i], action[j], p) != ref_matmul(action[j], action[i], p):
            return f"commutativity i={i + 1} j={j + 1}"
    return None


def ref_check_module_map(f, source_action, target_action, p):
    """The intertwining check f A_s = A_t f on dense matrices (lists of rows)."""
    for i, (a_s, a_t) in enumerate(zip(source_action, target_action)):
        if ref_matmul(f, a_s, p) != ref_matmul(a_t, f, p):
            return f"map does not intertwine generator {i + 1}"
    return None


def ref_fixed_points(action, h_rows, p):
    """The canonical nullspace basis of the stacked A^x - I over the rows x of h_rows.

    ``action`` holds the dense generator matrices (lists of rows); the
    result is d x (number of free variables), one column per free
    variable in increasing order, that variable set to 1.
    """
    d = len(action[0]) if action else 0
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    system = []
    for x in h_rows:
        move = eye
        for a, e in zip(action, x):
            move = ref_matmul(move, ref_mat_pow(a, int(e), p), p)
        system.extend([(move[i][j] - eye[i][j]) % p for j in range(d)] for i in range(d))
    red, rank = ref_reduce(system, p)
    pivots = [next(c for c in range(d) if row[c]) for row in red[:rank]]
    free = [c for c in range(d) if c not in pivots]
    out = [[0] * len(free) for _ in range(d)]
    for j, f in enumerate(free):
        out[f][j] = 1
        for i, c in enumerate(pivots):
            out[c][j] = (-red[i][f]) % p
    return out


def ref_echelon(a, p, reduced):
    """Gaussian elimination as the library did it with one numpy call per step."""
    a = np.array(a, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        v = int(a[r, c])
        if v != 1:
            a[r, c:] = a[r, c:] * pow(v, -1, p) % p
        if reduced:
            col = a[:, c].copy()
            col[r] = 0
            targets = np.flatnonzero(col)
        else:
            targets = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if targets.size:
            a[targets, c:] = (a[targets, c:] - np.outer(a[targets, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def ref_recognize(action, p):
    """The tag of a permutation module, read one orbit at a time.

    ``action`` holds the dense generator matrices, all permutation
    matrices.  The orbits are visited in the order of their smallest
    points.  Returns (parts, basis_map): each part is the rref basis (a
    list of rows) of its orbit's stabilizer, and basis_map[k] is (part
    index, canonical coset representative) for basis point k.  Raises
    ValueError when an orbit's size is not the index of its stabilizer.
    """
    perms = [ref_permutation_vector(a) for a in action]
    r = len(perms)
    d = len(perms[0])
    elements = list(itertools.product(range(p), repeat=r))

    def move(v, k):
        for sigma, e in zip(perms, v):
            for _ in range(e):
                k = sigma[k]
        return k

    parts = []
    basis_map = [None] * d
    for start in range(d):
        if basis_map[start] is not None:
            continue
        translate = [move(v, start) for v in elements]
        rows, dim = ref_reduce([v for v, t in zip(elements, translate) if t == start], p)
        stab = rows[:dim]
        # the first element reaching each orbit point
        first = {}
        for v, t in zip(elements, translate):
            first.setdefault(t, v)
        if len(first) != p ** (r - dim):
            raise ValueError(f"orbit of {start} has size {len(first)}, expected {p ** (r - dim)}")
        for t, v in first.items():
            rep = list(v)
            for row in stab:
                f = rep[row.index(1)]
                rep = [(x - f * y) % p for x, y in zip(rep, row)]
            basis_map[t] = (len(parts), tuple(rep))
        parts.append(stab)
    return parts, tuple(basis_map)


def ref_free_rank(action, p):
    """The rank of the norm on dense generator matrices (lists of rows).

    The norm is the product over the generators of I + A + ... + A^(p-1).
    """
    d = len(action[0]) if action else 0
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    norm = eye
    for a in action:
        power = eye
        total = [[0] * d for _ in range(d)]
        for _ in range(p):
            total = [[(x + y) % p for x, y in zip(t, q)] for t, q in zip(total, power)]
            power = ref_matmul(power, a, p)
        norm = ref_matmul(norm, total, p)
    return ref_rank(norm, p)


def ref_coset_module(p, r, h_rows):
    """The dense generators of k(E/H), H spanned by ``h_rows``, E = (F_p)^r.

    The basis is the cosets' canonical representatives: the elements,
    in lexicographic order, that vanish on every pivot of H's reduced
    basis.  Generator i sends the coset of x to the coset of x + e_i.
    """
    red, dim = ref_reduce(h_rows, p) if h_rows else ([], 0)
    basis = red[:dim]
    pivots = [next(c for c in range(r) if row[c]) for row in basis]

    def canonical(x):
        for row, c in zip(basis, pivots):
            f = x[c]
            x = [(a - f * b) % p for a, b in zip(x, row)]
        return tuple(x)

    reps = [x for x in itertools.product(range(p), repeat=r) if not any(x[c] for c in pivots)]
    position = {x: k for k, x in enumerate(reps)}
    action = []
    for i in range(r):
        a = [[0] * len(reps) for _ in reps]
        for k, x in enumerate(reps):
            moved = canonical([(v + (1 if j == i else 0)) % p for j, v in enumerate(x)])
            a[position[moved]][k] = 1
        action.append(a)
    return action


def ref_block_sum(actions):
    """The block-diagonal sum of modules given as lists of dense generators."""
    dims = [len(action[0]) for action in actions]
    total = sum(dims)
    out = []
    for i in range(len(actions[0])):
        a = [[0] * total for _ in range(total)]
        offset = 0
        for action, d in zip(actions, dims):
            for y in range(d):
                a[offset + y][offset : offset + d] = action[i][y]
            offset += d
        out.append(a)
    return out


def ref_tensor(action_m, action_n, p):
    """The diagonal action on M (x) N: the Kronecker product of each generator pair."""
    return [
        [[x * y % p for x in row_a for y in row_b] for row_a in a for row_b in b]
        for a, b in zip(action_m, action_n)
    ]


def _dense_body(body):
    """A module body with its ``perms`` written as dense ``generators``:
    generator i has a 1 in row sigma[x] of column x, flattened row-major."""
    if not isinstance(body, dict) or "perms" not in body:
        return body
    out = {k: v for k, v in body.items() if k != "perms"}
    d = body["dim"]
    gens = []
    for sigma in body["perms"]:
        flat = [0] * (d * d)
        for x, y in enumerate(sigma):
            flat[int(y) * d + x] = 1
        gens.append(flat)
    out["generators"] = gens
    return out


def ref_densify(obj):
    """A module or complex object in the dense form that files had before
    index vectors: every ``perms`` body becomes ``generators``.  A complex's
    ``meta.digest`` is recomputed, with the stdlib encoder, over the dense
    payload, so the result is the file an earlier writer made."""
    if "terms" not in obj:
        return _dense_body(obj)
    out = dict(obj, terms=[_dense_body(t) for t in obj["terms"]])
    if isinstance(obj.get("augmentation"), dict):
        aug = obj["augmentation"]
        out["augmentation"] = dict(aug, target=_dense_body(aug.get("target")))
    if isinstance(obj.get("meta"), dict) and "digest" in obj["meta"]:
        payload = {k: v for k, v in out.items() if k != "meta"}
        digest = hashlib.sha256(ref_canonical_dumps(payload).encode()).hexdigest()
        out["meta"] = dict(obj["meta"], digest=digest)
    return out


def ref_lift(p, f, q_maps, q_actions, pc_maps, pc_actions):
    """The chain-map lift of f through q and pc, each part from its whole system.

    ``q_maps[j]`` is d_j of the source (d_0 its augmentation) as an int
    array, ``q_actions[j]`` the dense generators of its term j, and
    likewise for the target pc.  At a degree j <= top of pc, a part over H
    of the source term (read by ``ref_recognize``) sends its coset H to
    F y: F holds the indicators of the H-orbits on the target term's
    basis, ordered by their largest points, and y is the canonical
    solution (free variables 0) of [d_j F | b] in ``ref_echelon``'s reduced
    form, every row kept.  Its other cosets g H go to A^g F y.  Returns
    (components, None), or (components below, message) at the first
    degree without a lift, worded as ``lift_chain_map`` words it.
    """

    def moved(perms, x):
        # the permutation of the basis that the element x makes
        s = np.arange(len(perms[0]) if perms else 0)
        for sigma, e in zip(perms, x):
            for _ in range(int(e)):
                s = sigma[s]
        return s

    components = []
    prev = np.array(f, dtype=np.int64)
    top = len(pc_maps) - 1
    for j, dq in enumerate(q_maps):
        rhs = prev @ np.array(dq, dtype=np.int64) % p
        if j > top:
            if rhs.any():
                return components, f"automatic vanishing fails at degree {j}"
            prev = np.zeros((0, rhs.shape[1]), dtype=np.int64)
            continue
        d = np.array(pc_maps[j], dtype=np.int64)
        tau = [np.array(ref_permutation_vector(a), dtype=np.intp) for a in pc_actions[j]]
        parts, basis_map = ref_recognize(q_actions[j], p)
        x = np.zeros((d.shape[1], len(basis_map)), dtype=np.int64)
        for k, stab in enumerate(parts):
            gens = [moved(tau, row) for row in stab]
            largest = np.arange(d.shape[1])
            while True:
                grown = largest
                for g in gens:
                    grown = np.maximum(grown, grown[g])
                if np.array_equal(grown, largest):
                    break
                largest = grown
            tops = sorted(set(largest.tolist()))
            fix = np.zeros((d.shape[1], len(tops)), dtype=np.int64)
            fix[np.arange(d.shape[1]), [tops.index(t) for t in largest.tolist()]] = 1
            base = basis_map.index((k, (0,) * len(q_actions[j])))
            a = d @ fix % p
            red, pivots = ref_echelon(np.hstack([a, rhs[:, base : base + 1]]), p, True)
            if pivots and pivots[-1] >= a.shape[1]:
                return components, f"no lift exists at degree {j}"
            y = np.zeros(a.shape[1], dtype=np.int64)
            y[pivots] = red[: len(pivots), a.shape[1]]
            v = fix @ y % p
            for t, (part, rep) in enumerate(basis_map):
                if part == k:
                    x[moved(tau, rep), t] = v
        components.append(x)
        prev = x
    return components, None
