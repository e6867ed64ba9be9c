"""Checks on the library source itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "permres"
# the package root re-exports names it never uses itself
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"unused imports: {unused}"


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in tomllib.load(fh)["project"]["dependencies"]
        }
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "permres"}
    assert third_party, "expected numpy at least"
    missing = sorted(third_party - declared)
    assert not missing, f"imported but not in pyproject.toml dependencies: {missing}"


def _references(tree, name):
    """The qualified name of the def or class around each use of ``name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(scope)
            visit(child, inner)

    visit(tree, "")
    return found


# One scan, when a module is made from matrices, decides whether they are all
# permutations; one place names the first that is not; and a permutation
# module makes a generator's matrix in one place, afresh for each read; a
# second copy of any of them must fail here.  One orbit
# walk, ``element_images``, reads the fixed points, the orbit columns, the
# stabilizers and the free rank of a permutation module, so a generator is
# raised to a power only where ``validate_module`` checks its order, and the
# dense norm is formed only off permutation modules and where ``strip_free``
# needs its columns.  A complex's tags are descriptors, composed without
# recognition; a term is recognized only to tag a complex on request, where a
# lift or ``trim`` reads its basis, and in the certificate.  A complex's terms
# are recognized in one ``recognize_all`` walk; ``recognize`` is its
# one-module case, called alone by ``trim``.  The lift and the certificate
# draw their bases from one helper, ``_bases``, which falls back to
# ``recognize`` term by term where some term has no basis.  Coset
# representatives are built as tuples only for coset modules and realized
# bases; a recognized basis is the orbit walk's index arrays.  One dispatch,
# ``_echelon``, picks the per-pivot loop or the pivot rounds for every
# elimination, the reduced forms, ``solve_pivots`` and ``rank_profile``;
# ``rank`` reads ``rank_profile``, which the certificate's one pass up a
# complex calls on each map, and that pass serves both ``d-squared`` and
# ``exact``.  Every lift out of a permutation module is one
# ``solve_equivariant``, the only reader of ``fixed_points``, on the rows its
# caller gives; ``lift_chain_map`` picks one degree's rows for every part by
# the rank pass's rule, so no second row rule reads the fixed points.
@pytest.mark.parametrize(
    "name, home, owners",
    [
        pytest.param(
            "permutation_vector",
            "linalg.py",
            [("modules.py", "Module.__init__")],
            id="permutation_vector-Module.__init__",
        ),
        pytest.param(
            "first_non_permutation_row",
            "linalg.py",
            [("modules.py", "Module.require_perms")],
            id="first_non_permutation_row-Module.require_perms",
        ),
        pytest.param(
            "permutation_matrix",
            "linalg.py",
            [("modules.py", "Module.generator")],
            id="permutation_matrix-Module.generator",
        ),
        pytest.param(
            "element_images",
            "modules.py",
            [
                ("modules.py", "fixed_points"),
                ("modules.py", "orbit_columns"),
                ("modules.py", "free_rank"),
                ("permutation.py", "recognize_all"),
            ],
            id="element_images-fixed_points-orbit_columns-free_rank-recognize_all",
        ),
        pytest.param(
            "_perm_pow",
            "modules.py",
            [("modules.py", "validate_module")],
            id="_perm_pow-validate_module",
        ),
        pytest.param(
            "norm_matrix",
            "modules.py",
            [("modules.py", "free_rank"), ("modules.py", "strip_free")],
            id="norm_matrix-free_rank-strip_free",
        ),
        pytest.param(
            "recognize_all",
            "permutation.py",
            [
                ("complexes.py", "tag_complex"),
                ("complexes.py", "_bases"),
                ("permutation.py", "recognize"),
            ],
            id="recognize_all-tag_complex-_bases-recognize",
        ),
        pytest.param(
            "recognize",
            "permutation.py",
            [("complexes.py", "_bases"), ("resolution.py", "trim")],
            id="recognize-_bases-trim",
        ),
        pytest.param(
            "_bases",
            "complexes.py",
            [("complexes.py", "lift_chain_map"), ("complexes.py", "check_tags")],
            id="_bases-lift_chain_map-check_tags",
        ),
        pytest.param(
            "coset_reps",
            "groups.py",
            [("groups.py", "Subgroup.translations"), ("permutation.py", "realize")],
            id="coset_reps-translations-realize",
        ),
        pytest.param(
            "tag_complex",
            "complexes.py",
            [("cli.py", "cmd_trim")],
            id="tag_complex-cmd_trim",
        ),
        pytest.param(
            "_echelon",
            "linalg.py",
            [
                ("linalg.py", "rref"),
                ("linalg.py", "rank_profile"),
                ("linalg.py", "row_space"),
                ("linalg.py", "nullspace"),
                ("linalg.py", "solve_pivots"),
            ],
            id="_echelon-rref-rank_profile-row_space-nullspace-solve_pivots",
        ),
        pytest.param(
            "_pivot_loop",
            "linalg.py",
            [("linalg.py", "_echelon")],
            id="_pivot_loop-_echelon",
        ),
        pytest.param(
            "_pivot_rounds",
            "linalg.py",
            [("linalg.py", "_echelon")],
            id="_pivot_rounds-_echelon",
        ),
        pytest.param(
            "rank_profile",
            "linalg.py",
            [("complexes.py", "_rank_pass"), ("linalg.py", "rank")],
            id="rank_profile-_rank_pass-rank",
        ),
        pytest.param(
            "fixed_points",
            "modules.py",
            [("permutation.py", "solve_equivariant")],
            id="fixed_points-solve_equivariant",
        ),
        pytest.param(
            "solve_equivariant",
            "permutation.py",
            [("complexes.py", "lift_chain_map"), ("resolution.py", "rotate")],
            id="solve_equivariant-lift_chain_map-rotate",
        ),
        pytest.param(
            "_rank_pass",
            "complexes.py",
            [("complexes.py", "_homology"), ("complexes.py", "certify_resolution")],
            id="_rank_pass-_homology-certify_resolution",
        ),
    ],
)
def test_one_use_site(name, home, owners):
    sites = []
    homes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites.extend((path.name, scope) for scope in _references(tree, name))
        homes.extend(
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name
        )
    assert sites == owners
    assert homes == [home]


# A module keeps matrices only when some generator is no permutation, and only
# ``modules.py`` reads them; everything else reads ``perms``, ``action`` or
# ``generator``, so the stored form stays the constructors' decision.
def test_stored_matrices_are_read_only_in_modules():
    paths = sorted(SRC.glob("*.py"))
    sites = [path.name for path in paths if _references(ast.parse(path.read_text()), "_matrices")]
    assert sites == ["modules.py"]


# A file holds a permutation module as index vectors: the writer makes a
# dense generator only in ``_module_body``, for a module that is not one, and
# the reader builds a module of vectors only in ``_module_body_from_obj``,
# through the permutation proof of ``Module.from_perms``.
def test_io_builds_vectors_and_generators_in_one_place():
    tree = ast.parse((SRC / "io.py").read_text())
    assert _references(tree, "from_perms") == ["_module_body_from_obj"]
    assert _references(tree, "generator") == ["_module_body"]


# One broadcast helper, ``linalg.kron``, forms every Kronecker product.
def test_no_numpy_kron():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kron":
                if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                    sites.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                if any(a.name == "kron" for a in node.names):
                    sites.append((path.name, node.lineno))
    assert not sites, f"np.kron outside linalg.kron: {sites}"


# The dense block layout stays behind ``linalg``: complexes assemble their
# maps with ``block_matrix`` and form Kronecker blocks with ``Mat.kron``, so a
# sparse map type changes ``linalg`` alone.
@pytest.mark.parametrize("name", ["complexes.py", "resolution.py"])
def test_builders_import_no_numpy_and_no_raw_kron(name):
    sites = []
    for node in ast.walk(ast.parse((SRC / name).read_text())):
        if isinstance(node, ast.Import):
            sites.extend(a.name for a in node.names if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "numpy":
                sites.append(node.module)
            elif node.module.split(".")[-1] == "linalg":
                sites.extend(f"linalg.{a.name}" for a in node.names if a.name == "kron")
        elif isinstance(node, ast.Attribute) and node.attr == "kron":
            if isinstance(node.value, ast.Name) and node.value.id == "linalg":
                sites.append("linalg.kron")
    assert not sites, f"{name}: {sites}"


# One reader, ``io.load_obj``, parses every file; a second JSON parse in the
# library, or a second call in ``io.py``, must fail here.
def test_one_json_reader():
    readers = {("json", "load"), ("json", "loads"), ("orjson", "loads")}
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in readers:
                    sites.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module in ("json", "orjson"):
                if any((node.module, a.name) in readers for a in node.names):
                    sites.append((path.name, node.lineno))
    assert [name for name, _ in sites] == ["io.py"], f"JSON readers: {sites}"


# A result depends only on the call's inputs: no function rebinds a module
# global, and no module keeps a list, dict or set that calls could fill.
# Memos are ``functools.lru_cache`` on pure functions, and the caps live in
# the ``config.limits`` context variable.  Objects configured once at import,
# such as ``io._DECODER``, are not containers and stay allowed.
MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_level(tree):
    """The statements run at import, outside every def and class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            todo.extend(getattr(node, field, []))


def _is_mutable(value):
    return isinstance(value, MUTABLE_DISPLAYS) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("list", "dict", "set")
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_global_mutable_state(path):
    tree = ast.parse(path.read_text())
    sites = [
        ("global", node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Global)
    ]
    for node in _module_level(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if node.value is not None and _is_mutable(node.value):
                sites.append(("mutable container", node.lineno))
    assert not sites, f"{path.name}: {sites}"
