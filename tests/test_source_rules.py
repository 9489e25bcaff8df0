"""Dead-code rules for src/gowersff, read from the source files with ast.

Three rules, each reported with the ``path:line`` of the offending name:

* Every name an import binds in a src module (but ``__init__.py``, whose
  star imports re-export) is read as a name, the base of an attribute
  included, or listed in the module's ``__all__``.  Limit: a local
  variable that shadows an unused import counts as a use, and is not caught.
* Every private definition, a module-level ``_name`` (function, class or
  assignment; not a dunder) or a ``_method`` of a module-level class, is
  read in some src module as a name, an attribute or the name a
  from-import takes.  Limit: a name read only through a getattr string
  counts as dead, and one read only in its own body (a recursion) counts
  as read.
* Every name in a src module's ``__all__`` is read so in src or demos/,
  or is on ``KEEP``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept without a reader in src or demos/, each with its reason.
KEEP = {
    "u1": "perfbench's norms.u1 span target",
    "gowers_norm": "the acceptance API",
    "phase_correlation": "the acceptance API",
    "fourier_trace": "the oracle for U_3's Fourier invariance",
    "poly_eval": "the oracle for poly_eval_all",
    "BASELINE_COLUMNS": "the baseline CSV header that README documents",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def loads(trees) -> set[str]:
    """Every name the trees read: Name and Attribute loads, and from-import names."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def module_all(tree) -> tuple[int, list[str]]:
    """The line and names of a module's ``__all__``; (0, []) without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return node.lineno, ast.literal_eval(node.value)
    return 0, []


def unread_privates(trees) -> list[str]:
    reads = loads(trees.values())
    unused = []
    for path, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (*FUNCTIONS, ast.ClassDef)):
                names = [(top.lineno, top.name)]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [(top.lineno, n.id) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            if isinstance(top, ast.ClassDef):
                names += [(n.lineno, n.name) for n in top.body if isinstance(n, FUNCTIONS)]
            for lineno, name in names:
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder and name not in reads:
                    unused.append(f"{path}:{lineno}: {name} is defined and never read")
    return unused


def unused_imports(trees) -> list[str]:
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(module_all(tree)[1])
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in used:
                        unused.append(f"{path}:{node.lineno}: {name} is imported and never used")
    return unused


def unread_publics(trees, demos) -> list[str]:
    reads = loads(trees.values()) | loads(demos) | KEEP.keys()
    unused = []
    for path, tree in trees.items():
        lineno, names = module_all(tree)
        unused += [f"{path}:{lineno}: {name} is public and never read"
                   for name in names if name not in reads]
    return unused


def source_faults(root: Path = ROOT) -> list[str]:
    """What the three rules find in root/src/gowersff, with root/demos as public readers."""
    trees = {path.relative_to(root): ast.parse(path.read_text())
             for path in sorted((root / "src" / "gowersff").glob("*.py"))}
    demos = [ast.parse(path.read_text()) for path in sorted((root / "demos").glob("*.py"))]
    return unread_privates(trees) + unused_imports(trees) + unread_publics(trees, demos)


def test_src_has_no_unused_import_or_unread_name():
    assert source_faults() == []


def test_each_rule_catches_its_fault(tmp_path):
    package = tmp_path / "src" / "gowersff"
    package.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    (package / "__init__.py").write_text("from .mod import *\n")
    (package / "mod.py").write_text(
        "import os\n"
        "import sys\n"
        "__all__ = ['used', 'orphan', 'u1']\n"
        "def used():\n"
        "    return sys.argv\n"
        "def orphan():\n"
        "    return _helper()\n"
        "def _helper():\n"
        "    return 1\n"
        "def _dead():\n"
        "    return 2\n"
        "def u1():\n"
        "    return 3\n")
    (tmp_path / "demos" / "demo.py").write_text("from gowersff import used\nused()\n")
    path = Path("src", "gowersff", "mod.py")
    assert source_faults(tmp_path) == [
        f"{path}:10: _dead is defined and never read",
        f"{path}:1: os is imported and never used",
        f"{path}:3: orphan is public and never read",
    ]
