"""Every module-level import in the package is used by its module, and the
word references in ``tests/brute.py`` share no code with the kernels.

An AST scan stands in for a linter: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module.
``__init__.py`` is skipped, since its imports are re-exports, and so are
``from __future__`` imports.  A second scan follows the word references
through the functions of ``brute.py`` they call and requires that none of
them names ``kernels``: a fault in a kernel must not pass a cross-check by
breaking the reference too.  The same scan requires that the flag-path
reference names none of the library's connecting-path, anchor, bridge and
chain searches, nor the memo of between-set components they use, each of
which the library still defines; that the
basepoint reference names neither the library's flag paths, order, ranks
nor flag enumeration; and that the niceness, simple-connectivity and
open-pair references name none of the library's searches and do their own
BFS, flood fills and order.

A third scan keeps hand-made graphs on ``ColoredSpace.from_graph``: no test
module writes a space's ``_level`` or ``_adj`` apart from
``tests/test_oracle.py``, whose fault injections edit a space on purpose.

A fourth keeps the internal word paths on keys: ``kernels.py`` and
``flags.py`` read no attribute named ``letters``, and ``words.py`` reads it
only inside the class ``Word``, which derives its letters from its key.
``flags.py`` looks a letter up in ``_LETTERS`` only in ``realize_type``,
whose inserts record one; its step helpers take ``(lo, hi)`` keys.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudospace"
TESTS = Path(__file__).resolve().parent
BRUTE = TESTS / "brute.py"
WORD_REFERENCES = (
    "restart_reduce",
    "exhaustive_reducts",
    "brute_divisors",
    "bubble_normal_form",
    "swap_closure",
    "brute_prec",
    "absorbing_positions",
    "brute_final_segment",
)
FLAG_PATH_SEARCHES = (
    "_reduced_path",
    "_connecting_path",
    "_anchors",
    "_anchor_part",
    "_subletter_bridge",
    "shortest_path",
    "_monotone_chain",
    "_part",
)
BASEPOINT_SEARCHES = (
    "flag_path",
    "_reduced_path",
    "prec",
    "_prec",
    "ord_rank",
    "_rank",
    "enumerate_flags",
)
SPACE_REFERENCES = ("brute_nice_witness", "brute_simply_connected_witness", "brute_open_pairs")
GRAPH_FIELDS = ("_level", "_adj")
MUTATORS = ("add", "clear", "discard", "pop", "remove", "setdefault", "update")
SPACE_SEARCHES = (
    "distances_from",
    "_shortcut",
    "_component",
    "_part",
    "_closure",
    "_reach",
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport json as j\nprint(sep)\n"
    assert _unused_imports(source) == ["path", "j"]


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _names_reached(source: str, roots) -> set[str]:
    """Every name read, attribute taken or import bound in the module-level
    functions ``roots`` and, transitively, in the functions of the same
    module that they name."""
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo, done, names = list(roots), set(), set()
    while todo:
        name = todo.pop()
        if name in done:
            continue
        done.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.asname or node.name).split("."))
        todo += [n for n in names & functions.keys() if n not in done]
    return names


def test_scan_follows_calls_to_a_kernel():
    source = (
        "def f():\n    return g()\n"
        "def g():\n    from pseudospace import kernels\n    return kernels.normal_form(())\n"
        "def h():\n    return 1\n"
    )
    assert "kernels" in _names_reached(source, ["f"])
    assert "kernels" not in _names_reached(source, ["h"])


def test_word_references_name_no_kernel():
    names = _names_reached(BRUTE.read_text(), WORD_REFERENCES)
    assert "_absorption_pair" in names
    assert "kernels" not in names


def _defined(path: Path) -> set[str]:
    """The names of the functions and methods a module defines."""
    return {n.name for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.FunctionDef)}


def test_flag_path_reference_names_no_library_search():
    names = _names_reached(BRUTE.read_text(), ["restart_flag_path"])
    assert {"brute_between", "dfs_closure", "_plain_connecting_path"} <= names
    assert [n for n in FLAG_PATH_SEARCHES if n in names] == []
    library = _defined(PACKAGE / "flags.py") | _defined(PACKAGE / "space.py")
    assert [n for n in FLAG_PATH_SEARCHES if n not in library] == []


def test_basepoint_reference_names_no_library_search():
    names = _names_reached(BRUTE.read_text(), ["brute_basepoint"])
    assert {"restart_flag_path", "brute_prec", "_region_flags"} <= names
    assert [n for n in BASEPOINT_SEARCHES if n in names] == []


def test_space_references_name_no_library_search():
    names = _names_reached(BRUTE.read_text(), SPACE_REFERENCES)
    assert {"bfs_distance", "flood", "monotone_order"} <= names
    assert [n for n in SPACE_SEARCHES if n in names] == []


def _graph_writes(source: str) -> list[int]:
    """The lines that write an attribute named in ``GRAPH_FIELDS``: assign
    to it or to a subscript of it (also by unpacking, augmented assignment
    or ``del``), or call one of ``MUTATORS`` on it or on a subscript of it."""
    written = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            written += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written.append(node.target)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS:
                written.append(node.func.value)
    lines = []
    while written:
        target = written.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            written += target.elts
            continue
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in GRAPH_FIELDS:
            lines.append(target.lineno)
    return sorted(lines)


def test_scan_finds_graph_writes():
    source = (
        "sp._level = {0: 0}\n"
        "sp._adj[0] = set()\n"
        "a, sp._level[1] = 1, 0\n"
        "sp._adj[0].add(1)\n"
        "sp._adj[v] |= {w}\n"
        "del sp._level[1]\n"
        "sp._adj.clear()\n"
        "levels = dict(sp._level)\n"
        "edges = sp._adj[0].copy()\n"
        "sp._parts = {}\n"
    )
    assert _graph_writes(source) == [1, 2, 3, 4, 5, 6, 7]


def test_tests_make_hand_made_graphs_with_from_graph():
    modules = sorted(p for p in TESTS.glob("*.py") if p.name != "test_oracle.py")
    assert BRUTE in modules and Path(__file__).resolve() in modules
    writes = {p.name: _graph_writes(p.read_text()) for p in modules}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def _letter_reads(source: str, inside: str | None = None) -> list[int]:
    """The lines that take an attribute named ``letters``, outside the
    module-level class ``inside`` when given."""
    tree = ast.parse(source)
    skipped = {
        id(node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == inside
        for node in ast.walk(cls)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "letters" and id(node) not in skipped
    )


def test_scan_finds_letter_reads():
    source = (
        "from .letters import Letter\n"
        "class Word:\n    def f(self):\n        return self.letters\n"
        "def g(u):\n    return u.letters[0]\n"
        "def h(u):\n    return u.key\n"
    )
    assert _letter_reads(source) == [4, 6]
    assert _letter_reads(source, inside="Word") == [6]


def test_internal_word_paths_read_keys():
    assert _letter_reads((PACKAGE / "kernels.py").read_text()) == []
    assert _letter_reads((PACKAGE / "flags.py").read_text()) == []
    assert _letter_reads((PACKAGE / "words.py").read_text(), inside="Word") == []


def _table_lookups(source: str, inside: str) -> list[int]:
    """The lines that subscript the name ``_LETTERS`` outside the
    module-level function ``inside``."""
    tree = ast.parse(source)
    skipped = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == inside
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_LETTERS"
        and id(node) not in skipped
    )


def test_scan_finds_table_lookups():
    source = (
        "from .letters import _LETTERS\n"
        "def realize_type(key):\n    return _LETTERS[key]\n"
        "def step(keys, i):\n    return _LETTERS[keys[i]]\n"
        "def other(lo, hi):\n    return (_LETTERS, lo, hi)\n"
    )
    assert _table_lookups(source, inside="realize_type") == [5]


def test_flag_steps_run_on_keys():
    assert _table_lookups((PACKAGE / "flags.py").read_text(), inside="realize_type") == []
