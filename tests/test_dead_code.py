"""Every top-level def and class in src/geoshapley has a use in src/
besides the package's export table: code that only tests reach belongs in
tests/.  Every import is used.  The game table is the only list of the
games in src/, and each of its columns is read."""

import ast
import os

from geoshapley.games import GAME_KINDS, Game

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "geoshapley")

# The public, demoed view of disk._bases, which test_disk reads.
ALLOWED = {"enumerate_bases"}


# The game table and eval_characteristic; the oracle, whose table builder
# picks a family of coalition tables by game.
LISTS_GAMES = {"games.py", "oracle.py"}


def _modules():
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            yield module, ast.parse(fh.read())


def test_every_top_level_name_has_a_use():
    defined, used = [], set()
    for module, tree in _modules():
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")  # module hooks such as __getattr__
        ]
        if module == "__init__.py":
            continue  # its export table names every public name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # the game table names solvers as strings
    unused = [f"{module}: {name}" for module, name in defined if name not in used | ALLOWED]
    assert not unused, "top-level names with no use in src/: " + ", ".join(unused)


def test_every_import_is_used():
    """Every name a module of src/geoshapley imports, at the top or inside
    a function, is used in that module; __init__.py, whose imports are its
    exports, and __future__ imports are exempt."""
    unused = []
    for module, tree in _modules():
        if module == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, "imports with no use: " + ", ".join(sorted(unused))


def test_games_listed_only_in_the_table():
    """No tuple, list, set or dict display outside LISTS_GAMES holds two or
    more game names: every other list of the games is read from
    games.GAMES."""
    lists = []
    for module, tree in _modules():
        if module in LISTS_GAMES:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = [*node.keys, *node.values]
            else:
                continue
            names = [e.value for e in items if isinstance(e, ast.Constant) and e.value in GAME_KINDS]
            if len(names) >= 2:
                lists.append(f"{module}:{node.lineno} {names}")
    assert not lists, "lists of games outside the game table: " + "; ".join(lists)


def _strings(node):
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _is_row(node, rows):
    """GAMES[...] (or games.GAMES[...]), or a name assigned one."""
    if isinstance(node, ast.Subscript):
        table = node.value
        return getattr(table, "id", None) == "GAMES" or getattr(table, "attr", None) == "GAMES"
    return isinstance(node, ast.Name) and node.id in rows


def test_every_game_column_is_read():
    """Each field of games.Game is read from a row of games.GAMES in src/:
    as row.field, where row is GAMES[...] or a name assigned it, or as
    getattr(row, name) with the field a string constant in name or in what
    a loop over name iterates (dispatch picks the solver columns so).  A
    column that nobody reads is a knob that does nothing."""
    read = set()
    for _, tree in _modules():
        nodes = list(ast.walk(tree))
        rows = {
            t.id
            for node in nodes
            if isinstance(node, ast.Assign) and _is_row(node.value, ())
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        loops = {}  # loop variable -> the strings its loop iterates
        for node in nodes:
            if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
                loops.setdefault(node.target.id, set()).update(_strings(node.iter))
        for node in nodes:
            if isinstance(node, ast.Attribute) and _is_row(node.value, rows):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and _is_row(node.args[0], rows)
            ):
                name = node.args[1]
                read |= _strings(name)
                for n in ast.walk(name):
                    if isinstance(n, ast.Name):
                        read |= loops.get(n.id, set())
    unread = [field for field in Game._fields if field not in read]
    assert not unread, "game table columns that nothing reads: " + ", ".join(unread)


def test_convolutions_only_in_algebra():
    """np.fft and np.convolve appear only in algebra.py, so every
    convolution goes through algebra.convolve."""
    calls = []
    for module, tree in _modules():
        if module == "algebra.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("fft", "convolve")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                calls.append(f"{module}:{node.lineno} np.{node.attr}")
    assert not calls, "convolutions outside algebra.py: " + ", ".join(calls)
