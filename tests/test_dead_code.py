"""Every top-level def and class in src/geoshapley has a use in src/
besides the package's export table: code that only tests reach belongs in
tests/.  And the game table is the only list of the games in src/."""

import ast
import os

from geoshapley.games import GAME_KINDS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "geoshapley")

# The public, demoed view of disk._bases, which test_disk reads.
ALLOWED = {"enumerate_bases"}


# The game table and eval_characteristic; the oracle's reference formulas.
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
