"""Every top-level def and class in src/geoshapley has a use in src/
besides the package's export table: code that only tests reach belongs in
tests/."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "geoshapley")

# The public, demoed view of disk._sweeps' bases, which test_disk reads.
ALLOWED = {"enumerate_bases"}


def test_every_top_level_name_has_a_use():
    defined, used = [], set()
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            tree = ast.parse(fh.read())
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
                used.add(node.value)  # the dispatch tables name solvers as strings
    unused = [f"{module}: {name}" for module, name in defined if name not in used | ALLOWED]
    assert not unused, "top-level names with no use in src/: " + ", ".join(unused)
