"""Guard against regrowth: every definition in src/lpconv, and every defaulted
parameter of one, has a caller that is not a test.

The callers that justify a definition are the package itself, the scripts and
the benchmark. A top-level function or class counts as reached when its name
is read in them outside its own body; a method counts when an attribute of
that name is read. Attributes of imported modules (np.abs, math.inf) do not
count, nor do reads inside definitions that are themselves unreached, so a
dead chain is found whole. A method whose name several package classes
define is skipped: a name alone cannot tell which of them a read reaches.

A defaulted parameter counts as reached when some call in the same callers,
to a function or attribute of its definition's name, passes it by keyword or
by position (or passes *args or **kwargs that could hold it). A call through
a variable reaches no parameter, so a default only tests override is found.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lpconv"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "benchmark")
ALLOWED = {("_Parser", "error")}  # argparse calls the parser's error() itself
ALLOWED_DEFAULTS = {("main", "argv")}  # cli.main's argv is the tests' way in


def _definitions():
    """(path, class name or None, name, node) of every top-level function and
    class and every method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, None, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, node.name, item.name, item


def _reads():
    """(path, line, kind, name) of every name and attribute read by a caller."""
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            modules = {alias.asname or alias.name.split(".")[0]
                       for node in ast.walk(tree) if isinstance(node, ast.Import)
                       for alias in node.names}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    yield path, node.lineno, "name", node.id
                elif isinstance(node, ast.Attribute) and not (
                        isinstance(node.value, ast.Name) and node.value.id in modules):
                    yield path, node.lineno, "attr", node.attr


def _body(definition):
    path, _, _, node = definition
    return path, range(node.lineno, node.end_lineno + 1)


def _unreached() -> list[str]:
    reads = list(_reads())
    definitions = list(_definitions())
    method_names = Counter(name for _, cls, name, _ in definitions if cls is not None)
    checked = [d for d in definitions
               if not (d[2].startswith("__") and d[2].endswith("__"))
               and (d[1], d[2]) not in ALLOWED
               and (d[1] is None or method_names[d[2]] == 1)]
    dead: list = []
    while True:
        dead_bodies = [_body(d) for d in dead]
        live = [r for r in reads
                if not any(r[0] == path and r[1] in lines for path, lines in dead_bodies)]
        found = [d for d in checked if not _is_read(d, live)]
        if found == dead:
            return [f"{path.name}: {cls + '.' if cls else ''}{name}"
                    for path, cls, name, _ in dead]
        dead = found


def _is_read(definition, reads) -> bool:
    _, cls, name, _ = definition
    kinds = ("attr",) if cls is not None else ("name", "attr")
    path, lines = _body(definition)
    return any(n == name and k in kinds and not (p == path and line in lines)
               for p, line, k, n in reads)


def test_every_definition_has_a_caller_outside_the_tests():
    unreached = _unreached()
    assert not unreached, "only tests reach:\n" + "\n".join(unreached)


def _calls():
    """(name, positional count, keywords, takes any) of every call by a caller:
    the called function's or attribute's name, how many arguments it passes
    by position and which by keyword, and whether *args or **kwargs passes an
    unknown set."""
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                yield name, len(node.args), keywords, starred or None in keywords


def _unpassed_defaults() -> list[str]:
    calls = [c for c in _calls() if c[0] is not None]
    unpassed = []
    for path, cls, name, node in _definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a method's first parameter is bound, not passed (the package has no
        # static methods)
        offset = 1 if cls is not None else 0
        defaulted = [(i - offset, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for index, arg in defaulted:
            if (name, arg) in ALLOWED_DEFAULTS:
                continue
            if not any(n == name and (anything or arg in keywords
                                      or (index is not None and index < count))
                       for n, count, keywords, anything in calls):
                unpassed.append(f"{path.name}: {cls + '.' if cls else ''}{name}({arg}=)")
    return unpassed


def test_every_default_is_overridden_outside_the_tests():
    unpassed = _unpassed_defaults()
    assert not unpassed, "only tests pass:\n" + "\n".join(unpassed)
