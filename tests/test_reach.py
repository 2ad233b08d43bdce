"""The library holds what the `nomhol` command can run, and nothing else.

A name-level scan of `src/nomhol/*.py`: it starts from every definition in
`cli.py` and from every module-level statement of every module, and
follows each identifier (a `Name` or an `Attribute`) to the top-level
definitions of that name in any module.  A method counts as reached when
its class is, and either its name is used so or it is a dunder method,
which Python calls itself.  Names are matched without their modules, so
the scan may count a definition as reached when only a namesake is; it
never misses one that is reached.  What the tests alone need goes in
`tests/spec.py` or `tests/oracles.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nomhol"

NEVER_RUN = {
    # the fixture API: tests load the bundled corpus through it
    "corpus._load", "corpus._RESTRICTED", "corpus.eta_axiom",
    "corpus.beta_axioms", "corpus.alpha_pair",
    "corpus.restricted_derivations", "corpus.full_only_derivation",
    "__init__.__version__",
}


def _definitions():
    """(definitions, roots, statements): each definition's qualified name
    with the nodes walked once it is reached, the names reached from the
    start, and the module-level code run at import."""
    defs, roots, stmts = {}, set(), []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                name = f"{mod}.{stmt.name}"
                if isinstance(stmt, ast.FunctionDef):
                    defs[name] = [stmt]
                else:
                    defs[name] = [*stmt.decorator_list, *stmt.bases]
                    for s in stmt.body:
                        if isinstance(s, ast.FunctionDef):
                            defs[f"{name}.{s.name}"] = [s]
                        else:
                            defs[name].append(s)
                if mod == "cli":
                    roots.add(name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    for target in targets:
                        for n in ast.walk(target):
                            if isinstance(n, ast.Name):
                                defs.setdefault(f"{mod}.{n.id}", [])
                    stmt = stmt.value
                stmts.append(stmt)
    return defs, roots, stmts


def _identifiers(nodes) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached() -> set:
    defs, roots, stmts = _definitions()
    used = _identifiers(stmts)
    reached: set = set()
    while True:
        new = set()
        for name in defs.keys() - reached:
            mod, *owner, leaf = name.split(".")
            if owner:
                ok = f"{mod}.{owner[0]}" in reached and (
                    leaf.startswith("__") or leaf in used)
            else:
                ok = name in roots or leaf in used
            if ok:
                new.add(name)
        if not new:
            return defs.keys() - reached
        reached |= new
        used |= _identifiers(node for name in new for node in defs[name])


def test_the_library_holds_only_what_the_cli_reaches():
    assert unreached() == NEVER_RUN
