"""The library exports nothing that only the tests call.

Every module-level public function and class in `src/dnsids` must be
referenced by another module-level name there: a function, class or
assignment that uses it. References are found by walking each module's
syntax tree; an import alone is not a use. The command-line entry point
counts as referenced.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "dnsids"

# The console script pyproject.toml declares, `dnsids = "dnsids.cli:main"`.
ENTRY_POINTS = {("cli", "main")}

# (module, name) pairs that stay public though nothing in the library
# uses them, each with its reason.
ALLOWED = {
    # benchmarks/run.py reads each run's report.csv back through it, until
    # the harness takes its metrics from the pipeline directly (ROADMAP item 1).
    ("evaluation", "parse_report_csv"),
}


def _used_names(node: ast.AST) -> set[str]:
    """Every name `node` reads, bare or as an attribute (`simnet.run`)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _unreferenced() -> list[str]:
    """`module.name` of each public definition no other top-level statement uses."""
    defined = {}    # (module, name) -> its top-level statement
    statements = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[(module, stmt.name)] = stmt
    uses = [(stmt, _used_names(stmt)) for stmt in statements]
    return sorted(f"{module}.{name}" for (module, name), own in defined.items()
                  if (module, name) not in ENTRY_POINTS
                  and not any(name in used for stmt, used in uses if stmt is not own))


# Each allowed name must still be unused: one the library has come to use
# no longer needs its entry.
def test_only_allowed_public_definitions_go_unused():
    assert _unreferenced() == sorted(f"{module}.{name}" for module, name in ALLOWED)
