"""Import hygiene of the package: no unused imports, an exact export list,
and no module loaded from outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import cherloc

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "cherloc").glob("*.py"))


def imported_names(tree):
    """The names that a module's import statements bind, by name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Every name a module reads, including those inside string annotations
    and the strings listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items()
                   if name not in used]
    assert unused == []


def test_all_lists_exactly_the_package_imports():
    tree = ast.parse((SRC / "cherloc" / "__init__.py").read_text(encoding="utf-8"))
    assert set(cherloc.__all__) == set(imported_names(tree))


def cli_imports():
    """The modules loaded by a bare `import cherloc.cli`.

    -S skips site-packages, so a third-party import fails here even when it
    is installed, and nothing a .pth file imports is counted.
    """
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import cherloc.cli; "
             "print('\\n'.join(sys.modules))")
    return subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60).stdout.split()


def test_the_cli_loads_only_the_standard_library():
    roots = {name.split(".")[0] for name in cli_imports()}
    assert roots - set(sys.stdlib_module_names) == {"cherloc", "__main__"}


def test_the_cli_starts_without_dataclasses_or_its_imports():
    # dataclasses pulls in inspect, and inspect ast, dis and tokenize: about
    # 10 ms of every job's start-up, before any class is decorated.
    slow = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert slow & set(cli_imports()) == set()


def test_the_cli_starts_without_typing():
    # typing takes about 5 ms of every job's start-up, and none of the
    # standard library modules the package imports loads it.
    assert "typing" not in cli_imports()


def imported_modules(tree):
    """The modules that a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module


def test_no_module_imports_dataclasses():
    importers = [path.name for path in MODULES
                 if "dataclasses" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []
