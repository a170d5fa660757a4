"""Docs gate, run via ``make docs-check``.

Seven checks, all AST/text based so nothing is imported or executed:

1. every module under ``src/repro`` (including new packages such as
   ``repro/backend`` or ``repro/audit``) must have a module docstring;
2. every *package* under ``src/repro`` must be mentioned in both
   ``README.md`` and ``docs/ARCHITECTURE.md`` — a new subsystem that
   the architecture walkthrough does not place in the dataflow is a
   doc bug;
3. every script under ``tools/`` must be mentioned in ``README.md`` —
   an operational entry point (like ``tools/replay.py``) nobody can
   discover is a doc bug too;
4. every ``make <target>``, ``benchmarks/*.py``, ``tools/*.py`` and
   repo-root ``*.json`` that README.md, docs/ARCHITECTURE.md, the
   Makefile or ``.github/workflows/ci.yml`` names must exist (a
   target: be declared in the Makefile) — a doc that points at a
   deleted script or target is a doc bug that otherwise goes unseen;
5. every ``Name(kw=`` inside backticks in README.md or
   docs/ARCHITECTURE.md, for ``Name`` one of the public constructors
   (``connect``, ``Database``, ``Sieve``, ``SieveServer``,
   ``SieveCluster``), must name a parameter that callable declares —
   a doc that keeps advertising a deleted option is a doc bug;
6. every ``test_file.py::test_id`` that README.md, docs/ARCHITECTURE.md
   or a module under ``src/repro`` names (an invariant and "the test
   that holds it") must resolve to a ``def`` in that file under
   ``tests/`` — a renamed or deleted test otherwise leaves the claim
   standing with nothing behind it;
7. under ``src/repro`` only ``engine/vector.py`` (which extends it),
   ``engine/__init__.py`` (which exports it) and ``db/database.py``
   (``connect(vectorized=False)``) may import the differential oracle,
   ``repro.engine.executor.Executor`` — a second way into the tuple
   executor is a second engine in the product.

Exits non-zero listing offenders; prints a one-line summary when clean.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOCS = [ROOT / "README.md", ROOT / "docs" / "ARCHITECTURE.md"]
MAKEFILE = ROOT / "Makefile"
#: Files whose references to targets and files check 4 resolves.
REFERRERS = [*DOCS, MAKEFILE, ROOT / ".github" / "workflows" / "ci.yml"]

#: ``make X`` where it is unmistakably a command: inside backticks,
#: after a CI ``run:``, or alone on a line of a code block (so prose
#: such as "make sure" is not taken for a target).
_MAKE_REF = re.compile(
    r"(?:`|run: )make ([a-z][a-z0-9-]*)"
    r"|^make ([a-z][a-z0-9-]*)(?=\s*(?:#|$|[A-Z]+=))",
    re.MULTILINE,
)
_MAKE_DECL = re.compile(r"^([a-z][a-z0-9-]*):", re.MULTILINE)
_SCRIPT_REF = re.compile(r"\b(?:benchmarks|tools)/[\w-]+\.py\b")
#: A bare ``name.json`` (no directory in front) is a repo-root file.
_ROOT_JSON_REF = re.compile(r"(?<![\w/.<>*-])[\w-]+\.json\b")

#: Check 5: the public constructors whose keyword options the docs may
#: name, and the module (under ``src/repro``) that declares each.
CONSTRUCTORS = {
    "connect": "db/database.py",
    "Database": "db/database.py",
    "Sieve": "core/middleware.py",
    "SieveServer": "service/server.py",
    "SieveCluster": "cluster/coordinator.py",
}
_CODE_SPAN = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)
_CONSTRUCTOR_CALL = re.compile(rf"(?<![\w.])({'|'.join(CONSTRUCTORS)})\(")
_KEYWORD = re.compile(r"(?<![\w.])([A-Za-z_]\w*)=(?!=)")
#: Check 6: ``test_x.py::TestClass::test_id`` — a ``[param]`` suffix is
#: not part of the match, so a parametrized id resolves to its ``def``.
_TEST_REF = re.compile(r"\b(test_\w+\.py)((?:::\w+)+)")


#: Check 7: the modules (under ``src/repro``) that may import the oracle.
ORACLE_IMPORTERS = {"engine/vector.py", "engine/__init__.py", "db/database.py"}


def check_docstrings() -> tuple[int, list[str]]:
    missing: list[str] = []
    checked = 0
    for path in sorted(SRC.rglob("*.py")):
        checked += 1
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(SRC.parents[1])))
    return checked, missing


def check_package_mentions() -> tuple[int, list[str]]:
    packages = sorted(
        p.name for p in SRC.iterdir() if p.is_dir() and (p / "__init__.py").exists()
    )
    doc_texts = {doc: doc.read_text() for doc in DOCS}
    unmentioned: list[str] = []
    for package in packages:
        for doc, text in doc_texts.items():
            # Either spelling used across the docs: "repro/backend" in
            # maps/tables, or the bare "backend/" in the walkthrough.
            if f"repro/{package}" not in text and f"{package}/" not in text:
                unmentioned.append(f"{package} (not mentioned in {doc.relative_to(ROOT)})")
    return len(packages), unmentioned


def check_tool_mentions() -> tuple[int, list[str]]:
    tools = sorted(p.name for p in (ROOT / "tools").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    unmentioned = [
        f"tools/{name} (not mentioned in README.md)"
        for name in tools
        if f"tools/{name}" not in readme
    ]
    return len(tools), unmentioned


def dangling_references(
    text: str, targets: set[str], root: pathlib.Path = ROOT
) -> list[str]:
    """The ``make`` targets and the script / root-JSON paths ``text``
    names that are not in ``targets`` / do not exist under ``root``."""
    named_targets = {a or b for a, b in _MAKE_REF.findall(text)}
    named_paths = set(_SCRIPT_REF.findall(text)) | set(_ROOT_JSON_REF.findall(text))
    return sorted(
        [f"make {target}" for target in named_targets - targets]
        + [path for path in named_paths if not (root / path).exists()]
    )


def check_references() -> tuple[int, list[str]]:
    targets = set(_MAKE_DECL.findall(MAKEFILE.read_text()))
    dangling = [
        f"{ref} (named in {path.relative_to(ROOT)})"
        for path in REFERRERS
        for ref in dangling_references(path.read_text(), targets)
    ]
    return len(REFERRERS), dangling


def declared_parameters() -> dict[str, set[str]]:
    """Parameter names of each of :data:`CONSTRUCTORS`, read off the
    source: a function's own, a class's ``__init__``'s."""
    declared: dict[str, set[str]] = {}
    for name, module in CONSTRUCTORS.items():
        for node in ast.parse((SRC / module).read_text()).body:
            if getattr(node, "name", None) != name:
                continue
            if isinstance(node, ast.ClassDef):
                node = next(n for n in node.body if getattr(n, "name", None) == "__init__")
            args = node.args
            declared[name] = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    return declared


def undeclared_options(text: str, declared: dict[str, set[str]]) -> list[str]:
    """``Name(kw=)`` for every keyword a code span of ``text`` passes
    to one of :data:`CONSTRUCTORS` that the callable does not declare
    (keywords of calls nested in the argument list are not its own)."""
    found: set[str] = set()
    for span in _CODE_SPAN.findall(text):
        for call in _CONSTRUCTOR_CALL.finditer(span):
            depth, own = 0, []
            for char in span[call.end():]:
                depth += (char == "(") - (char == ")")
                if depth < 0:
                    break
                own.append(char if depth == 0 else " ")
            for keyword in _KEYWORD.findall("".join(own)):
                if keyword not in declared[call.group(1)]:
                    found.add(f"{call.group(1)}({keyword}=)")
    return sorted(found)


def check_options() -> tuple[int, list[str]]:
    declared = declared_parameters()
    undeclared = [
        f"{ref} (named in {doc.relative_to(ROOT)})"
        for doc in DOCS
        for ref in undeclared_options(doc.read_text(), declared)
    ]
    return len(declared), undeclared


def unknown_test_ids(text: str, tests_dir: pathlib.Path = ROOT / "tests") -> list[str]:
    """The ``test_file.py::test_id`` references of ``text`` that name
    no such file under ``tests_dir`` or a component that file does not
    define (every ``::`` component must be a ``def`` or ``class``)."""
    unknown: set[str] = set()
    for filename, components in _TEST_REF.findall(text):
        path = tests_dir / filename
        defined: set[str] = set()
        if path.exists():
            defined = {
                node.name
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            }
        if not set(components.split("::")[1:]) <= defined:
            unknown.add(filename + components)
    return sorted(unknown)


def check_test_ids() -> tuple[int, list[str]]:
    texts = {path: path.read_text() for path in [*DOCS, *sorted(SRC.rglob("*.py"))]}
    unknown = [
        f"{ref} (named in {path.relative_to(ROOT)})"
        for path, text in texts.items()
        for ref in unknown_test_ids(text)
    ]
    return sum(len(_TEST_REF.findall(text)) for text in texts.values()), unknown


def imports_oracle(source: str) -> bool:
    """Whether a module's source imports ``Executor`` — by name (or
    ``*``) from ``repro.engine.executor`` or its re-export in
    ``repro.engine``, or the ``repro.engine.executor`` module whole."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = {alias.name for alias in node.names}
        if isinstance(node, ast.Import):
            if "repro.engine.executor" in names:
                return True
        elif node.module in ("repro.engine.executor", "repro.engine") and names & {"Executor", "*"}:
            return True
    return False


def check_oracle_boundary() -> tuple[int, list[str]]:
    paths = sorted(SRC.rglob("*.py"))
    outside = [
        f"{path.relative_to(ROOT)} imports repro.engine.executor.Executor"
        for path in paths
        if path.relative_to(SRC).as_posix() not in ORACLE_IMPORTERS
        and imports_oracle(path.read_text())
    ]
    return len(ORACLE_IMPORTERS), outside


def main() -> int:
    checked, missing = check_docstrings()
    n_packages, unmentioned = check_package_mentions()
    n_tools, tools_unmentioned = check_tool_mentions()
    unmentioned += tools_unmentioned
    n_referrers, dangling = check_references()
    n_constructors, undeclared = check_options()
    n_test_ids, unknown_ids = check_test_ids()
    n_importers, outside = check_oracle_boundary()
    failed = False
    if outside:
        failed = True
        print(f"{len(outside)} module(s) import the oracle from outside its boundary:")
        for entry in outside:
            print(f"  {entry}")
    if unknown_ids:
        failed = True
        print(f"{len(unknown_ids)} test id(s) the docs name that do not exist:")
        for entry in unknown_ids:
            print(f"  {entry}")
    if undeclared:
        failed = True
        print(f"{len(undeclared)} constructor option(s) the docs name that do not exist:")
        for entry in undeclared:
            print(f"  {entry}")
    if dangling:
        failed = True
        print(f"{len(dangling)} reference(s) to a target or file that does not exist:")
        for entry in dangling:
            print(f"  {entry}")
    if missing:
        failed = True
        print(f"{len(missing)} module(s) lack a docstring:")
        for path in missing:
            print(f"  {path}")
    if unmentioned:
        failed = True
        print(f"{len(unmentioned)} package mention(s) missing from the docs:")
        for entry in unmentioned:
            print(f"  {entry}")
    if failed:
        return 1
    print(
        f"docs-check: all {checked} modules under src/repro have docstrings; "
        f"all {n_packages} packages are documented in README + ARCHITECTURE; "
        f"all {n_tools} tools/ scripts are documented in the README; "
        f"every target and file the {n_referrers} docs/build files name exists; "
        f"every option the docs pass to the {n_constructors} public constructors is declared; "
        f"all {n_test_ids} test ids the docs and docstrings name exist; "
        f"only the {n_importers} allowed modules import the oracle executor"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
