"""The inline scripts in ``.github/workflows/ci.yml`` still import.

CI runs a few ``python - <<'EOF'`` heredocs that nothing else executes,
so a rename under ``repro`` can leave one importing a name that no
longer exists (``trace-smoke`` died that way, unseen, for a whole PR).
Each script is pulled out of the workflow file, compiled, and every
``repro`` import in it resolved — without running it.
"""

import ast
import importlib
import re
import textwrap
from pathlib import Path
from typing import List, Tuple

import pytest

CI_FILE = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

HEREDOC = re.compile(r"python3? - <<'EOF'\s*$")


def inline_scripts() -> List[Tuple[int, str]]:
    """``(first line number, dedented source)`` of every heredoc script."""
    lines = CI_FILE.read_text(encoding="utf-8").splitlines()
    scripts = []
    index = 0
    while index < len(lines):
        if HEREDOC.search(lines[index]):
            end = next(i for i in range(index + 1, len(lines)) if lines[i].strip() == "EOF")
            scripts.append((index + 2, textwrap.dedent("\n".join(lines[index + 1 : end]))))
            index = end
        index += 1
    return scripts


SCRIPTS = inline_scripts()


def test_the_workflow_still_has_inline_scripts():
    """Guards the extraction itself: if the heredoc idiom changes, the
    checks below must not pass by finding nothing."""
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize(
    "line, source", SCRIPTS, ids=[f"ci.yml:{line}" for line, _ in SCRIPTS]
)
def test_inline_script_compiles_and_its_repro_imports_resolve(line, source):
    tree = ast.parse(source, filename=f"ci.yml:{line}")
    compile(tree, f"ci.yml:{line}", "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    # ``from package import submodule``
                    importlib.import_module(f"{node.module}.{alias.name}")
