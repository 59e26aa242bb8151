"""The inline scripts in ``.github/workflows/ci.yml`` still import.

CI runs a few ``python - <<'EOF'`` heredocs that nothing else executes,
so a rename under ``repro`` can leave one importing a name that no
longer exists (``trace-smoke`` died that way, unseen, for a whole PR).
Each script is pulled out of the workflow file, compiled, and every
``repro`` import in it resolved — without running it.  A case is named
by its job and its step's name, lower-cased with every run of other
characters turned into one ``-`` (``trace-smoke:traced-fig-12-style-
replay-...``), so editing one step does not rename the cases below it.
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
JOB = re.compile(r"^  ([A-Za-z0-9_-]+):\s*$")
STEP = re.compile(r"^\s*- name:\s*(.+?)\s*$")
NOT_SLUG = re.compile(r"[^a-z0-9]+")


def inline_scripts() -> List[Tuple[str, str]]:
    """``(job:step name, dedented source)`` of every heredoc script."""
    lines = CI_FILE.read_text(encoding="utf-8").splitlines()
    scripts = []
    job = step = ""
    index = 0
    while index < len(lines):
        line = lines[index]
        if JOB.match(line):
            job = JOB.match(line).group(1)
        elif STEP.match(line):
            step = NOT_SLUG.sub("-", STEP.match(line).group(1).lower()).strip("-")
        elif HEREDOC.search(line):
            end = next(i for i in range(index + 1, len(lines)) if lines[i].strip() == "EOF")
            source = textwrap.dedent("\n".join(lines[index + 1 : end]))
            scripts.append((f"{job}:{step}", source))
            index = end
        index += 1
    return scripts


SCRIPTS = inline_scripts()


def test_the_workflow_still_has_inline_scripts():
    """Guards the extraction itself: if the heredoc idiom changes, the
    checks below must not pass by finding nothing, and two scripts in
    one step would share a name."""
    assert len(SCRIPTS) >= 3
    names = [name for name, _ in SCRIPTS]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[a-z0-9-]+:[a-z0-9-]+", name) for name in names)


@pytest.mark.parametrize(
    "name, source", SCRIPTS, ids=[name for name, _ in SCRIPTS]
)
def test_inline_script_resolves(name, source):
    """The script compiles and every ``repro`` import in it resolves."""
    tree = ast.parse(source, filename=f"ci.yml:{name}")
    compile(tree, f"ci.yml:{name}", "exec")
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
