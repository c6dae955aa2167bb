"""Every document the project points at exists.

Scans ``README.md``, ``docs/*.md`` and the strings and comments of the
Python files under ``src/`` and ``tests/``.  A ``docs/*.md`` path names a
file from the repository root; a relative Markdown link names one from the
linking file's folder.
"""

import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = re.compile(r"\bdocs/[\w.-]+\.md\b")
MD_LINK = re.compile(r"\[[^\]\n]*\]\(([^()\s]+)\)")
URL = re.compile(r"[A-Za-z][\w+.-]*:")


def prose(path):
    """What a reader of ``path`` sees as text: all of a Markdown file, the strings and comments of a Python one."""
    text = path.read_text()
    if path.suffix != ".py":
        return text
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return "\n".join(tok.string for tok in tokens if tok.type in (tokenize.STRING, tokenize.COMMENT))


def missing_targets(path):
    text = prose(path)
    missing = [ref for ref in DOC_PATH.findall(text) if not (ROOT / ref).is_file()]
    for target in MD_LINK.findall(text):
        if URL.match(target) or target.startswith("#"):
            continue  # a URL, or an anchor in the same file
        if not (path.parent / target.split("#")[0]).exists():
            missing.append(target)
    return missing


DOCUMENTED = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    *sorted((ROOT / "src").rglob("*.py")),
    # all but this file, whose examples name missing files on purpose
    *[path for path in sorted((ROOT / "tests").rglob("*.py")) if path.name != Path(__file__).name],
]


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_referenced_document_exists(path):
    assert missing_targets(path) == []


def test_the_scan_sees_paths_and_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "See docs/criterion-3.md and docs/gone.md, [here](page.md), [a section](#top),"
        " [the paper](https://arxiv.org/abs/2403.10444) and [nothing](missing.md#part).\n"
    )
    source = tmp_path / "mod.py"
    source.write_text('x = table["key"](arg)  # see docs/absent.md\n"""[a link](nowhere.md)"""\n')
    assert missing_targets(page) == ["docs/gone.md", "missing.md#part"]
    assert missing_targets(source) == ["docs/absent.md", "nowhere.md"]
