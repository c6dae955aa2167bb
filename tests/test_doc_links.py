"""Every document and every piece of code the project points at exists.

Scans ``README.md``, ``docs/*.md`` and the strings and comments of the
Python files under ``src/`` and ``tests/``.  A ``docs/*.md`` path names a
file from the repository root; a relative Markdown link names one from the
linking file's folder.  A Sphinx role in a docstring of ``src/specverify/``
names an object of its own module or a dotted path from the package, and a
``specverify.<module>.<name>`` path in ``README.md`` or ``docs/*.md`` names
one from the package.  Every ``--flag`` on a ``specverify <command>`` line
of ``README.md`` or ``docs/*.md`` is a flag of that command's parser.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import specverify
from specverify import cli

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


MARKDOWN = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
DOCUMENTED = [
    *MARKDOWN,
    *sorted((ROOT / "src").rglob("*.py")),
    # all but this file, whose examples name missing files on purpose
    *[path for path in sorted((ROOT / "tests").rglob("*.py")) if path.name != Path(__file__).name],
]


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_referenced_document_exists(path):
    assert missing_targets(path) == []


ROLE = re.compile(r":(?:func|data|class|meth|mod):`~?([\w.]+)`")
PACKAGE_PATH = re.compile(r"\bspecverify(?:\.\w+)+")
SOURCES = sorted((ROOT / "src" / "specverify").glob("*.py"))


def resolves(target, module=None):
    """Whether ``target`` names an attribute path on ``module``, or a dotted path from the package."""
    for obj, path in ((module, target), (specverify, target.removeprefix("specverify."))):
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if obj is not None:
            return True
    return False


def role_targets(path):
    """The Sphinx role targets in the docstrings of a Python file."""
    tree = ast.parse(path.read_text())
    nodes = [tree, *(node for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef)))]
    return [target for node in nodes for target in ROLE.findall(ast.get_docstring(node) or "")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_role_in_a_docstring_names_code_that_exists(path):
    module = importlib.import_module(f"specverify.{path.stem}") if path.stem != "__init__" else specverify
    assert [target for target in role_targets(path) if not resolves(target, module)] == []


@pytest.mark.parametrize("path", MARKDOWN, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_package_path_in_a_document_names_code_that_exists(path):
    assert [target for target in PACKAGE_PATH.findall(path.read_text()) if not resolves(target)] == []


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


def test_the_scan_sees_code_references(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        '"""See :func:`stream_run`, :class:`~specverify.models.TableArModel`, :meth:`TableArModel.gone` and'
        ' :mod:`specverify.oracle`."""\n\n\ndef f():\n'
        '    """:data:`models.RUN_MEMO_CAP` and :func:`models.uniforms`."""\n'
    )
    targets = role_targets(source)
    assert targets == [
        "stream_run",
        "specverify.models.TableArModel",
        "TableArModel.gone",
        "specverify.oracle",
        "models.RUN_MEMO_CAP",
        "models.uniforms",
    ]
    models = importlib.import_module("specverify.models")
    assert [target for target in targets if not resolves(target, models)] == ["TableArModel.gone", "models.uniforms"]
    assert PACKAGE_PATH.findall("call specverify.models.substream(seed), not specverify.models.gone.") == [
        "specverify.models.substream",
        "specverify.models.gone",
    ]
    assert not resolves("specverify.models.gone")


COMMAND = re.compile(r"(?<![\w.])specverify ([a-z]+)([^`\n]*)")
FLAG = re.compile(r"(?<![\w-])--[\w-]+")


def unknown_flags(text):
    """``(command, flag)`` for each flag of a ``specverify <command>`` line that its parser lacks.

    Backslash-continued lines are joined first; an inline command ends at its closing backtick.
    """
    _, parsers = cli.build_parser()
    return [
        (command, flag)
        for command, rest in COMMAND.findall(text.replace("\\\n", " "))
        for flag in FLAG.findall(rest)
        if command not in parsers or flag not in parsers[command]._option_string_actions
    ]


@pytest.mark.parametrize("path", MARKDOWN, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_flag_in_a_document_is_a_flag_of_its_command(path):
    assert unknown_flags(path.read_text()) == []


def test_the_scan_sees_every_flag_of_a_command():
    text = (
        "specverify oracle --vocab 3 \\\n    --gamma 3 --depth 6\n"
        "Run `specverify mc --drafts 2` and `bench --nothing`; specverify.models --gone is no command.\n"
        "from specverify import (\nspecverify frobnicate --seed 1\n"
    )
    assert unknown_flags(text) == [("oracle", "--depth"), ("frobnicate", "--seed")]
