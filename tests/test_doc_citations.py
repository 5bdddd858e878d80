"""A cited doc section exists, and so does a path the docs name.

Code, tests and docs point readers at prose by ``docs/<file>.md, "<Section>"``.
A section that is renamed or rewritten away leaves such a pointer dangling
without any test noticing, so every citation in ``src/``, ``tests/``,
``tools/``, ``scripts/``, ``docs/`` and ``README.md`` must name a heading of
the file it cites (whitespace, comment markers included, normalised across
line breaks).  Likewise every backticked path with a directory component in
``README.md`` and ``docs/*.md`` must exist: a glob must match something, and
a path under a directory ``.gitignore`` lists is an output, not checked.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CITING_TREES = ("src", "tests", "tools", "scripts", "docs")
DOCS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

_CITATION = re.compile(r'docs/(\w+)\.md`{0,2},\s*"([^"]+)"')
_FILE_SUFFIXES = (".py", ".md", ".json", ".sh", ".yml", ".ini", ".txt")


def _normalised(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    joint = r"\s*\n\s*(?:#+\s*)?" if path.suffix == ".py" else r"\s*\n\s*"
    return re.sub(joint, " ", text)


def _headings(doc: str) -> set:
    lines = (REPO_ROOT / "docs" / f"{doc}.md").read_text(encoding="utf-8").splitlines()
    return {
        " ".join(line.lstrip("#").split()) for line in lines if re.match(r"#+\s", line)
    }


def _citations():
    files = [REPO_ROOT / "README.md"]
    for tree in CITING_TREES:
        files += sorted(
            path for path in (REPO_ROOT / tree).rglob("*")
            if path.suffix in (".py", ".md", ".sh") and "lint_fixtures" not in path.parts
        )
    for path in files:
        for doc, section in _CITATION.findall(_normalised(path)):
            yield path.relative_to(REPO_ROOT).as_posix(), doc, " ".join(section.split())


CITATIONS = sorted(set(_citations()))


def test_the_scan_finds_citations():
    assert len(CITATIONS) >= 5


@pytest.mark.parametrize(
    "source,doc,section", CITATIONS, ids=[f"{s}->{d}:{t[:30]}" for s, d, t in CITATIONS]
)
def test_a_cited_section_is_a_heading(source, doc, section):
    assert (REPO_ROOT / "docs" / f"{doc}.md").exists(), f"{source} cites a missing docs/{doc}.md"
    assert section in _headings(doc), f'{source} cites docs/{doc}.md, "{section}": no such heading'


def _ignored_dirs() -> tuple:
    lines = (REPO_ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    return tuple(line.strip() for line in lines if line.strip().endswith("/"))


def _named_paths():
    top = {entry.name for entry in REPO_ROOT.iterdir()}
    ignored = _ignored_dirs()
    for doc in DOCS:
        for token in re.findall(r"`([^`\s]+)`", doc.read_text(encoding="utf-8")):
            path = re.split(r"::|:\d", token)[0]
            if "/" not in path or "://" in path or path.startswith(ignored):
                continue
            if path.split("/")[0] in top:
                yield doc.name, path
            elif path.endswith(_FILE_SUFFIXES):
                # a module path under the package, as the docs abbreviate it
                yield doc.name, f"src/repro/{path}"


NAMED_PATHS = sorted(set(_named_paths()))


def test_the_scan_finds_paths():
    assert len(NAMED_PATHS) >= 50


@pytest.mark.parametrize("doc,path", NAMED_PATHS, ids=[f"{d}:{p}" for d, p in NAMED_PATHS])
def test_a_named_path_exists(doc, path):
    pattern = re.sub(r"<[^>]*>", "*", path)
    if "*" in pattern:
        assert list(REPO_ROOT.glob(pattern)), f"{doc} names {path}, which matches nothing"
    else:
        assert (REPO_ROOT / pattern).exists(), f"{doc} names {path}, which does not exist"
