"""The README's examples run as written: the library quick start, each
command of the command-line block through ``cli.main``, and ``infer`` on
the config file example.  Each must succeed, so the README keeps to the
public API and the flags.  Its module map names every module, and each of
its in-page links names a heading."""

import re
import shlex
from pathlib import Path

from tlcausal import cli

_ROOT = Path(__file__).resolve().parent.parent
_README = (_ROOT / "README.md").read_text()


def _block(section, lang):
    """The first ``lang`` code block after the ``## section`` heading."""
    start = _README.index(f"\n## {section}\n")
    return re.search(rf"^```{lang}\n(.*?)^```$", _README[start:],
                     re.M | re.S)[1]


def _commands(block):
    """Each ``tlcausal`` command of a shell block, continuations joined."""
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "tlcausal", line
            yield words[1:]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(_block("Quick start (library)", "python"), {})
    commands = list(_commands(_block("Command line", "sh")))
    assert [words[0] for words in commands] == [
        "generate", "infer", "check", "fdr", "report"]
    for words in commands:
        assert cli.main(words) == 0, words
    Path("run.cfg").write_text(_block("Command line", "ini"))
    assert cli.main(["infer", "--config", "run.cfg"]) == 0


def test_module_map_names_every_module():
    rows = re.findall(r"^\| `tlcausal\.(\w+)` \|", _README, re.M)
    modules = {p.stem for p in (_ROOT / "src" / "tlcausal").glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__"})


def _anchor(heading):
    """A heading's anchor as GitHub makes it: lower case, punctuation
    dropped, spaces made hyphens."""
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def test_in_page_links_name_headings():
    prose = re.sub(r"^```.*?^```$", "", _README, flags=re.M | re.S)
    anchors = {_anchor(h) for h in re.findall(r"^#+ (.+)$", prose, re.M)}
    links = set(re.findall(r"\]\(#([^)]*)\)", prose))
    assert links and links <= anchors, links - anchors
