"""The README's examples run as written: the library quick start, each
command of the command-line block through ``cli.main``, and ``infer`` on
the config file example.  Each must succeed, so the README keeps to the
public API and the flags."""

import re
import shlex
from pathlib import Path

from tlcausal import cli

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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
