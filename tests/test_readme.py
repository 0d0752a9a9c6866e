"""The README's console examples, replayed through cli.main.

Every `$ quasi3 ...` line of a sh block in README.md that is followed by
output lines is run in process, and its output is compared with those
lines one by one.  A README line ending in " + ..." matches as a prefix,
and a bare "..." line stands for the rest of the output.
"""

import shlex
from pathlib import Path

import pytest

from quasi3.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def console_examples(text):
    """(argv, expected output lines) for each example that shows output."""
    examples, current, in_sh = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif not in_sh:
            continue
        elif line.startswith("$ "):
            current = None
            words = shlex.split(line[2:], comments=True)
            if words[0] == "quasi3":
                current = (words[1:], [])
                examples.append(current)
        elif current is not None:
            current[1].append(line)
    out = []
    for argv, lines in examples:
        while lines and not lines[-1]:
            lines.pop()
        if lines:
            out.append((argv, lines))
    return out


EXAMPLES = console_examples(README.read_text(encoding="utf-8"))


def test_the_readme_examples_are_found():
    found = {" ".join(argv) for argv, _ in EXAMPLES}
    assert {
        "basis --m 1 --verify full",
        "det --m 3 --d 10",
        "paths count --start 2,2 --end 0,6 --barrier 9",
        "identity thm1 --params 10,-1,7,-1,-2,2",
    } <= found


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example_output(capsys, argv, expected):
    code = main(list(argv))
    got = capsys.readouterr().out.splitlines()
    assert code == 0
    if "..." in expected:
        expected = expected[: expected.index("...")]
        got = got[: len(expected)]
    assert len(got) == len(expected)
    for want, line in zip(expected, got):
        if want.endswith(" + ..."):
            assert line.startswith(want[: -len("...")])
        else:
            assert line == want
