"""Split Python source lines into code, docstring, comment and blank lines.

Usage::

    python tools/count_lines.py [FILE ...]

With no file it reads ``src/fracstep/*.py`` of the checkout holding this
script.  Each line falls in exactly one class, read from the tokens of
``tokenize``:

* docstring: a line of a string that is a statement on its own (a module,
  class or function docstring, or an attribute's);
* code: any other line holding a token, a line of another string included;
* comment: a line holding only a comment;
* blank: a line holding nothing.

So the four counts of a file sum to its line count, as ``wc -l`` gives it
for a file that ends in a newline.  It prints one row per file and a
total.  It needs only the standard library.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def split_lines(path) -> dict[str, int]:
    """The count of each class of CLASSES among the lines of one Python file."""
    with open(path, "rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = Path(path).read_bytes().count(b"\n")
    kind = ["blank"] * (lines + 2)  # by line number, from 1
    for token in tokens:
        if token.type == tokenize.COMMENT:
            kind[token.start[0]] = "comment"
    # a token on a comment's line makes it code; a docstring shares its lines with no other token
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, token in enumerate(significant):
        if token.type in _LAYOUT:
            continue
        before = significant[i - 1].type if i else None
        after = significant[i + 1].type if i + 1 < len(significant) else None
        alone = token.type == tokenize.STRING and before in _STATEMENT_START and after == tokenize.NEWLINE
        for n in range(token.start[0], token.end[0] + 1):
            kind[n] = "docstring" if alone else "code"
    return {name: kind[1 : lines + 1].count(name) for name in CLASSES}


def main(argv: list[str]) -> int:
    paths = argv or sorted((Path(__file__).resolve().parents[1] / "src" / "fracstep").glob("*.py"))
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'file':<28}{'lines':>7}" + "".join(f"{name:>11}" for name in CLASSES))
    for path in paths:
        counts = split_lines(path)
        for name in CLASSES:
            total[name] += counts[name]
        print(f"{Path(path).name:<28}{sum(counts.values()):>7}" + "".join(f"{counts[n]:>11}" for n in CLASSES))
    print(f"{'total':<28}{sum(total.values()):>7}" + "".join(f"{total[n]:>11}" for n in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
