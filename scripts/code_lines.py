"""Count the code lines of Python modules: no blank, comment-only or
docstring lines.

A line counts when a token other than a comment, a line break, an indent
or a dedent lies on it; a line that a multi-line token spans counts once
per line.  A string that is a statement of its own (a docstring, or a
bare string anywhere else) counts for nothing.  Prints one line per
module and the total:

    python scripts/code_lines.py src/rssdloc
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    statement = []  # the tokens of the logical line read so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _SKIP:
            statement.append(tok)
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path, help="modules or directories of them")
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6,d}  {f}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
