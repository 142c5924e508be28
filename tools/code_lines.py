"""Print the code and physical line counts of src/phaselab/*.py, then each
file's code count (``spectral.py: 321``).

A code line holds a token that is not a comment or part of a docstring (a
string that stands as a statement); blank lines are neither.  Run from
anywhere: ``python3 tools/code_lines.py [package directory]``.
"""

import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src/phaselab"
counts, physical = {}, 0
for path in sorted(root.glob("*.py")):
    lines, previous = set(), tokenize.NEWLINE
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            docstring = tok.type == tokenize.STRING and previous in (tokenize.NEWLINE, tokenize.INDENT,
                                                                     tokenize.DEDENT)
            if tok.type not in SKIP and not docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
                previous = tok.type
    counts[path.name] = len(lines)
    physical += len(path.read_text().splitlines())
print(f"code lines: {sum(counts.values())}\nphysical lines: {physical}")
for name, code in counts.items():
    print(f"{name}: {code}")
