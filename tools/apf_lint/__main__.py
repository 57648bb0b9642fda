"""apf_lint: the repo's static analyzer.

Usage: python3 tools/apf_lint [paths...]
       python3 tools/apf_lint --self-test

Without arguments it analyzes the whole tree (src/, fuzz/, bench/,
examples/, tests/ minus the negative fixtures) and prints one
`path:line: [rule] message` line per finding. Paths (files or
directories) restrict the report to the files under them; whole-tree
properties (the call graph, the include graph) are always computed from
the full tree. `--self-test` replays every fixture in tests/lint_negative/
instead. docs/STATIC_ANALYSIS.md lists the rules, their scopes and the
waiver grammar `// lint-apf: allow-<rule>(<reason>)`.

Exit status: 0 clean, 1 findings (or a failed self-test), 2 usage error.
"""

import pathlib
import sys

import rules
import selftest
from source import load_tree

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main(argv):
    if argv == ["--self-test"]:
        return selftest.run(ROOT)
    if any(a.startswith("-") for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = [pathlib.Path(a).resolve() for a in argv]
    for arg, path in zip(argv, paths):
        if not path.is_relative_to(ROOT) or not path.exists():
            print(f"apf_lint: {arg} is not a path in {ROOT}", file=sys.stderr)
            return 2
    findings = rules.analyze(load_tree(ROOT),
                             (ROOT / "docs" / "WIRE.md").read_text("utf-8"))
    findings = [f for f in findings if not paths or any(
        (ROOT / f.path).is_relative_to(p) for p in paths)]
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    print(f"apf_lint: {len(findings)} finding(s)" if findings
          else "apf_lint: clean", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
