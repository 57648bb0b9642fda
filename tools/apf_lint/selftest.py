"""--self-test: replay every fixture in tests/lint_negative/, then re-prove
the real src/wire encoders and two mutations of them.

A fixture is one .cpp/.h file, or a directory of them for multi-file
cases. Markers in its comments:

  lint-expect: <rule>        the rule must report this very line (several
                             markers may share a line; a file without any
                             must stay clean)
  lint-place: <dir>/         where the file sits in the analyzed tree
  lint-wire-doc: | ... |     a docs/WIRE.md table row for wire fixtures

Each fixture runs alone. The findings must be exactly the marked lines, and
appending `// lint-apf: allow-<rule>(self-test)` to a marked line must
suppress its finding. Every rule needs a fixture.
"""

import re

from rules import RULES, analyze
from source import EXTENSIONS, FIXTURE_DIR

EXPECT = re.compile(r"lint-expect:\s*([\w-]+)")
# Two mutations of the real encoders that each change the frame size: a
# widened fp16 element and a dropped dense tag header.
MUTATIONS = (
    ("fp16 element width u16 -> u32", "writer.u16(float_to_half(v));",
     "writer.u32(float_to_half(v));", "encode_fp16"),
    ("dropped dense tag header", "  writer.u32(kTagDense);\n", "",
     "encode_dense"),
)


def load_fixture(path):
    """({tree path: text}, {(tree path, line, rule)}, wire doc) or a
    failure string."""
    files, expected, doc = {}, set(), ""
    for p in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if p.suffix not in EXTENSIONS:
            continue
        text = p.read_text(encoding="utf-8")
        place = re.search(r"lint-place:\s*(\S+)", text)
        if not place:
            return f"{p.name} has no 'lint-place: <dir>/' marker"
        rel = place.group(1).rstrip("/") + "/" + p.name
        files[rel] = text
        expected |= {(rel, line, rule)
                     for line, text in enumerate(text.split("\n"), 1)
                     for rule in EXPECT.findall(text)}
        doc += "".join(r + "\n" for r in
                       re.findall(r"lint-wire-doc:\s*(\|.*\|)", text))
    unknown = {rule for *_at, rule in expected} - set(RULES)
    if unknown:
        return f"expects unknown rule(s) {sorted(unknown)}"
    return files, expected, doc


def check_fixture(files, expected, doc):
    """Failure strings for one fixture."""
    findings = analyze(files, doc)
    fired = {f[:3] for f in findings}
    failures = [f"{path}:{line}: [{rule}] expected, not reported"
                for path, line, rule in sorted(expected - fired)]
    failures += [f"unexpected finding {f}" for f in findings
                 if f[:3] not in expected]
    for path, line, rule in sorted(expected & fired):
        lines = files[path].split("\n")
        lines[line - 1] += f"  // lint-apf: allow-{rule}(self-test)"
        waived = dict(files, **{path: "\n".join(lines)})
        if any(g[:3] == (path, line, rule) for g in analyze(waived, doc)):
            failures.append(f"allow-{rule}(self-test) on {path}:{line} "
                            "did not suppress the finding")
    return failures


def run(root):
    failures, covered = [], set()
    fixtures = sorted((root / FIXTURE_DIR).iterdir())
    for path in fixtures:
        fixture = load_fixture(path)
        if isinstance(fixture, str):
            failures.append(f"{path.name}: {fixture}")
            continue
        covered |= {rule for *_at, rule in fixture[1]}
        failures += [f"{path.name}: {msg}" for msg in check_fixture(*fixture)]
    failures += [f"rule '{rule}' has no fixture in {FIXTURE_DIR}/"
                 for rule in RULES if rule not in covered]

    wire = {f"src/wire/{p.name}": p.read_text(encoding="utf-8")
            for p in sorted((root / "src" / "wire").glob("*.cpp"))}
    doc = (root / "docs" / "WIRE.md").read_text(encoding="utf-8")
    failures += [f"real wire tree not clean: {f}"
                 for f in analyze(wire, doc)]
    for label, old, new, encoder in MUTATIONS:
        if old not in wire["src/wire/wire.cpp"]:
            failures.append(f"mutation '{label}': src/wire/wire.cpp no "
                            f"longer contains {old.strip()!r}")
            continue
        mutated = dict(wire, **{"src/wire/wire.cpp": wire[
            "src/wire/wire.cpp"].replace(old, new)})
        if not any(f.rule == "wire-size" and encoder in f.message
                   for f in analyze(mutated, doc)):
            failures.append(f"mutation '{label}' not detected")

    for msg in failures:
        print(f"apf_lint self-test FAIL: {msg}")
    print(f"apf_lint self-test: {len(fixtures)} fixtures, {len(RULES)} "
          f"rules, {len(MUTATIONS)} wire mutations: "
          + ("FAILED" if failures else "passed"))
    return 1 if failures else 0
