"""The shared front end: every file is read and stripped once, and one
scope/function index serves every rule.

The analyzer is structural, not a compiler front end: comment/string
stripping that keeps offsets and line numbers, brace matching, a class and
function index, and a statement splitter for class and namespace scope.
docs/STATIC_ANALYSIS.md records the approximations this implies.
"""

import bisect
import re

# Trees the analyzer reads, relative to the repo root. Each rule narrows
# this to its own scope (see RULE_SCOPES in rules.py). REFERENCE_TREES are
# read only as a source of references for test-only-api, never linted.
TREES = ("src", "fuzz", "bench", "examples", "tests")
REFERENCE_TREES = ("perfbench",)
FIXTURE_DIR = "tests/lint_negative"
EXTENSIONS = (".h", ".hpp", ".cpp")

KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "new", "delete", "throw", "assert", "defined", "noexcept",
    "static_assert", "operator",
))

LEXEME = re.compile(
    r"//[^\n]*|/\*.*?(?:\*/|\Z)"
    r"|\"(?P<d>(?:\\.|[^\"\\\n])*)(?P<dq>\"?)"
    r"|(?<![0-9])'(?P<s>(?:\\.|[^'\\\n])*)(?P<sq>'?)", re.S)
NON_NEWLINE = re.compile(r"[^\n]")
FUNC_HEAD = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
QUALIFIERS = re.compile(
    r"\s*(?:const|noexcept|override|final|mutable|APF_\w+\s*\([^()]*\)"
    r"|APF_\w+|->\s*[\w:<>&*\s]+)*\s*")
INIT_ITEM = re.compile(r"\s*[A-Za-z_][\w:<>]*\s*(?=[({])")
CLASS_HEAD = re.compile(
    r"(?<!enum )\b(class|struct)\s+(?:APF_\w+(?:\s*\([^()]*\))?\s+)*"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{}()]*)?\{")
ACCESS = re.compile(r"\s*(public|protected|private)\s*:(?!:)")
BRACKETS = {"(": re.compile(r"[()]"), "{": re.compile(r"[{}]"),
            "[": re.compile(r"[\[\]]")}
WAIVER_START = re.compile(r"\b(lint-apf|apf-lint):")
WAIVER = re.compile(r"\s*allow-([a-z][a-z0-9-]*)\(")
# A validation call: the shared validator or a checked precondition.
CHECK_CALL = r"\b(?:require_round_inputs|APF_CHECK(?:_MSG)?)\s*\("
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
    r"([A-Za-z_]\w*)")
FLOAT_DECL = re.compile(
    r"\b(float|double)\s+([A-Za-z_]\w*)(\s*=\s*0(?:\.0?f?|\.f)?\s*[;,])?")


def match_brace(text, i):
    """Offset of the bracket closing text[i], or -1."""
    depth = 0
    for m in BRACKETS[text[i]].finditer(text, i):
        depth += 1 if m.group() == text[i] else -1
        if depth == 0:
            return m.start()
    return -1


def split_top(text, sep):
    """Splits at occurrences of `sep` outside (), [] and {} groups; an `==`
    separator never splits `<=`, `>=`, `!=` or `===`."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i) and (
                sep != "==" or (text[i - 1:i] not in "<>!="
                                and text[i + 2:i + 3] != "=")):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def unordered_names(code):
    """Identifiers declared with an unordered container type."""
    return {m.group(1) for m in UNORDERED_DECL.finditer(code)}


def float_names(code):
    return {m.group(2) for m in FLOAT_DECL.finditer(code)}


def strip(text):
    """Returns (code, comments): `text` with comments and literal contents
    blanked (every offset and newline kept, quotes kept), and a map from a
    1-based line number to the comment text on that line."""
    starts = line_starts(text)
    comments = {}

    def blank(m):
        s = m.group()
        if s[0] == "/":
            line = bisect.bisect_right(starts, m.start())
            for k, part in enumerate(s.split("\n")):
                comments[line + k] = comments.get(line + k, "") + part
            return NON_NEWLINE.sub(" ", s)
        if s[0] == '"':
            return '"' + NON_NEWLINE.sub(" ", m.group("d")) + m.group("dq")
        return "'" + NON_NEWLINE.sub(" ", m.group("s")) + m.group("sq")

    return LEXEME.sub(blank, text), comments


def line_starts(text):
    return [0] + [m.end() for m in re.finditer("\n", text)]


class Func:
    """One function definition: `params_text` is the raw parameter list,
    `params` its parse_params() form, `body` the stripped text between the
    braces."""

    def __init__(self, file, name, cls, head, params, body_start, body_end):
        self.file, self.name, self.cls = file, name, cls
        self.qname = f"{cls}::{name}" if cls else name
        self.head, self.params_text = head, params
        self.body_start, self.body_end = body_start, body_end
        self.body = file.code[body_start:body_end]
        self.line = file.line_of(head)
        self.params = parse_params(params)

    def mut_param_names(self):
        return {p[0]: i for i, p in enumerate(self.params) if p[1]}


def parse_params(text):
    """[(name, is_mutable_ref, is_rng_ref)] per top-level parameter."""
    out = []
    for piece in split_top(text, ","):
        piece = split_top(piece, "=")[0].strip()
        if not piece or piece == "void":
            continue
        m = re.search(r"([A-Za-z_]\w*)\s*$", piece)
        if not m:
            out.append(("", False, False))
            continue
        decl = piece[:m.start(1)]
        const = bool(re.search(r"\bconst\b", decl))
        mutable = (("&" in decl or "*" in decl) and not const) or bool(
            re.search(r"\bspan\s*<\s*(?!const\b)", decl))
        rng = bool(re.search(r"\bRng\s*[&*]", decl)) and not const
        out.append((m.group(1), mutable, rng))
    return out


class SourceFile:
    def __init__(self, rel, text):
        self.rel = rel
        self.top = rel.split("/", 1)[0]
        self.name = rel.rsplit("/", 1)[-1]
        self.text = text
        self.lines = text.split("\n")
        self.code, self.comments = strip(text)
        self.code_lines = self.code.split("\n")
        self._starts = line_starts(text)
        self._funcs = self._classes = self.waivers = None

    def line_of(self, offset):
        return bisect.bisect_right(self._starts, offset)

    def under(self, *dirs):
        return any(self.rel.startswith(d + "/") for d in dirs)

    @property
    def classes(self):
        """[(name, open, close, default access)] per named class body."""
        if self._classes is None:
            self._classes = []
            for m in CLASS_HEAD.finditer(self.code):
                close = match_brace(self.code, m.end() - 1)
                if close != -1:
                    self._classes.append((
                        m.group(2), m.end(), close,
                        "private" if m.group(1) == "class" else "public"))
        return self._classes

    @property
    def funcs(self):
        """Every function definition: a name, a balanced parameter list,
        qualifiers, an optional constructor initializer list, then `{`."""
        if self._funcs is None:
            self._funcs = []
            code, skip = self.code, 0
            for m in FUNC_HEAD.finditer(code):
                name = m.group(1)
                if m.start() < skip or name in KEYWORDS or \
                        name.startswith("APF_"):
                    continue
                close = match_brace(code, m.end() - 1)
                body = body_open(code, close) if close != -1 else -1
                end = match_brace(code, body) if body != -1 else -1
                if end == -1:
                    continue
                skip = body
                qual = re.search(r"([A-Za-z_]\w*)\s*::\s*$",
                                 code[max(0, m.start() - 80):m.start()])
                cls = qual.group(1) if qual else self.enclosing_class(
                    m.start())
                self._funcs.append(Func(self, name, cls, m.start(),
                                        code[m.end():close], body + 1, end))
        return self._funcs

    def enclosing_class(self, offset):
        inner = [c for c in self.classes if c[1] <= offset < c[2]]
        return inner[-1][0] if inner else None

    def in_function(self, offset):
        return any(f.body_start <= offset < f.body_end for f in self.funcs)

    def statements(self, start=0, end=None):
        """(offset, text) per declaration at brace depth 0 of code[start:end].
        A declaration runs to a top-level `;`, or ends with a brace group
        not followed by `;` or `,` (a function body). Namespace blocks are
        entered and preprocessor lines skipped."""
        code = self.code
        end = len(code) if end is None else end
        i, begin = start, None
        while i < end:
            c = code[i]
            if begin is None:
                if c.isspace() or c == "}":
                    i += 1
                    continue
                if c == "#":
                    while i < end and (code[i] != "\n" or code[i - 1] == "\\"):
                        i += 1
                    continue
                begin = i
            if c == ";":
                yield begin, code[begin:i + 1]
                begin = None
            elif c == "{":
                close = match_brace(code, i)
                close = end - 1 if close == -1 or close >= end else close
                if re.match(r"(?:inline\s+)?namespace\b", code[begin:i]):
                    yield from self.statements(i + 1, close)
                    begin, i = None, close + 1
                    continue
                i = close + 1
                rest = code[i:i + 200].lstrip()
                if not rest.startswith((";", ",")):
                    yield begin, code[begin:i]
                    begin = None
                continue
            i += 1
        if begin is not None and code[begin:end].strip():
            yield begin, code[begin:end]

    def members(self, cls_open, cls_close, default):
        """(line, statement, access) per declaration directly in a class."""
        access = default
        for off, stmt in self.statements(cls_open, cls_close):
            label = ACCESS.match(stmt)
            while label:
                access = label.group(1)
                off += label.end()
                stmt = stmt[label.end():]
                label = ACCESS.match(stmt)
            lead = len(stmt) - len(stmt.lstrip())
            if stmt.strip():
                yield self.line_of(off + lead), stmt.strip(), access

    def parse_waivers(self, rules):
        """Fills self.waivers ({line: {rule}}) and returns (line, message)
        for every waiver comment that does not parse exactly."""
        self.waivers, bad = {}, []
        for line, comment in self.comments.items():
            for m in WAIVER_START.finditer(comment):
                rest = comment[m.end():]
                w = WAIVER.match(rest)
                close = match_brace(rest, w.end() - 1) if w else -1
                if m.group(1) == "apf-lint":
                    bad.append((line, "old-style waiver prefix 'apf-lint:'; "
                                "the grammar is 'lint-apf: allow-<rule>"
                                "(<reason>)'"))
                elif close == -1:
                    bad.append((line, f"waiver '{m.group()}"
                                f"{rest[:40].rstrip()}' does not parse; the "
                                "grammar is 'lint-apf: allow-<rule>(<reason>)'"))
                elif w.group(1) not in rules:
                    bad.append((line, f"waiver names unknown rule "
                                f"'{w.group(1)}'"))
                elif not rest[w.end():close].strip():
                    bad.append((line, f"waiver for '{w.group(1)}' has an "
                                "empty reason"))
                else:
                    self.waivers.setdefault(line, set()).add(w.group(1))
        return bad

    def waived(self, line, rule):
        return any(rule in self.waivers.get(ln, ()) for ln in (line - 1, line))


def body_open(code, close):
    """Offset of the `{` opening a function body whose parameter list
    closes at `close`, skipping qualifiers and an initializer list."""
    i = QUALIFIERS.match(code, close + 1).end()
    if code.startswith(":", i) and not code.startswith("::", i):
        i += 1
        while True:
            item = INIT_ITEM.match(code, i)
            if not item:
                return -1
            group_end = match_brace(code, item.end())
            if group_end == -1:
                return -1
            i = group_end + 1
            while i < len(code) and code[i].isspace():
                i += 1
            if not code.startswith(",", i):
                break
            i += 1
    return i if code.startswith("{", i) else -1


def load_tree(root):
    """{rel path: text} for every C++ file in TREES and REFERENCE_TREES,
    fixtures excluded."""
    files = {}
    for top in TREES + REFERENCE_TREES:
        for path in sorted((root / top).rglob("*")):
            rel = path.relative_to(root).as_posix()
            if path.suffix in EXTENSIONS and path.is_file() and \
                    not rel.startswith(FIXTURE_DIR + "/"):
                files[rel] = path.read_text(encoding="utf-8",
                                            errors="replace")
    return files
