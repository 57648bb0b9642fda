"""The rules, and `analyze()`, which runs them over a tree.

`analyze(files, wire_doc)` is a pure function of the file texts: the CLI
feeds it the repo tree, the self-test feeds it fixtures. Each rule checks
only the files its scope admits; a finding is dropped when a valid waiver
for its rule sits on its line or the line above.
"""

import collections
import re

import flow
import wire
from source import (CHECK_CALL, CLASS_HEAD, FLOAT_DECL, FUNC_HEAD, KEYWORDS,
                    REFERENCE_TREES, SourceFile, match_brace, unordered_names)

Finding = collections.namedtuple("Finding", "path line rule message")

# The module hierarchy of src/: a file may include its own module or any
# strictly lower level. The tool trees sit above all of src/ and stay
# independent of each other.
MODULE_LEVELS = {"util": 0, "tensor": 1, "nn": 2, "data": 2, "optim": 3,
                 "wire": 4, "transport": 5, "fl": 6, "compress": 7, "core": 8}
TOOL_TREES = ("fuzz", "bench", "examples")
STRUCTURAL = ("src", "fuzz", "bench")

# Rule id -> predicate on a SourceFile: the files the rule reports on.
RULE_SCOPES = {
    "entry-check": lambda f: f.rel.count("/") == 2 and f.name.endswith(
        ".cpp") and f.under("src/core", "src/fl"),
    "determinism": lambda f: f.top == "src" and not f.name.startswith("rng."),
    "float-accumulator": lambda f: f.top == "src",
    "test-include": lambda f: f.top == "src",
    "concurrency-hygiene": lambda f: f.top == "src" and
    not f.name.startswith("thread_pool."),
    "libm-tanh": lambda f: f.top == "src" and
    f.rel != "src/tensor/activations.cpp",
    "libm-exp": lambda f: f.top == "src" and
    f.rel != "src/tensor/activations.cpp",
    "isa-dispatch": lambda f: True,
    "unordered-iteration": lambda f: f.rel.count("/") == 2 and
    f.under("src/core", "src/fl", "src/compress"),
    "capability-raw-mutex": lambda f: f.name != "annotations.h",
    "capability-unguarded-member": lambda f: f.top in ("src", "fuzz"),
    "capability-requires-doc": lambda f: f.top in ("src", "fuzz"),
    "layering": lambda f: f.top in ("src",) + TOOL_TREES,
    "atomic-reject": lambda f: f.top in STRUCTURAL,
    "fold-determinism": lambda f: f.top in STRUCTURAL,
    "exhaustive-dispatch": lambda f: f.top in STRUCTURAL,
    "strong-type": lambda f: f.under("src/transport", "src/wire", "src/fl"),
    "frozen-write": lambda f: f.under("src/fl", "src/compress",
                                      "src/transport", "fuzz", "bench"),
    "wire-size": lambda f: f.under("src/wire") and f.name.endswith(".cpp"),
    "dead-include": lambda f: f.top in STRUCTURAL,
    "test-only-api": lambda f: f.top == "src" and f.name.endswith(".h"),
    "waiver": lambda f: True,
}
RULES = tuple(RULE_SCOPES)

# entry-check also accepts the debug tripwires as input validation.
INPUT_CHECK = re.compile(
    CHECK_CALL + r"|\bAPF_DEBUG_(?:ASSERT|ASSERT_MSG|CHECK_FINITE)\b")
DETERMINISM = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"\b(?:std::)?random_device\b"), "std::random_device"),
    (re.compile(r"\b(?:std::)?mt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\b(?:std::)?default_random_engine\b"),
     "std::default_random_engine"),
]
CONCURRENCY = [
    (re.compile(r"\bstd::jthread\b"), "std::jthread"),
    (re.compile(r"\bstd::thread\b"), "std::thread"),
    (re.compile(r"\bstd::async\b"), "std::async"),
    (re.compile(r"\.\s*detach\s*\("), ".detach()"),
]
LIBM_TANH = [
    (re.compile(r"\bstd::tanhf?\b"), "std::tanh"),
    (re.compile(r"(?<![\w:])::tanhf?\b"), "::tanh"),
    (re.compile(r"(?<![\w:])tanhf\b"), "tanhf"),
]
LIBM_EXP = [
    (re.compile(r"\bstd::expf?\b"), "std::exp"),
    (re.compile(r"(?<![\w:])::expf?\b"), "::exp"),
    (re.compile(r"(?<![\w:])expf\b"), "expf"),
]
# isa-dispatch: each group of shapes of an instruction-set choice, and the
# only files that may hold it. The CPU-feature query sits in simd.h; the
# per-set code (a target or target_clones attribute or pragma, an
# intrinsics header, a raw x86 builtin) in the kernel files that dispatch
# through it.
ISA_DISPATCH = [
    ([(re.compile(r"\b__builtin_cpu_\w+"), "__builtin_cpu_*"),
      (re.compile(r"\bCPU_FEATURE_\w+"), "CPU_FEATURE_*"),
      (re.compile(r"#\s*include\s*<sys/platform/x86\.h>"),
       "<sys/platform/x86.h>")],
     ("src/tensor/simd.h",)),
    ([(re.compile(r'(?:(?<![\w.>:])|(?<=gnu::))(?:__)?target(?:_clones)?'
                  r'(?:__)?\s*\(\s*"'), "target(...)"),
      (re.compile(r"#\s*include\s*<\w*intrin\.h>"), "<*intrin.h>"),
      (re.compile(r"\b__builtin_ia32_\w+"), "__builtin_ia32_*")],
     ("src/tensor/ops.cpp", "src/tensor/activations.cpp")),
]
TEST_INCLUDE = re.compile(
    r'#\s*include\s+["<](?:tests/|gtest|gmock|[^">]*_test\.h)')
PROJECT_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
RAW_SYNC = re.compile(
    r"\bstd::(?:(?:recursive_|timed_|recursive_timed_|shared_)?mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b")
MUTEX_MEMBER = re.compile(r"^(?:apf::)?(?:util::)?Mutex\s+[A-Za-z_]\w*")
SYNC_MEMBER = re.compile(r"^(?:apf::)?(?:util::)?(?:Mutex|CondVar)\b")
MEMBER_SKIP = re.compile(
    r"^(?:using|typedef|friend|static|constexpr|enum|class|struct|template|"
    r"public|protected|private)\b")
UNORDERED = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
CALL_NAME = re.compile(r"\b(~?[A-Za-z_]\w*)\s*\(")
# Annotation groups around a declaration: `APF_REQUIRES(mu)`,
# `__attribute__((...))`, `alignas(64)`.
ATTRIBUTE = re.compile(r"\b(?:APF_\w+|__attribute__|alignas)\s*\(")
# test-only-api: a template head before a declaration, and member
# declarations that declare no member function of their own.
TEMPLATE_PREFIX = re.compile(r"^template\s*<(?:[^<>]|<[^<>]*>)*>\s*")
NESTED_DECL = re.compile(r"(?:class|struct|union|enum|using|typedef|friend)\b")
ENUM_DEF = re.compile(r"\benum\s+class\s+(\w+)[^{;]*\{([^}]*)\}")
INT_TYPE = (r"(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t"
            r"|unsigned(?:\s+(?:long|int|short))?|long(?:\s+long)?(?:\s+int)?"
            r"|int|short)")
PARAM_DECL = re.compile(
    r"(?:^|[(,])\s*(?:const\s+)?(" + INT_TYPE + r")\s+&?\s*([A-Za-z_]\w*)"
    r"\s*(?=[,)=]|$)")
MEMBER_DECL = re.compile(
    r"^(?:static\s+|mutable\s+|constexpr\s+|const\s+)*(" + INT_TYPE +
    r")\s+([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;{}]*\})?;$")
# Names that say "client/round/seq id or byte count"; cardinalities stay
# bare integers on purpose.
STRONG_NAME = re.compile(r"^(client|client_id|round|round_id|seq|seq_no"
                         r"|seqno|(?:\w+_)?bytes?|byte_count)$")
STRONG_EXEMPT = re.compile(r"^(rounds|num_\w+|\w*count\w*|\w*frames?\w*"
                           r"|seed\w*|dims?|n|shards?|stride\w*|\w*per_\w+)$")


class Tree:
    """All files of one run plus the cross-file tables rules share."""

    def __init__(self, files):
        loaded = [SourceFile(rel, text) for rel, text in sorted(files.items())]
        self.files = {f.rel: f for f in loaded
                      if f.top not in REFERENCE_TREES}
        self.references = [f for f in loaded if f.top in REFERENCE_TREES]
        self.unordered = {rel: unordered_names(f.code)
                          for rel, f in self.files.items()}
        self.provided = {}
        self.enums = {}
        for f in self.under("src/transport", "src/wire"):
            for m in ENUM_DEF.finditer(f.code):
                members = {p.split("=")[0].strip()
                           for p in m.group(2).split(",")}
                members = {p for p in members if re.fullmatch(r"\w+", p)}
                if members:
                    self.enums[m.group(1)] = members
        self.public_api = self._public_api()

    def under(self, *dirs):
        return [f for f in self.files.values() if f.under(*dirs)]

    def _public_api(self):
        """({class: {method: access}}, {free function}) declared in the
        src/core and src/fl headers, for entry-check."""
        classes, free = {}, set()
        for f in self.under("src/core", "src/fl"):
            if f.rel.count("/") != 2 or not f.name.endswith(".h"):
                continue
            for name, open_, close, default in f.classes:
                methods = classes.setdefault(name, {})
                for _line, stmt, access in f.members(open_, close, default):
                    for m in CALL_NAME.finditer(stmt.split("{")[0]):
                        if m.group(1).lstrip("~") not in KEYWORDS:
                            methods.setdefault(m.group(1), access)
            for _off, stmt in f.statements():
                m = CALL_NAME.search(stmt.split("{")[0])
                if m and m.group(1) not in KEYWORDS:
                    free.add(m.group(1))
        return classes, free


def check_file(tree, f):
    """Yields (rule, line, message) for every per-file rule in scope."""
    for rule, check in CHECKS:
        if RULE_SCOPES[rule](f):
            for line, msg in check(tree, f):
                yield rule, line, msg


def line_rule(patterns, message, first_only=False):
    def check(tree, f):
        for line, text in enumerate(f.code_lines, 1):
            for pattern, label in patterns:
                if pattern.search(text):
                    yield line, message.format(label)
                    if first_only:
                        break
    return check


def isa_dispatch(tree, f):
    for line, text in enumerate(f.code_lines, 1):
        for patterns, homes in ISA_DISPATCH:
            if f.rel in homes:
                continue
            label = next((label for pattern, label in patterns
                          if pattern.search(text)), None)
            if label:
                yield line, (f"'{label}' outside {' and '.join(homes)}; "
                             "src/tensor/simd.h picks the instruction set "
                             "once per process for the GEMM and activation "
                             "kernels")
                break


def raw_mutex(tree, f):
    for line, text in enumerate(f.code_lines, 1):
        m = RAW_SYNC.search(text)
        if m:
            yield line, (f"raw '{m.group()}' outside src/util/annotations.h; "
                         "use apf::util::Mutex / MutexLock / CondVar so Clang "
                         "Thread Safety Analysis can see the lock")


def test_include(tree, f):
    for line, text in enumerate(f.lines, 1):
        if TEST_INCLUDE.search(text):
            yield line, "library sources must not include test headers"


def float_accumulator(tree, f):
    lines = f.code_lines
    for m in FLOAT_DECL.finditer(f.code):
        if m.group(1) != "float" or not m.group(3):
            continue
        name, decl = m.group(2), f.line_of(m.start())
        accum = re.compile(rf"\b{re.escape(name)}\s*\+=")
        depth = 0
        for j in range(decl, len(lines)):
            depth += lines[j].count("{") - lines[j].count("}")
            if depth < 0:
                break
            if accum.search(lines[j]):
                yield decl, (f"'float {name} = 0' is accumulated with '+=' "
                             f"at line {j + 1}; reductions must accumulate "
                             "in double (cast once at the end)")
                break


def unordered_iteration(tree, f):
    module = f.rel.rsplit("/", 1)[0] + "/"
    names = set().union(*(n for rel, n in tree.unordered.items()
                          if rel.startswith(module)))
    alt = "|".join(map(re.escape, sorted(names))) or r"(?!)"
    ranged = re.compile(r":\s*(" + alt + r")\s*\)")
    begin = re.compile(r"\b(" + alt + r")\s*\.\s*c?(?:begin|end)\s*\(")
    for line, text in enumerate(f.code_lines, 1):
        loop = re.search(r"\bfor\s*\(", text)
        hit = "unordered container" if loop and UNORDERED.search(text) else \
            next((m.group(1) for m in (ranged.search(text) if loop else None,
                                       begin.search(text)) if m), None)
        if hit:
            yield line, (f"iteration over unordered container '{hit}': hash "
                         "order is not deterministic across platforms and "
                         "insertion histories; iterate a sorted view")


def unguarded_members(tree, f):
    for cls, open_, close, default in f.classes:
        members = list(f.members(open_, close, default))
        if not any(MUTEX_MEMBER.match(stmt) for _l, stmt, _a in members):
            continue
        for line, stmt, _access in members:
            if not re.match(r"[A-Za-z_~]", stmt) or MEMBER_SKIP.match(stmt) \
                    or SYNC_MEMBER.match(stmt):
                continue
            sans = re.sub(r"\bAPF_[A-Z_]+\s*\([^()]*\)", " ", stmt)
            if "(" in sans or not sans.endswith(";") or \
                    "GUARDED_BY" in stmt:
                continue
            yield line, (f"member of '{cls}' (which owns a Mutex) has no "
                         "APF_GUARDED_BY/APF_PT_GUARDED_BY; declare what "
                         "protects it")


def requires_doc(tree, f):
    """APF_REQUIRES hands a locking obligation to the caller: a public or
    namespace-scope declaration needs a '//' comment directly above."""
    decls = [(f.line_of(off + len(s) - len(s.lstrip())), s)
             for off, s in f.statements()]
    for _cls, open_, close, default in f.classes:
        decls += [(line, s) for line, s, access in
                  f.members(open_, close, default) if access == "public"]
    for line, stmt in decls:
        head = stmt.split("{")[0]
        if "APF_REQUIRES" not in head or line > 1 and \
                f.lines[line - 2].lstrip().startswith("//"):
            continue
        yield line + head[:head.index("APF_REQUIRES")].count("\n"), (
            "public function with APF_REQUIRES must document the lock the "
            "caller has to hold ('//' comment directly above the "
            "declaration) or become non-public")


def entry_check(tree, f):
    classes, free = tree.public_api
    anon = [(m.end(), match_brace(f.code, m.end() - 1))
            for m in re.finditer(r"\bnamespace\s*\{", f.code)]
    for fn in f.funcs:
        p = fn.params_text.strip()
        if not p or p == "void" or not fn.body.strip() or \
                any(s <= fn.head < e for s, e in anon) or \
                any(c[1] <= fn.head < c[2] for c in f.classes) or \
                f.in_function(fn.head):
            continue
        if fn.cls is not None:
            access = classes.get(fn.cls, {}).get(fn.name)
            if access not in (None, "public") or access is None and \
                    not fn.name[0].isupper() and fn.name != fn.cls:
                continue
        elif fn.name not in free:
            continue
        if INPUT_CHECK.search(fn.body):
            continue
        yield fn.line, (f"public entry point '{fn.qname}' takes arguments "
                        "but never validates them (APF_CHECK, "
                        "require_round_inputs or an APF_DEBUG check)")


def exhaustive_dispatch(tree, f):
    code = f.code
    for m in re.finditer(r"\bswitch\s*\(", code):
        close = match_brace(code, m.end() - 1)
        body = re.match(r"\s*\{", code[close + 1:]) if close != -1 else None
        if not body:
            continue
        open_ = close + body.end()
        text = code[open_ + 1:match_brace(code, open_)]
        governed, named = None, set()
        for label in re.findall(r"\bcase\s+([\w:]+)\s*:", text):
            parts = label.split("::")
            if len(parts) > 1 and parts[-1] in tree.enums.get(parts[-2], ()):
                governed = parts[-2]
                named.add(parts[-1])
        if governed is None:
            continue
        default = re.search(r"\bdefault\s*:", text)
        if default:
            yield f.line_of(open_ + 1 + default.start()), (
                f"switch over {governed} has a 'default:' label; dispatch "
                "over a wire/transport enum must name every enumerator and "
                "reject unknown values explicitly before the switch")
        missing = tree.enums[governed] - named
        if missing:
            yield f.line_of(m.start()), (
                f"switch over {governed} does not handle "
                f"{', '.join(sorted(missing))}; every enumerator needs an "
                "explicit case")


def strong_hit(name):
    base = name.rstrip("_").lower()
    return not STRONG_EXEMPT.match(base) and STRONG_NAME.match(base)


def strong_type(tree, f):
    advice = "use ClientId/RoundId/SeqNo/ByteCount from util/ids.h"
    for m in re.finditer(r"\(", f.code):
        close = match_brace(f.code, m.start())
        params = f.code[m.end():close]
        if close == -1 or "\n\n" in params or f.in_function(m.start()):
            continue
        for p in PARAM_DECL.finditer(params):
            if strong_hit(p.group(2)):
                yield f.line_of(m.end() + p.start(2)), (
                    f"parameter '{p.group(1)} {p.group(2)}' is a bare "
                    f"integer id/byte count; {advice}")
    for _cls, open_, close, default in f.classes:
        for line, stmt, _access in f.members(open_, close, default):
            d = MEMBER_DECL.match(stmt)
            if d and strong_hit(d.group(2)):
                yield line, (f"member '{d.group(1)} {d.group(2)}' is a bare "
                             f"integer id/byte count; {advice}")


def provided_names(f):
    """Names a header offers its includers (over-approximated)."""
    names = set(re.findall(r"#\s*define\s+(\w+)", f.text))
    for pattern in (
            r"\b(?:class|struct|enum(?:\s+class)?|union)\s+([A-Za-z_]\w*)",
            r"\busing\s+([A-Za-z_]\w*)\s*=",
            r"\busing\s+[\w:]*::([A-Za-z_]\w*)\s*;",
            r"\btypedef\b[^;]*\b([A-Za-z_]\w*)\s*;",
            r"\b(?:constexpr|const|inline|extern)\b[^;(){}=]*"
            r"\b([A-Za-z_]\w*)\s*[={]",
            r"\b([A-Za-z_]\w*)\s*\("):
        names |= set(re.findall(pattern, f.code))
    return names - KEYWORDS - {""}


def dead_include(tree, f):
    """A project include none of whose provided names the includer uses.
    Umbrella headers and a file's own interface header are exempt."""
    body = PROJECT_INCLUDE.sub("", f.code)
    if not re.search(r"[A-Za-z_]", re.sub(r"#\s*pragma[^\n]*", "", body)):
        return
    used = set(re.findall(r"[A-Za-z_]\w*", body))
    folder = f.rel.rsplit("/", 1)[0]
    for m in PROJECT_INCLUDE.finditer(f.text):
        inc = m.group(1)
        target = next((tree.files[c] for c in (
            "src/" + inc, folder + "/" + inc, inc) if c in tree.files), None)
        if target is None or target.name.rsplit(".", 1)[0] == \
                f.name.rsplit(".", 1)[0]:
            continue
        if target.rel not in tree.provided:
            tree.provided[target.rel] = provided_names(target)
        provided = tree.provided[target.rel]
        if provided and not provided & used:
            yield f.line_of(m.start(1)), (
                f'include "{inc}" appears unused (none of its '
                f"{len(provided)} provided names are referenced)")


CHECKS = (
    ("determinism", line_rule(
        DETERMINISM, "'{}' breaks bit-reproducibility; route all randomness "
        "through apf::Rng (src/util/rng.h)")),
    ("concurrency-hygiene", line_rule(
        CONCURRENCY, "'{}' outside src/util/thread_pool.*; use the "
        "deterministic ThreadPool (ad-hoc threads reintroduce thread-count-"
        "dependent results)", first_only=True)),
    ("libm-tanh", line_rule(
        LIBM_TANH, "'{}' calls libm; use apf::tanh (tensor/activations.h), "
        "which gives the same bits vectorized", first_only=True)),
    ("libm-exp", line_rule(
        LIBM_EXP, "'{}' calls libm; use apf::exp or apf::sigmoid "
        "(tensor/activations.h), which give the same bits vectorized",
        first_only=True)),
    ("isa-dispatch", isa_dispatch),
    ("capability-raw-mutex", raw_mutex),
    ("test-include", test_include),
    ("float-accumulator", float_accumulator),
    ("unordered-iteration", unordered_iteration),
    ("capability-unguarded-member", unguarded_members),
    ("capability-requires-doc", requires_doc),
    ("entry-check", entry_check),
    ("fold-determinism", flow.fold_local),
    ("exhaustive-dispatch", exhaustive_dispatch),
    ("strong-type", strong_type),
    ("dead-include", dead_include),
)


def declared_function(stmt):
    """(qualifier, name, name offset) for a statement that declares or
    defines a function a test-only-api finding may name, else None:
    operators, destructors and override, final, pure, deleted or
    defaulted functions are reached through their base or the language."""
    def blank(m):
        return " " * len(m.group())

    head = re.sub(r"\[\[.*?\]\]", blank, TEMPLATE_PREFIX.sub(blank, stmt, 1))
    for m in reversed(list(ATTRIBUTE.finditer(head))):
        end = match_brace(head, m.end() - 1) + 1 or len(head)
        head = head[:m.start()] + " " * (end - m.start()) + head[end:]
    for m in FUNC_HEAD.finditer(head):
        name, before = m.group(1), head[:m.start()]
        if re.search(r"\boperator\b|=|~\s*$", before) or name == "operator":
            return None
        if name in KEYWORDS or before.count("<") > before.count(">"):
            continue
        close = match_brace(head, m.end() - 1)
        tail = re.split(r"[{;]", head[close + 1:], 1)[0] if close != -1 \
            else ""
        if re.search(r"\b(?:override|final)\b|=\s*(?:0|delete|default)\s*$",
                     tail):
            return None
        qual = re.search(r"([A-Za-z_]\w*)\s*::\s*$", before)
        return qual.group(1) if qual else None, name, m.start()
    return None


def words(text, name):
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def test_only_api(tree):
    """Namespace-scope classes, free functions and public member functions
    declared in a src/ header that nothing outside tests/ references.
    Name-based, like dead-include: a name is live when src/, bench/,
    examples/, fuzz/ or perfbench/ use it more often than its own
    declaration statements and out-of-line definitions mention it."""
    decls = []  # (file, line, label, name) per candidate
    own = collections.Counter()  # mentions inside declarations/definitions
    for f in tree.under("src"):
        header = RULE_SCOPES["test-only-api"](f)
        for off, stmt in f.statements():
            body = TEMPLATE_PREFIX.sub("", stmt, 1)
            off += len(stmt) - len(body)
            cls = CLASS_HEAD.match(body)
            if cls and header:
                name = cls.group(2)
                decls.append((f, f.line_of(off + cls.start(2)), name, name))
                own[name] += words(body, name)
                close = match_brace(f.code, off + cls.end() - 1)
                for line, member, access in f.members(
                        off + cls.end(), close, "private" if
                        cls.group(1) == "class" else "public"):
                    fn = None if NESTED_DECL.match(member) else \
                        declared_function(member)
                    if access == "public" and fn and fn[1] != name:
                        decls.append((f, line + member[:fn[2]].count("\n"),
                                      f"{name}::{fn[1]}", fn[1]))
                        own[fn[1]] += words(member, fn[1])
                continue
            forward = re.match(r"(?:class|struct)\s+(\w+)\s*;", body)
            if forward:
                own[forward.group(1)] += 1
            fn = None if cls or forward else declared_function(body)
            if not fn:
                continue
            qual, name, at = fn
            own[name] += words(body, name)
            if qual and qual != name:
                own[qual] += words(body, qual)
            elif header:
                decls.append((f, f.line_of(off + at), name, name))
    used = collections.Counter()
    for f in list(tree.files.values()) + tree.references:
        if f.top != "tests":
            used.update(re.findall(r"[A-Za-z_]\w*", f.code))
    for f, line, label, name in decls:
        if used[name] <= own[name]:
            yield f.rel, line, (
                f"'{label}' is referenced only from tests/ (or nowhere): "
                "nothing in src/, bench/, examples/, fuzz/ or perfbench/ "
                "uses it; delete it with its tests")


def module_of(rel):
    """('module', name) for src files, ('tool', tree) for tool trees."""
    parts = rel.split("/")
    if parts[0] in TOOL_TREES:
        return "tool", parts[0]
    if parts[0] == "src":
        parts = parts[1:]
    return ("module", parts[0]) if parts and parts[0] in MODULE_LEVELS \
        else (None, None)


def layering(tree):
    """Include-graph checks over src/ plus the tool trees: levels, tool
    independence, and file-level cycles. Node keys are the strings the
    includes use: 'util/rng.h' for src, 'fuzz/targets.h' for tools."""
    edges, where = {}, {}
    hierarchy = " < ".join(sorted(MODULE_LEVELS, key=MODULE_LEVELS.get))
    for f in tree.files.values():
        if not RULE_SCOPES["layering"](f):
            continue
        key = f.rel[4:] if f.top == "src" else f.rel
        where[key] = f.rel
        kind, own = module_of(f.rel)
        out = edges.setdefault(key, [])
        for line, text in enumerate(f.lines, 1):
            m = re.search(r'#\s*include\s+"([^"]+)"', text)
            if not m or text.lstrip().startswith("//"):
                continue
            target = m.group(1)
            tkind, tgt = module_of(target)
            if tkind is None:
                continue
            out.append((line, target))
            if kind == "tool" and tkind == "tool" and tgt != own:
                msg = (f"tool tree '{own}' must not include '{target}' from "
                       f"tool tree '{tgt}'; fuzz/bench/examples stay "
                       "independently buildable, so shared code moves to src/")
            elif kind == "module" and tkind == "tool":
                msg = (f"src module '{own}' must not include '{target}' from "
                       f"tool tree '{tgt}'; the library cannot depend on its "
                       "own tooling")
            elif kind == "module" and tgt != own and \
                    MODULE_LEVELS[tgt] >= MODULE_LEVELS[own]:
                msg = (f"module '{own}' (level {MODULE_LEVELS[own]}) must not "
                       f"include '{target}' from module '{tgt}' (level "
                       f"{MODULE_LEVELS[tgt]}); the hierarchy is {hierarchy}")
            else:
                continue
            yield f.rel, line, msg
    state = {}
    for start in sorted(edges):
        if start in state:
            continue
        stack, path = [(start, iter(edges[start]))], [start]
        state[start] = "open"
        while stack:
            node, it = stack[-1]
            for line, target in it:
                if state.get(target) == "open":
                    cycle = path[path.index(target):] + [target]
                    yield where[node], line, \
                        "include cycle: " + " -> ".join(cycle)
                elif target in edges and target not in state:
                    state[target] = "open"
                    stack.append((target, iter(edges[target])))
                    path.append(target)
                    break
            else:
                state[node] = "done"
                stack.pop()
                path.pop()


def analyze(files, wire_doc=""):
    """Runs every rule over {rel path: text}; returns sorted Findings."""
    tree = Tree(files)
    raw = []
    for f in tree.files.values():
        raw += [Finding(f.rel, line, "waiver", msg)
                for line, msg in f.parse_waivers(RULES)]
        raw += [Finding(f.rel, line, rule, msg)
                for rule, line, msg in check_file(tree, f)]
    raw += [Finding(path, line, "layering", msg)
            for path, line, msg in layering(tree)]
    raw += [Finding(path, line, "test-only-api", msg)
            for path, line, msg in test_only_api(tree)]
    structural = [f for f in tree.files.values() if f.top in STRUCTURAL]
    raw += [Finding(path, line, rule, msg) for rule, path, line, msg
            in flow.check(structural, RULE_SCOPES)]
    raw += [Finding(path, line, "wire-size", msg) for path, line, msg
            in wire.check([f for f in tree.files.values()
                           if RULE_SCOPES["wire-size"](f)], wire_doc)]
    return sorted(f for f in set(raw)
                  if not tree.files[f.path].waived(f.line, f.rule))
