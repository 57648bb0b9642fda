"""The wire-size prover behind the `wire-size` rule.

For every `encode_*` in src/wire/ that builds a local ByteWriter, walk its
writer calls symbolically (loops, BitWriter bit totals, same-file helper
inlining) into a closed-form byte count, then check it against

  1. the size column of docs/WIRE.md's format table, and
  2. the paired decoder's bounds checks (`require`, `raw`,
     `remaining() == ...`): every variable term must be guarded.

Sizes are linear expressions over symbols plus ceil-division terms,
normalized by gcd so 2·dim bits and ⌈dim/4⌉ bytes compare equal. Symbols
unify with the documented field names through header writes and decoder
reads bound positionally to the layout column, and through
`APF_CHECK(a == b)` equalities. `pack_unfrozen(...)` is the opaque
`unfrozen` count; `dim − mask.count()` on the decoder side becomes it.
"""

import math
import re

from source import match_brace, split_top
from flow import CAST

WIDTHS = {"u8": 1, "u16": 2, "u32": 4, "u64": 8, "f32": 4}
CONST = ()
PATH = re.compile(r"[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*")
TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*"
                   r"|[()+\-*/,])")
DOC_ROW = re.compile(r"^\|\s*`(\w{4})`\s*\|([^|]*)\|([^|]*)\|([^|]*)\|")
EVENT = re.compile(
    r"\bfor\s*\(|\bif\s*\(|\bwhile\s*\(|\bswitch\s*\("
    r"|\bBitWriter\s+([A-Za-z_]\w*)"
    r"|\b([A-Za-z_]\w*)\s*\.\s*(u8|u16|u32|u64|f32|raw|put|require)\s*\("
    r"|\b(?:const\s+)?(?:auto|std::[\w:<>]+|[A-Za-z_]\w*(?:<[^;<>]*>)?)\s+"
    r"([A-Za-z_]\w*)\s*=\s*"
    r"|\b([A-Za-z_]\w*)\s*\(")
SCALAR_READ = re.compile(r"([A-Za-z_][\w.]*(?:->[\w.]*)?)\s*=\s*([A-Za-z_]\w*)"
                         r"\s*\.\s*(u8|u16|u32|u64|f32)\s*\(\s*\)")
LOCAL_DECL = re.compile(r"\b(?:const\s+)?(?:auto|std::[\w:<>]+|[A-Za-z_]\w*)"
                        r"\s+([A-Za-z_]\w*)\s*=\s*([^;]+);")

# Size expressions are {term: coefficient}; a term is a sorted tuple of
# symbols (CONST for the constant) or ('ceil', numerator key, divisor).


def add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def scale(a, k):
    return {t: c * k for t, c in a.items()} if k else {}


def mul(a, b):
    """Product; None when a ceil term meets a non-constant."""
    for x, y in ((a, b), (b, a)):
        if any(t and t[0] == "ceil" for t in x):
            return None if set(y) - {CONST} else scale(x, y.get(CONST, 0))
    out = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            out = add(out, {tuple(sorted(t1 + t2)): c1 * c2})
    return out


def key(e):
    return tuple(sorted(e.items(), key=repr))


def const(c):
    return {CONST: c} if c else {}


def ceil(num, div):
    """⌈num/div⌉ normalized by gcd."""
    g = div
    for c in num.values():
        g = math.gcd(g, abs(c))
    num, div = {t: c // g for t, c in num.items()}, div // g
    if div == 1 or not num:
        return num
    if set(num) == {CONST}:
        return const(-(-num[CONST] // div))
    return {("ceil", key(num), div): 1}


def divide(num, div):
    """C++ division by a constant: (A + div-1)/div is a ceil, an exactly
    divisible expression divides through, anything else is unprovable."""
    if num.get(CONST, 0) == div - 1:
        return ceil({t: v for t, v in num.items() if t != CONST}, div)
    if all(v % div == 0 for v in num.values()):
        return {t: v // div for t, v in num.items()}
    return None


def show(e):
    parts = []
    for t, c in sorted(e.items(), key=repr):
        s = str(c) if t == CONST else (
            f"⌈({show(dict(t[1]))})/{t[2]}⌉" if t[0] == "ceil"
            else "·".join(t))
        parts.insert(0, s) if t == CONST else parts.append(
            s if c == 1 else f"{c}·{s}")
    return " + ".join(parts) or "0"


class Unifier:
    """Union-find over symbols; documented field names win as reps."""

    def __init__(self):
        self.parent = {}

    def find(self, a):
        self.parent.setdefault(a, a)
        while self.parent[a] != a:
            a = self.parent[a] = self.parent[self.parent[a]]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra.startswith("doc:"):
                ra, rb = rb, ra
            self.parent[ra] = rb

    def canon(self, e):
        out = {}
        for t, c in e.items():
            if t and t[0] == "ceil":
                t = ("ceil", key(self.canon(dict(t[1]))), t[2])
            else:
                t = tuple(sorted(self.find(s).removeprefix("doc:")
                                 for s in t))
            out = add(out, {t: c})
        return rewrite_unfrozen(out)


def rewrite_unfrozen(e):
    """dim·c − count-of-mask·c → unfrozen·c (the decoder's arithmetic for
    the quantity pack_unfrozen defines on the encoder side)."""
    terms = dict(e)
    for t, c in [(t, c) for t, c in e.items()
                 if len(t) == 1 and t[0].startswith("cnt:") and c < 0]:
        mate = next((u for u, d in terms.items() if len(u) == 1 and u != t
                     and d == -c and u[0] != "unfrozen"
                     and not u[0].startswith(("cnt:", "len:"))), None)
        if mate:
            del terms[t], terms[mate]
            terms = add(terms, {("unfrozen",): -c})
    return terms


class Ctx:
    """Textual parameter substitutions (inlined helpers), parsed local
    aliases and BitWriter bit totals of one walk."""

    def __init__(self, subst=None, bitwriters=None):
        self.subst, self.aliases = subst or {}, {}
        self.bitwriters = {} if bitwriters is None else bitwriters

    def path(self, p):
        base, sep, rest = p.replace("->", ".").partition(".")
        return self.subst.get(base, base).replace("->", ".") + sep + rest


def parse(text, ctx):
    """Parses a C++ size expression or a doc formula; None if unprovable."""
    text = CAST.sub("(", text)
    toks, i = [], 0
    while i < len(text):
        m = TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                return None
            break
        toks.append(m.group(1))
        i = m.end()
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        pos[0] += 1
        return toks[pos[0] - 1] if pos[0] <= len(toks) else None

    def binary(operand, ops):
        e = operand()
        while e is not None and peek() in ops:
            op, r = take(), operand()
            if r is None:
                return None
            if op in ("+", "-"):
                e = add(e, r if op == "+" else scale(r, -1))
            elif op == "*":
                e = mul(e, r)
            else:
                e = divide(e, r[CONST]) if set(r) == {CONST} else None
        return e

    def factor():
        t = take()
        if t == "(":
            e = binary(lambda: binary(factor, ("*", "/")), ("+", "-"))
            return e if take() == ")" else None
        if t is None or not re.match(r"\w", t):
            return None
        if t.isdigit():
            return const(int(t))
        if peek() != "(":
            p = ctx.path(t)
            return dict(ctx.aliases[p]) if p in ctx.aliases else {(p,): 1}
        take()
        args, depth, cur = [], 1, []
        while True:
            nt = take()
            if nt is None:
                return None
            depth += (nt == "(") - (nt == ")")
            if depth == 0 or (nt == "," and depth == 1):
                args.append(" ".join(cur))
                cur = []
                if depth == 0:
                    return call(t, args, ctx)
            else:
                cur.append(nt)

    e = binary(lambda: binary(factor, ("*", "/")), ("+", "-"))
    return e if e is not None and pos[0] == len(toks) else None


def call(path, args, ctx):
    obj, _sep, method = path.replace("->", ".").rpartition(".")
    if obj and method in ("size", "length", "count", "popcount", "to_bytes"):
        sym = {(("len:" if method in ("size", "length", "to_bytes") else
                 "cnt:") + ctx.path(obj),): 1}
        return ceil(sym, 8) if method == "to_bytes" else sym
    if method == "take" and obj in ctx.bitwriters:
        return ceil(ctx.bitwriters[obj], 8)
    if path == "pack_unfrozen":
        return {("unfrozen",): 1}
    if path in ("packed_bytes", "ceildiv") and len(args) == 2:
        a, b = parse(args[0], ctx), parse(args[1], ctx)
        if a is None or b is None:
            return None
        if path == "ceildiv":
            return ceil(a, b[CONST]) if set(b) == {CONST} else None
        prod = mul(a, b)
        return None if prod is None else ceil(prod, 8)
    return None


def parse_doc(doc):
    """tag -> (layout scalars [(name, width)], size expr, size text)."""
    rows = {}
    for line in doc.split("\n"):
        m = DOC_ROW.match(line.strip())
        if not m:
            continue
        tag, _payload, layout, size = m.groups()
        formula = size.strip().replace("·", "*")
        formula = re.sub(r"⌈(.*)/\s*(\d+)\s*⌉", r" ceildiv( \1 , \2 ) ",
                         formula)
        formula = parse(re.sub(r"⌈(.*)⌉", r"( \1 )", formula), Ctx())
        if formula is not None:
            scalars = [re.fullmatch(r"(\w+)\s+(u8|u16|u32|u64|f32)",
                                    part.strip()) for part in layout.split(",")]
            rows[tag] = ([m.groups() for m in scalars if m], formula,
                         size.strip())
    return rows


def atom(e):
    """The symbol of a one-symbol expression with coefficient 1, or None."""
    if e and len(e) == 1:
        (t, c), = e.items()
        if c == 1 and len(t) == 1:
            return t[0]
    return None


def equalities(body, ctx, unifier):
    """APF_CHECK(a == b) unifies two single-symbol sides."""
    for m in re.finditer(r"\bAPF_CHECK(?:_MSG)?\s*\(", body):
        close = match_brace(body, m.end() - 1)
        sides = split_top(split_top(body[m.end():close], ",")[0], "==")
        atoms = [atom(parse(side, ctx)) for side in sides]
        if close != -1 and len(sides) == 2 and None not in atoms:
            unifier.union(*atoms)


def statement_end(body, start):
    """(start, end) of the statement at `start`: a braced block or up to
    the first top-level ';'."""
    i = len(body) - len(body[start:].lstrip(" \t\n"))
    if body.startswith("{", i):
        close = match_brace(body, i)
        return i + 1, close if close != -1 else len(body)
    depth = 0
    for j in range(i, len(body)):
        depth += (body[j] in "([{") - (body[j] in ")]}")
        if body[j] == ";" and depth == 0:
            return i, j + 1
    return i, len(body)


class Walk:
    def __init__(self, unifier, helpers, tags):
        self.unifier, self.helpers, self.tags = unifier, helpers, tags
        self.size, self.header, self.errors = {}, [], []
        self.tag, self.guards, self.reads = None, [], []

    def inline(self, name, args, obj, ctx):
        """(params' substitutions, the param `obj` binds to) for a helper."""
        params, _body = self.helpers[name]
        subst, bound = {}, None
        for p, a in zip(params, args):
            a = ctx.subst.get(a.strip(), a.strip())
            subst[p] = a
            bound = p if a == obj else bound
        return subst, bound

    def encoder(self, body, writer, ctx, mult, depth=0):
        """Accumulates the byte count of the writer calls in `body`."""
        if depth > 6:
            self.errors.append("helper inlining too deep")
            return
        unit = key(mult) == key(const(1))
        i = 0
        while True:
            m = EVENT.search(body, i)
            if not m:
                return
            text, i = m.group(), m.end()
            if text.startswith(("for", "if", "while", "switch")):
                close = match_brace(body, m.end() - 1)
                if close == -1:
                    return
                start, i = statement_end(body, close + 1)
                inner = body[start:i]
                if not text.startswith("for"):
                    if self.writes(inner, writer):
                        self.errors.append(
                            "conditional writer call — size is data-dependent")
                    continue
                header = body[m.end():close]
                trip = None
                if ";" in header:
                    parts = header.split(";")
                    bound = re.match(r"\s*\w+\s*<\s*(.+)", parts[1])
                    if re.search(r"=\s*0\s*$", parts[0].strip()) and bound \
                            and len(parts) > 2:
                        trip = parse(bound.group(1), ctx)
                else:
                    parts = re.split(r"(?<!:):(?!:)", header, maxsplit=1)
                    rng = parts[1].strip() if len(parts) == 2 else ""
                    trip = {("unfrozen",): 1} if re.fullmatch(
                        r"pack_unfrozen\s*\(.*\)", rng, re.S) else (
                        {("len:" + ctx.path(rng),): 1}
                        if PATH.fullmatch(rng) else None)
                inner_mult = mul(mult, trip) if trip is not None else None
                if trip is None and self.writes(inner, writer):
                    self.errors.append(
                        "cannot derive the trip count of the loop at "
                        f"'for ({header.strip()[:40]}…)'")
                elif inner_mult is None and trip is not None:
                    self.errors.append("nested variable-trip loops")
                elif trip is not None:
                    self.encoder(inner, writer, ctx, inner_mult, depth + 1)
            elif m.group(1):
                ctx.bitwriters[m.group(1)] = {}
            elif m.group(2):
                obj, method = ctx.subst.get(m.group(2), m.group(2)), m.group(3)
                close = match_brace(body, m.end() - 1)
                if close == -1:
                    return
                args = split_top(body[m.end():close], ",")
                i = close + 1
                if obj == writer and method in WIDTHS:
                    self.size = add(self.size, scale(mult, WIDTHS[method]))
                    if unit:
                        self.header.append((method, args[0]))
                elif obj == writer and method == "raw":
                    arg = args[0].strip()
                    e = raw_length(arg, ctx)
                    prod = mul(mult, e) if e is not None else None
                    if prod is None:
                        self.errors.append(f"raw({arg[:40]}) has no derivable "
                                           "length")
                    else:
                        self.size = add(self.size, prod)
                elif method == "put" and m.group(2) in ctx.bitwriters:
                    w = parse(args[1], ctx) if len(args) > 1 else None
                    bits = mul(mult, w) if w is not None else None
                    if bits is None:
                        self.errors.append(f"{m.group(2)}.put() width is not "
                                           "derivable")
                    else:
                        ctx.bitwriters[m.group(2)] = add(
                            ctx.bitwriters[m.group(2)], bits)
            elif m.group(4):
                _s, i = statement_end(body, m.end())
                e = parse(body[m.end():i].rstrip(";"), ctx)
                if e is not None:
                    ctx.aliases[m.group(4)] = e
            elif m.group(5):
                close = match_brace(body, m.end() - 1)
                if close == -1:
                    continue
                i = close + 1
                if m.group(5) not in self.helpers:
                    continue
                subst, bound = self.inline(
                    m.group(5), split_top(body[m.end():close], ","), writer,
                    ctx)
                if bound is not None:
                    ctx2 = Ctx(subst, ctx.bitwriters)
                    hbody = self.helpers[m.group(5)][1]
                    equalities(hbody, ctx2, self.unifier)
                    self.encoder(hbody, bound, ctx2, mult, depth + 1)

    def writes(self, region, writer):
        return bool(re.search(r"\b" + re.escape(writer) + r"\s*\.", region)
                    or re.search(r"\b\w+\s*\.\s*put\s*\(", region))

    def decoder(self, body, reader, ctx, depth=0):
        """Collects ordered scalar reads and guard expressions."""
        if depth > 4:
            return
        events = [(m.start(), "read", m) for m in SCALAR_READ.finditer(body)
                  if ctx.subst.get(m.group(2), m.group(2)) == reader]
        events += [(m.start(), "guard", m) for m in re.finditer(
            r"\b([A-Za-z_]\w*)\s*\.\s*(?:require|raw)\s*\(", body)
            if ctx.subst.get(m.group(1), m.group(1)) == reader]
        events += [(m.start(), "alias", m) for m in LOCAL_DECL.finditer(body)]
        events += [(m.start(), "tag", m) for m in re.finditer(
            r"\bcheck_tag\s*\(\s*(\w+)\s*,\s*(\w+)", body)]
        events += [(m.start(), "call", m) for m in re.finditer(
            r"\b([A-Za-z_]\w*)\s*\(", body) if m.group(1) in self.helpers]
        events += [(m.start(), "remaining", m) for m in re.finditer(
            r"remaining\s*\(\s*\)\s*==\s*([A-Za-z_][\w.]*)"
            r"|([A-Za-z_][\w.]*)\s*==\s*[A-Za-z_]\w*\s*\.\s*remaining\s*\(",
            body)]
        for _off, kind, m in sorted(events, key=lambda e: e[0]):
            if kind == "read":
                self.reads.append((m.group(3), m.group(1).replace("->", ".")))
            elif kind == "tag" and ctx.subst.get(m.group(1),
                                                 m.group(1)) == reader:
                self.tag = self.tags.get(m.group(2), self.tag)
                self.reads.append(("u32", "tag"))
            elif kind == "alias":
                e = parse(m.group(2), ctx)
                if e is not None:
                    ctx.aliases[m.group(1)] = e
            elif kind in ("guard", "remaining"):
                close = match_brace(body, m.end() - 1) if kind == "guard" \
                    else None
                e = parse(body[m.end():close] if kind == "guard"
                          else m.group(1) or m.group(2), ctx) \
                    if close != -1 else None
                if e is not None:
                    self.guards.append(e)
            elif kind == "call":
                close = match_brace(body, m.end() - 1)
                if close == -1:
                    continue
                subst, bound = self.inline(
                    m.group(1), split_top(body[m.end():close], ","), reader,
                    ctx)
                if bound is not None:
                    self.decoder(self.helpers[m.group(1)][1], bound,
                                 Ctx(subst), depth + 1)


def raw_length(arg, ctx):
    """Bytes a writer.raw(arg) call appends: take()/to_bytes()/alias
    expressions resolve to byte counts, a plain span to its length."""
    e = parse(arg, ctx)
    if PATH.fullmatch(arg) and (e is None or "." not in arg and
                                arg not in ctx.aliases):
        return {("len:" + ctx.path(arg),): 1}
    return e


def tag_constants(code):
    """Constant name -> 4-char ASCII tag (little-endian u32)."""
    out = {}
    for m in re.finditer(r"\b(k\w*Tag\w*|kTag\w+)\s*=\s*0[xX]([0-9A-Fa-f]{8})",
                         code):
        chars = int(m.group(2), 16).to_bytes(4, "little")
        if chars.isascii():
            out[m.group(1)] = chars.decode("ascii")
    return out


def check(files, doc):
    """Yields (path, line, message) for each encoder whose derived size
    disagrees with docs/WIRE.md or its decoder's bounds checks."""
    rows = parse_doc(doc)
    for f in files:
        tags = tag_constants(f.code)
        funcs = {g.name: g for g in f.funcs}
        helpers = {n: ([p[0] for p in g.params], g.body)
                   for n, g in funcs.items()}
        for name, g in sorted(funcs.items()):
            body = g.body
            writer = re.search(r"\bByteWriter\s+(\w+)\s*;", body)
            if not name.startswith("encode_") or not writer:
                continue
            unifier = Unifier()
            enc, ctx = Walk(unifier, helpers, tags), Ctx()
            equalities(body, ctx, unifier)
            enc.encoder(body, writer.group(1), ctx, const(1))
            tag = None
            if enc.header and enc.header[0][0] == "u32" and \
                    enc.header[0][1].strip() in tags:
                tag = tags[enc.header.pop(0)[1].strip()]
            # A dropped tag header must still find its documented row, so
            # fall back to the paired decoder's tag check.
            dec = Walk(unifier, helpers, tags)
            dec_name = "decode_" + name[len("encode_"):]
            if dec_name in funcs:
                dparams, dbody = helpers[dec_name]
                reader = re.search(r"\bByteReader\s+(\w+)\s*\(", dbody)
                reader = reader.group(1) if reader else (
                    dparams[0] if dparams else None)
                if reader:
                    dctx = Ctx()
                    equalities(dbody, dctx, unifier)
                    dec.decoder(dbody, reader, dctx)
                eq = re.search(r"\btag\s*==\s*(\w+)", dbody)
                tag = tag or dec.tag or (tags.get(eq.group(1)) if eq else None)
            if tag not in rows:
                yield f.rel, g.line, (
                    f"{name}() encodes an undocumented format (tag {tag!r} "
                    "has no row in docs/WIRE.md's table); document the "
                    "layout and size formula")
                continue
            scalars, documented, text = rows[tag]
            if enc.errors:
                yield f.rel, g.line, (f"{name}() size is not statically "
                                      "derivable: " +
                                      "; ".join(sorted(set(enc.errors))))
                continue
            for (width, arg), (field, doc_width) in zip(enc.header, scalars):
                if width != doc_width:
                    yield f.rel, g.line, (
                        f"{name}() writes header field '{field}' as {width} "
                        f"but docs/WIRE.md documents it as {doc_width} "
                        "(element-width/scale-factor mismatch)")
                symbol = atom(parse(arg, ctx))
                if symbol:
                    unifier.union(symbol, "doc:" + field)
            reads = [r for r in dec.reads if r[1] != "tag"]
            for (width, lval), (field, doc_width) in zip(reads, scalars):
                if width == doc_width:
                    unifier.union(lval, "doc:" + field)
            derived = unifier.canon(enc.size)
            documented = unifier.canon(documented)
            if key(derived) != key(documented):
                yield f.rel, g.line, (
                    f"{name}() encodes {show(derived)} byte(s) but "
                    f"docs/WIRE.md documents {tag} as {text} "
                    f"(= {show(documented)}); a frame size that drifts from "
                    "its documented formula is a byte-accounting bug")
                continue
            guards = {key(unifier.canon(e)) for e in dec.guards}
            var = {t: c for t, c in derived.items() if t != CONST}
            missing = [show({t: c}) for t, c in var.items()
                       if key({t: c}) not in guards and key(var) not in guards]
            if dec_name in funcs and missing:
                yield f.rel, g.line, (
                    f"{dec_name}() never bounds-checks "
                    f"{', '.join(sorted(missing))} before reading it (no "
                    "matching require()/raw()/remaining() guard)")
