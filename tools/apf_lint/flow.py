"""Effects over a name-resolved call graph, and the rules built on them:
atomic-reject, fold-determinism and frozen-write.

Each function gets direct effects (members and reference parameters it
writes, a member or caller-owned Rng it draws, a hash-order iteration).
Propagation unions callee effects into callers until nothing changes, and
each propagated effect carries a provenance string, so a finding reads as
a call chain. Overloads are merged by simple name; unresolved callees are
assumed pure; receivers are classified lexically (a trailing underscore is
a member, a parameter name is caller state, anything else is local).
"""

import re

from source import (CHECK_CALL, float_names, match_brace, split_top,
                    unordered_names)

ENTRY_POINTS = ("synchronize", "encode_push", "begin_fold", "fold_push",
                "finish_fold", "apply_pull")
# Where a sync hook can still reject its round: a validation call, or
# delegating the round to another hook, which then owns the rejection.
VALIDATION = re.compile(CHECK_CALL + r"|->\s*(?:" + "|".join(ENTRY_POINTS) +
                        r")\s*\(")
FOLD_ROOTS = ("begin_fold", "fold_push", "finish_fold")
FOLD_CLASSES = ("StreamingAggregator", "BufferedAggregator")
ASSIGN = r"(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=)"
MEMBER_WRITE = re.compile(r"\b([A-Za-z_]\w*_)\s*" + ASSIGN)
MUTATOR_CALL = re.compile(
    r"\b([A-Za-z_][\w.]*(?:->[\w.]*)?)\s*(?:\.|->)\s*"
    r"(?:push_back|emplace_back|assign|clear|resize|insert|erase|reset"
    r"|set|fill|flip|or_with|and_with|pop_back|store)\s*\(")
RNG_DRAW = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:normal|bernoulli|uniform|uniform_int"
    r"|next|next_u32|next_u64|next_double|shuffle|gaussian)\s*\(")
CALL = re.compile(r"(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?\b([A-Za-z_]\w*)\s*\(")
FROZEN_NAME = re.compile(r"(?:^|_)(frozen|mask|masked|excluded)(?:_|\d|$)",
                         re.I)
CAST = re.compile(r"\b(?:static_cast|std::size_t)\s*"
                  r"(?:<[^<>]*(?:<[^<>]*>)?[^<>]*>)?\s*\(")


def base_ident(arg):
    """The object a call argument names (what a mutating callee touches)."""
    t = CAST.sub("(", re.sub(r"\bstd::move\s*\(", "(", arg))
    m = re.match(r"[A-Za-z_]\w*", t.lstrip(" \t\n(&*"))
    return m.group() if m else ""


def direct_effects(f, unordered):
    """Fills f's aliases, direct writes, rng draws and call sites."""
    body = f.body
    f.local_rngs = set(re.findall(r"\bRng\s+([A-Za-z_]\w*)", body))
    params = f.mut_param_names()
    rng_params = {p[0]: i for i, p in enumerate(f.params) if p[2]}
    f.aliases, f.members, f.mut_params, f.calls = {}, set(), set(), []
    f.rng_member, f.hash_why = False, ""

    def alias(name, source):
        base = base_ident(source)
        if base in params:
            f.aliases[name] = ("param", params[base])
        elif base.endswith("_"):
            f.aliases[name] = ("member", base)

    for m in re.finditer(r"\bfor\s*\(", body):
        close = match_brace(body, m.end() - 1)
        parts = re.split(r"(?<!:):(?!:)", body[m.end():close], maxsplit=1)
        if close == -1 or len(parts) != 2 or ";" in parts[0] + parts[1]:
            continue
        if "unordered_" in parts[1] or base_ident(parts[1]) in unordered:
            f.hash_why = f.hash_why or ("range-for over unordered container "
                                        f"'{base_ident(parts[1])}'")
        decl = re.search(r"([A-Za-z_]\w*)\s*$", parts[0].strip())
        if decl and "&" in parts[0] and not re.search(r"\bconst\b", parts[0]):
            alias(decl.group(1), parts[1])
    for m in re.finditer(r"\bauto\s*&\s*([A-Za-z_]\w*)\s*=\s*([^;]+);", body):
        alias(m.group(1), m.group(2))

    f.members = {m.group(1) for m in MEMBER_WRITE.finditer(body)}
    f.targets = dict(params)
    f.targets.update({a: r[1] for a, r in f.aliases.items() if r[0] == "param"})
    for _off, name in writes_to(body, f.targets):
        f.mut_params.add(f.targets[name])
    for m in MUTATOR_CALL.finditer(body):
        base = base_ident(m.group(1))
        if base in f.targets:
            f.mut_params.add(f.targets[base])
        elif member_ref(f, base):
            f.members.add(f.aliases.get(base, (0, base))[1])
    for m in RNG_DRAW.finditer(body):
        if m.group(1) in f.local_rngs:
            continue
        if m.group(1).endswith("_"):
            f.rng_member = True
            f.members.add(m.group(1))
        elif m.group(1) in rng_params:
            f.mut_params.add(rng_params[m.group(1)])
    for m in CALL.finditer(body):
        close = match_brace(body, m.end() - 1)
        if close != -1:
            args = [a.strip() for a in split_top(body[m.end():close], ",")]
            f.calls.append((m.start(), m.group(1), m.group(2),
                            [a for a in args if a]))
    # Transitive effects start as the direct ones.
    f.t_member = (f"writes member '{sorted(f.members)[0]}'"
                  if f.members else "")
    f.t_params = {j: f"writes its parameter #{j}" for j in f.mut_params}
    f.t_rng = "draws from its member rng" if f.rng_member else ""
    f.t_hash = f.hash_why


def writes_to(body, targets, limit=None):
    """(offset, name) for assignments to the `targets` names."""
    if not targets:
        return []
    pat = re.compile(r"\b(" + "|".join(map(re.escape, sorted(targets))) +
                     r")\s*(?:\[[^\]]*\])?\s*" + ASSIGN)
    return [(m.start(), m.group(1))
            for m in pat.finditer(body, 0, len(body) if limit is None
                                  else limit)]


def member_ref(f, name):
    """True when `name` is member state inside f (directly or aliased)."""
    return name == "this" or name.endswith("_") or \
        f.aliases.get(name, ("",))[0] == "member"


def member_call(f, recv, g):
    """True when calling g from f runs on f's own object."""
    return (recv is not None and member_ref(f, recv)) or (
        recv is None and g.cls is not None and g.cls == f.cls)


def callees(graph, name):
    return [g for g in graph.get(name, ()) if g.cls != g.name]


def propagate(funcs, graph):
    """Fixed point of effect propagation over the call graph."""
    changed = True
    while changed:
        changed = False
        for f in funcs:
            rng_params = {p[0] for p in f.params if p[2]}
            site = f.file.rel
            for _off, recv, name, args in f.calls:
                for g in callees(graph, name):
                    if g.t_member and member_call(f, recv, g) and \
                            not f.t_member:
                        f.t_member = f"calls {g.qname} [{site}] → {g.t_member}"
                        changed = True
                    for j, why in list(g.t_params.items()):
                        if j >= len(args):
                            continue
                        base = base_ident(args[j])
                        ref = f.aliases.get(base)
                        if member_ref(f, base) and not f.t_member:
                            f.t_member = (f"passes member '{base}' to "
                                          f"{g.qname} [{site}] → {why}")
                            changed = True
                        idx = f.mut_param_names().get(
                            base, ref[1] if ref and ref[0] == "param"
                            else None)
                        if idx is not None and idx not in f.t_params:
                            f.t_params[idx] = (f"passes it to {g.qname} "
                                               f"[{site}] → {why}")
                            changed = True
                    if g.t_rng and not f.t_rng:
                        f.t_rng = f"calls {g.qname} [{site}] → {g.t_rng}"
                        changed = True
                    for i, p in enumerate(g.params):
                        if not f.t_rng and p[2] and i < len(args):
                            b = base_ident(args[i])
                            if b not in f.local_rngs and (
                                    b.endswith("_") or b in rng_params):
                                f.t_rng = (f"passes stateful rng '{b}' to "
                                           f"{g.qname} [{site}]")
                                changed = True
                    if g.t_hash and not f.t_hash:
                        f.t_hash = f"calls {g.qname} [{site}] → {g.t_hash}"
                        changed = True


def atomic_reject(f, graph):
    """Caller-visible state mutated before the first validation call of a
    sync hook: directly, through an alias or reference parameter, by a
    member rng draw, or one or more helper calls deep."""
    first = VALIDATION.search(f.body)
    if f.name not in ENTRY_POINTS or not first:
        return
    limit = first.start()
    for m in MEMBER_WRITE.finditer(f.body, 0, limit):
        yield m.start(), (f"{f.qname}() writes member '{m.group(1)}' before "
                          "the first validation call; a rejection after this "
                          "point leaves the round half-committed (stage "
                          "locally, validate, then commit)")
    for off, name in writes_to(f.body, set(f.targets) | set(f.aliases),
                               limit):
        kind = "member state" if member_ref(f, name) else "caller proposal"
        yield off, (f"{f.qname}() writes {kind} '{name}' before the first "
                    "validation call; a rejected round must leave "
                    "caller-visible state untouched")
    for m in MUTATOR_CALL.finditer(f.body, 0, limit):
        base = base_ident(m.group(1))
        if base in f.targets or member_ref(f, base):
            yield m.start(), (f"{f.qname}() mutates '{m.group(1)}' before "
                              "the first validation call; a rejected round "
                              "must leave caller-visible state untouched")
    for m in RNG_DRAW.finditer(f.body, 0, limit):
        if m.group(1).endswith("_"):
            yield m.start(), (f"{f.qname}() advances member rng "
                              f"'{m.group(1)}' before the first validation "
                              "call; a rejected round must not consume "
                              "randomness (stage a local copy, commit on "
                              "success)")
    for off, recv, name, args in f.calls:
        if off >= limit or (recv is not None and name in ENTRY_POINTS):
            continue  # delegating the round to another hook validates it
        cands = callees(graph, name)
        hit = next((g for g in cands if g.t_member and
                    member_call(f, recv, g)), None)
        if hit:
            yield off, (f"{f.qname}() calls {hit.qname}() before the first "
                        "validation call, and that call mutates member state "
                        f"({hit.t_member}); stage locally, validate, then "
                        "commit")
            continue
        # Overloads resolve by name only, so a parameter write must hold
        # for every candidate.
        mutated = set.intersection(*(set(g.t_params) for g in cands)) \
            if cands else set()
        for j in sorted(j for j in mutated if j < len(args)):
            base = base_ident(args[j])
            ref = f.aliases.get(base)
            what = ("member" if member_ref(f, base) else "caller proposal"
                    if base in f.mut_param_names() or ref else None)
            if what:
                yield off, (f"{f.qname}() passes {what} '{base}' to "
                            f"{cands[0].qname}() before the first validation "
                            f"call, which mutates it ({cands[0].t_params[j]});"
                            " stage locally, validate, then commit")
                break


def fold_roots(f):
    """Fold paths must not reach a stateful rng draw or hash order."""
    if f.name not in FOLD_ROOTS and f.cls not in FOLD_CLASSES:
        return
    if f.t_rng:
        yield f.head, (f"fold path {f.qname}() reaches a stateful rng draw "
                       f"({f.t_rng}); fold results must be bit-identical "
                       "across runs, so derive randomness from a locally "
                       "seeded Rng")
    if f.t_hash:
        yield f.head, (f"fold path {f.qname}() reaches a hash-order "
                       f"iteration ({f.t_hash}); fold in a deterministic "
                       "order (ascending client order)")


def fold_local(tree, f):
    """Float accumulation whose order is hash order or lane order."""
    code, floats = f.code, float_names(f.code)
    unordered = tree.unordered[f.rel]

    def accumulations(start, end, where, local):
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\+=", code[start:end]):
            name = m.group(1)
            if name not in local and (name in floats or name.endswith("_")):
                yield f.line_of(start + m.start()), (
                    f"float accumulation into '{name}' {where}; fold in a "
                    "deterministic order instead (StreamingAggregator, or "
                    "per-slot commit + ordered reduction)")

    for m in re.finditer(r"\bfor\s*\(", code):
        close = match_brace(code, m.end() - 1)
        header = code[m.end():close] if close != -1 else ";"
        body = re.match(r"\s*\{", code[close + 1:])
        if ":" not in header or ";" in header or not body:
            continue
        expr = header.split(":", 1)[1]
        if "unordered_" in expr or any(
                re.search(r"\b" + re.escape(v) + r"\b", expr)
                for v in unordered):
            open_ = close + body.end()
            end = match_brace(code, open_)
            local = set(re.findall(r"\b(?:float|double|auto)\s+"
                                   r"([A-Za-z_]\w*)\s*=", code[open_:end]))
            yield from accumulations(
                open_, end, "inside a range-for over an unordered container",
                local)
    for m in re.finditer(r"\b(?:parallel_for|submit)\s*\(", code):
        close = match_brace(code, m.end() - 1)
        lam = re.search(r"\[[^\]]*\]", code[m.end():close])
        open_ = code.find("{", m.end() + lam.end(), close) if lam else -1
        end = match_brace(code, open_) if open_ != -1 else -1
        if end == -1 or end > close:
            continue
        local = set(re.findall(
            r"\b(?:float|double|auto|int|std::size_t|std::uint64_t"
            r"|std::uint32_t|size_t)\s+&?\s*([A-Za-z_]\w*)", code[open_:end]))
        params = re.search(r"\(([^()]*)\)", code[m.end() + lam.end():open_])
        if params:
            local |= set(re.findall(r"([A-Za-z_]\w*)\s*(?:,|$)",
                                    params.group(1)))
        yield from accumulations(
            open_ + 1, end, "inside a lambda run on thread-pool lanes (lane "
            "scheduling order is nondeterministic)", local)


def frozen_path(text):
    return any(FROZEN_NAME.search(p) for p in re.split(r"\.|->", text))


def frozen_write(f, graph):
    """Frozen/masked state is written only through the mask-owning APIs in
    src/core; locals (staged copies) are exempt."""
    names = {p[0] for p in f.params}

    def visible(base):
        return base.endswith("_") or base in names or base in f.aliases

    for m in MUTATOR_CALL.finditer(f.body):
        if frozen_path(m.group(1)) and visible(base_ident(m.group(1))):
            yield m.start(), (f"{f.qname}() mutates frozen/masked state "
                              f"'{m.group(1)}' outside src/core; frozen "
                              "coordinates must be bit-stable between syncs, "
                              "so go through ApfManager instead")
    for m in re.finditer(r"\b([A-Za-z_][\w.]*(?:->[\w.]*)?)\s*"
                         r"(?:\[[^\]]*\])?\s*" + ASSIGN, f.body):
        if frozen_path(m.group(1)) and visible(base_ident(m.group(1))):
            yield m.start(), (f"{f.qname}() assigns to frozen/masked state "
                              f"'{m.group(1)}' outside src/core; frozen "
                              "coordinates must be bit-stable between syncs")
    for m in re.finditer(r"\bconst_cast\s*<[^>]*>\s*\([^()]*"
                         r"(?:frozen_mask|frozen_anchor)\s*\(", f.body):
        yield m.start(), (f"{f.qname}() const_casts a frozen-state accessor; "
                          "the frozen mask/anchor is read-only outside "
                          "src/core")
    for off, _recv, name, args in f.calls:
        for g in callees(graph, name):
            for j, why in g.t_params.items():
                if j < len(args) and frozen_path(args[j]) and \
                        visible(base_ident(args[j])):
                    yield off, (f"{f.qname}() passes frozen/masked state "
                                f"'{args[j]}' to {g.qname}() which mutates "
                                f"it ({why}); frozen coordinates must be "
                                "bit-stable between syncs")


def check(files, scopes):
    """Yields (rule, path, line, message) for the call-graph rules."""
    unordered = set().union(*(unordered_names(f.code) for f in files))
    funcs = [g for f in files for g in f.funcs]
    graph = {}
    for g in funcs:
        direct_effects(g, unordered)
        graph.setdefault(g.name, []).append(g)
    propagate(funcs, graph)
    seen = set()
    for g in funcs:
        f = g.file
        for rule, walk, body_relative in (
                ("atomic-reject", atomic_reject, True),
                ("fold-determinism", lambda g, _graph: fold_roots(g), False),
                ("frozen-write", frozen_write, True)):
            if scopes[rule](f):
                for off, msg in walk(g, graph):
                    line = f.line_of(g.body_start + off if body_relative
                                     else off)
                    if (rule, f.rel, line) not in seen:
                        seen.add((rule, f.rel, line))
                        yield rule, f.rel, line, msg
