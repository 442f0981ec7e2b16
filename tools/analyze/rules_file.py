"""Per-file passes for tcomp-analyze.

The six rules migrated off the regex engine (no-throw, no-crt-rand,
unordered-iter, shard-unordered, no-naked-new, sqrt-eps) plus the
token-level halves of the new concurrency/nondeterminism audits
(atomic-order, atomic-strong-order, wallclock, addr-order), and the
scope rules of the ε kernels (soa-raw-loop, cell-grid) and of the event
loop (nonblocking-io).

Every pass receives the project (for paired-header name sets), the file
model, and a `report(rule, line, message)` callback; the engine applies
the `// tcomp-lint: allow(<rule>): <reason>` suppression contract.
"""

_LIB_TOPS = ("src", "tools")

_CRT_RAND_CALLS = frozenset(["rand", "srand", "drand48", "lrand48"])
_CRT_RAND_TYPES = frozenset(
    ["random_device", "mt19937", "mt19937_64", "default_random_engine",
     "minstd_rand", "minstd_rand0"])
_UNORDERED_TYPES = frozenset(
    ["unordered_map", "unordered_set", "unordered_multimap",
     "unordered_multiset"])
# Accessors known (by project convention) to expose an unordered
# container; a linter's name model cannot see through return types.
_UNORDERED_ACCESSORS = frozenset(["entries"])

_CMP_OPS = frozenset(["<", ">", "<=", ">="])

_ATOMIC_EXPLICIT_OPS = frozenset(
    ["load", "store", "exchange", "test_and_set",
     "compare_exchange_weak", "compare_exchange_strong"])
_ATOMIC_RMW_OPS = frozenset(
    ["fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor"])
_RELAXED = "memory_order_relaxed"

_CLOCK_IDENTS = frozenset(
    ["system_clock", "steady_clock", "high_resolution_clock",
     "gettimeofday", "clock_gettime", "localtime", "gmtime"])
# Files/directories sanctioned to read wall clocks: the timer utility and
# the monitoring/service layers, whose latencies are *about* real time.
_CLOCK_EXEMPT_PREFIXES = ("src/util/timer.h", "src/obs/", "src/service/")


def _top(rel):
    return rel.split("/", 1)[0]


def _in_lib(rel):
    return _top(rel) in _LIB_TOPS


# ---- no-throw ----------------------------------------------------------


def pass_no_throw(project, rel, fm, report):
    if _top(rel) != "src":
        return
    for tok in fm.code:
        if tok.kind == "ident" and tok.text == "throw":
            report("no-throw", tok.line,
                   "library code must return Status, not throw")


# ---- no-crt-rand -------------------------------------------------------


def pass_no_crt_rand(project, rel, fm, report):
    code = fm.code
    for i, tok in enumerate(code):
        if tok.kind != "ident":
            continue
        if tok.text in _CRT_RAND_CALLS:
            nxt = code[i + 1] if i + 1 < len(code) else None
            if nxt and nxt.text == "(":
                report("no-crt-rand", tok.line,
                       "'%s' is nondeterministic or platform-varying; use "
                       "tcomp::Pcg32 (util/random.h)" % tok.text)
        elif tok.text in _CRT_RAND_TYPES:
            report("no-crt-rand", tok.line,
                   "'%s' is nondeterministic or platform-varying; use "
                   "tcomp::Pcg32 (util/random.h)" % tok.text)


# ---- shard-unordered ---------------------------------------------------


def pass_shard_unordered(project, rel, fm, report):
    if not rel.startswith("src/shard/"):
        return
    for tok in fm.code:
        if tok.kind == "ident" and tok.text in _UNORDERED_TYPES:
            report("shard-unordered", tok.line,
                   "hash-ordered container on the shard path; the merge "
                   "contract is byte-identical output at any shard count "
                   "— use a sorted vector or std::map, or annotate why "
                   "hash order cannot reach the merge")


# ---- unordered-iter ----------------------------------------------------


def pass_unordered_iter(project, rel, fm, report):
    if not _in_lib(rel):
        return
    unordered = project.known_names(rel, "unordered")
    for line, expr in fm.range_fors:
        hit = _range_expr_unordered(expr, unordered)
        if hit:
            report("unordered-iter", line,
                   "range-for over %s iterates in hash order; sort first "
                   "or annotate why order cannot reach an output/ordering "
                   "path" % hit)


def _range_expr_unordered(expr, unordered_vars):
    texts = [t.text for t in expr]
    if "[" in texts:
        return None  # map[key] iterates the mapped value, not the map
    if "(" in texts:
        # Calls are matched only against the known unordered accessors,
        # spelled `obj.entries()` / `obj->entries()` at the tail.
        for i, t in enumerate(expr):
            if (t.kind == "ident" and t.text in _UNORDERED_ACCESSORS
                    and i >= 1 and expr[i - 1].text in (".", "->")
                    and i + 2 < len(expr) and expr[i + 1].text == "("
                    and expr[i + 2].text == ")"
                    and i + 3 == len(expr)):
                return "'%s()' (unordered by convention)" % t.text
        return None
    for t in expr:
        if t.kind == "ident" and t.text in _UNORDERED_TYPES:
            return "an unordered container"
    hits = sorted(t.text for t in expr
                  if t.kind == "ident" and t.text in unordered_vars)
    if hits:
        return "'%s'" % hits[0]
    return None


# ---- no-naked-new ------------------------------------------------------


def pass_no_naked_new(project, rel, fm, report):
    if not _in_lib(rel):
        return
    code = fm.code
    for i, tok in enumerate(code):
        if tok.kind != "ident":
            continue
        if tok.text == "new":
            report("no-naked-new", tok.line,
                   "naked 'new'; use std::make_unique or a container")
        elif tok.text == "delete":
            prev = code[i - 1] if i > 0 else None
            if prev and prev.text == "=":
                continue  # `= delete` declaration
            nxt = code[i + 1] if i + 1 < len(code) else None
            if nxt and nxt.text == "[":
                report("no-naked-new", tok.line,
                       "naked 'delete[]'; use std::vector or "
                       "std::unique_ptr[]")
            else:
                report("no-naked-new", tok.line,
                       "naked 'delete'; owning pointers must be smart "
                       "pointers")


# ---- sqrt-eps ----------------------------------------------------------

_SQRT_EPS_MSG = (
    "root distance compared against an ε threshold; decide membership "
    "through the shared WithinEps (core/dbscan.h) on squared distances, "
    "or annotate why the exact root is required")


def _is_eps_ident(text):
    return text.startswith("eps") or text.startswith("Eps") or (
        "epsilon" in text.lower())


def _statements(code):
    """Splits the code token stream into statement-sized runs at `;`,
    `{`, `}` — the granularity the sqrt-eps heuristics reason over."""
    stmt = []
    for tok in code:
        if tok.kind == "punct" and tok.text in (";", "{", "}"):
            if stmt:
                yield stmt
                stmt = []
        else:
            stmt.append(tok)
    if stmt:
        yield stmt


def _root_call_idx(stmt):
    """Index of a root-taking call (`sqrt(` / `Distance(`) in the
    statement, or -1. SquaredDistance/SegmentDistance stay out: they are
    different metrics with their own thresholds."""
    for i, tok in enumerate(stmt):
        if (tok.kind == "ident" and tok.text in ("sqrt", "Distance")
                and i + 1 < len(stmt) and stmt[i + 1].text == "("):
            return i
    return -1


def pass_sqrt_eps(project, rel, fm, report):
    if not _in_lib(rel):
        return
    stmts = list(_statements(fm.code))
    pending = []  # (var_name, statements_left) from assign-then-compare
    for stmt in stmts:
        texts = [t.text for t in stmt]
        has_cmp = any(t.kind == "punct" and t.text in _CMP_OPS
                      for t in stmt)
        has_eps = any(t.kind == "ident" and _is_eps_ident(t.text)
                      for t in stmt)
        root = _root_call_idx(stmt)
        if root >= 0 and has_cmp and has_eps:
            report("sqrt-eps", stmt[root].line, _SQRT_EPS_MSG)
        # Track `double d = Distance(...);`-style assignments so a compare
        # against ε a few statements later is still caught.
        if root >= 0:
            for i, tok in enumerate(stmt):
                if (tok.kind == "ident"
                        and tok.text in ("double", "float", "auto")
                        and i + 1 < len(stmt)
                        and stmt[i + 1].kind == "ident"
                        and i + 2 < len(stmt)
                        and stmt[i + 2].text == "="):
                    pending.append([stmt[i + 1].text, 8])
                    break
        else:
            for entry in pending:
                name = entry[0]
                if (name in texts and has_cmp and has_eps):
                    idx = texts.index(name)
                    report("sqrt-eps", stmt[idx].line, _SQRT_EPS_MSG)
                    entry[1] = 0
        pending = [[n, left - 1] for n, left in pending if left > 1]


# ---- atomic-order / atomic-strong-order --------------------------------


def _receiver_is_atomic(code, i, atomics):
    """`code[i]` is the `.` / `->` before an op name: walk the receiver
    chain back over `]`/`)` groups to its tail identifier."""
    j = i - 1
    depth = 0
    while j >= 0:
        t = code[j]
        if t.kind == "punct" and t.text in ("]", ")"):
            depth += 1
        elif t.kind == "punct" and t.text in ("[", "("):
            depth -= 1
        elif depth == 0:
            break
        j -= 1
    return j >= 0 and code[j].kind == "ident" and code[j].text in atomics


def _call_arg_tokens(code, i):
    """`code[i]` is the `(` opening a call: returns the argument tokens."""
    depth = 0
    args = []
    while i < len(code):
        t = code[i]
        if t.kind == "punct":
            if t.text == "(":
                depth += 1
                if depth == 1:
                    i += 1
                    continue
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return args
        args.append(t)
        i += 1
    return args


def pass_atomic_order(project, rel, fm, report):
    if not _in_lib(rel):
        return
    atomics = project.known_names(rel, "atomic")
    code = fm.code
    strong_scope = _top(rel) == "src"
    for i, tok in enumerate(code):
        if tok.kind != "ident":
            continue
        is_rmw = tok.text in _ATOMIC_RMW_OPS
        is_explicit = tok.text in _ATOMIC_EXPLICIT_OPS
        if is_rmw or is_explicit:
            if (i == 0 or code[i - 1].text not in (".", "->")
                    or i + 1 >= len(code) or code[i + 1].text != "("):
                continue
            # fetch_*/compare_exchange are unambiguous atomic ops;
            # load/store/exchange must resolve to a declared atomic so
            # `framer.load(path)`-style methods stay out.
            if is_explicit and tok.text in ("load", "store", "exchange"):
                if not _receiver_is_atomic(code, i - 1, atomics):
                    continue
            args = _call_arg_tokens(code, i + 1)
            orders = [t.text for t in args if t.kind == "ident"
                      and t.text.startswith("memory_order")]
            if not orders:
                report("atomic-order", tok.line,
                       "atomic %s() with defaulted (seq_cst) memory "
                       "order; every atomic op must name its order "
                       "explicitly — std::memory_order_relaxed unless "
                       "this is an annotated synchronization point"
                       % tok.text)
            elif strong_scope and any(o != _RELAXED for o in orders):
                report("atomic-strong-order", tok.line,
                       "memory order stronger than relaxed is a "
                       "synchronization point; annotate what it pairs "
                       "with (allow(atomic-strong-order): <pairing>)")
            continue
        # Operator forms on declared atomics (`v++`, `++v`, `v += n`,
        # `v = x`) are sequentially consistent and cannot name an order.
        if tok.text in atomics:
            prev = code[i - 1] if i > 0 else None
            nxt = code[i + 1] if i + 1 < len(code) else None
            if prev and prev.kind == "punct" and prev.text in ("++", "--"):
                report("atomic-order", tok.line,
                       "'%s%s' on an atomic is seq_cst; use "
                       "fetch_add/fetch_sub with an explicit order"
                       % (prev.text, tok.text))
            elif nxt and nxt.kind == "punct" and nxt.text in (
                    "++", "--", "+=", "-=", "|=", "&=", "^="):
                report("atomic-order", tok.line,
                       "'%s%s' on an atomic is seq_cst; use "
                       "fetch_add/fetch_sub with an explicit order"
                       % (tok.text, nxt.text))
            elif (nxt and nxt.kind == "punct" and nxt.text == "="
                  and prev is not None and prev.kind != "ident"
                  and prev.text not in (">", ">>", ",", "(", "<", "::")):
                # Assignment to an atomic outside its declaration is a
                # seq_cst store. Any identifier before the name (`auto d =`,
                # `int64_t d =`, `...> v =`) marks a declaration — of the
                # atomic itself or of a plain local that shares its name.
                report("atomic-order", tok.line,
                       "'%s = ...' on an atomic is a seq_cst store; use "
                       ".store() with an explicit order" % tok.text)


# ---- wallclock ---------------------------------------------------------


def pass_wallclock(project, rel, fm, report):
    if _top(rel) != "src":
        return
    if any(rel.startswith(p) for p in _CLOCK_EXEMPT_PREFIXES):
        return
    for tok in fm.code:
        if tok.kind == "ident" and tok.text in _CLOCK_IDENTS:
            report("wallclock", tok.line,
                   "wall-clock read ('%s') outside util/timer.h, obs/, "
                   "service/: discovery results must be a pure function "
                   "of the input stream — route timing through "
                   "tcomp::Timer or move it to the service/obs layer"
                   % tok.text)


# ---- soa-raw-loop ------------------------------------------------------

_SOA_DIST_CALLS = frozenset(["WithinEps", "SquaredDistance"])
_SOA_SCOPE_PREFIXES = ("src/core/", "src/shard/")
_SOA_RAW_LOOP_MSG = (
    "scalar per-point ε-distance evaluation inside a loop on a snapshot "
    "hot path; stream the candidate batch through EpsFilterGather "
    "(util/eps_filter.h) or internal::SweepNeighborPairs (core/dbscan.h) "
    "so the compare vectorizes, or annotate why this site must stay "
    "scalar")


def _skip_paren_group(code, i):
    """`code[i]` is `(`: returns the index just past the matching `)`."""
    n = len(code)
    depth = 0
    while i < n:
        t = code[i]
        if t.kind == "punct":
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return i


def _loop_extent(code, i):
    """`code[i]` is a `for`/`while`/`do` keyword: returns the index just
    past the construct. Brace bodies run to the matching `}`; braceless
    bodies to the next top-level `;` (nested constructs inside are
    re-visited by their own keyword anyway)."""
    n = len(code)
    j = i + 1
    if code[i].text in ("for", "while") and j < n and code[j].text == "(":
        j = _skip_paren_group(code, j)
    if j < n and code[j].text == "{":
        depth = 0
        k = j
        while k < n:
            t = code[k]
            if t.kind == "punct":
                if t.text == "{":
                    depth += 1
                elif t.text == "}":
                    depth -= 1
                    if depth == 0:
                        k += 1
                        break
            k += 1
        return k
    depth = 0
    k = j
    while k < n:
        t = code[k]
        if t.kind == "punct":
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text == ";" and depth == 0:
                k += 1
                break
        k += 1
    return k


def _mark_loop_region(code, i, in_loop):
    """`code[i]` is a `for`/`while`/`do` keyword. Marks the construct's
    header and body tokens in `in_loop`."""
    for idx in range(i, _loop_extent(code, i)):
        in_loop[idx] = True


def pass_soa_raw_loop(project, rel, fm, report):
    """New scalar distance loops in the SoA-kernel scope (src/core/ and
    src/shard/) bypass the batched ε-filter hot path; every sanctioned
    scalar site (reference backends, fallback branches, anchor probes)
    carries an allow() with its rationale."""
    if not rel.startswith(_SOA_SCOPE_PREFIXES):
        return
    code = fm.code
    n = len(code)
    in_loop = [False] * n
    for i, tok in enumerate(code):
        if tok.kind == "ident" and tok.text in ("for", "while", "do"):
            _mark_loop_region(code, i, in_loop)
    for i, tok in enumerate(code):
        if (tok.kind == "ident" and tok.text in _SOA_DIST_CALLS
                and in_loop[i]
                and i + 1 < n and code[i + 1].text == "("):
            report("soa-raw-loop", tok.line, _SOA_RAW_LOOP_MSG)


# ---- cell-grid ---------------------------------------------------------

_CELL_GRID_MSG = (
    "floor() of a quotient in the ε-kernel scope buckets points into a "
    "private cell grid; ask internal::SweepNeighborPairs (core/dbscan.h), "
    "the one ε-neighborhood builder, for the pairs within a radius, or "
    "annotate why this site must bucket")


def pass_cell_grid(project, rel, fm, report):
    """Private cell grids in the soa-raw-loop scope (src/core/ and
    src/shard/): a `floor` call whose argument divides is a coordinate
    bucketed into a cell. Every "who is within r of whom" question goes
    through the one sweep; its own column bucketing carries the allow()."""
    if not rel.startswith(_SOA_SCOPE_PREFIXES):
        return
    code = fm.code
    n = len(code)
    for i, tok in enumerate(code):
        if (tok.kind == "ident" and tok.text == "floor"
                and i + 1 < n and code[i + 1].text == "("):
            end = _skip_paren_group(code, i + 1)
            if any(t.kind == "punct" and t.text == "/"
                   for t in code[i + 2:end - 1]):
                report("cell-grid", tok.line, _CELL_GRID_MSG)


# ---- nonblocking-io ----------------------------------------------------

_RAW_IO_CALLS = frozenset(
    ["read", "write", "accept", "accept4", "recv", "send"])
_ERRNO_RETRY_IDENTS = frozenset(["EINTR", "EAGAIN", "EWOULDBLOCK"])
_NONBLOCKING_IO_MSG = (
    "raw %s() in src/service/ outside a retry loop that handles "
    "EINTR/EAGAIN: every descriptor on the event-loop path is "
    "nonblocking, so a single attempt silently drops data on a "
    "transient errno — loop until handled, or annotate why one "
    "attempt is safe")


def pass_nonblocking_io(project, rel, fm, report):
    """Raw POSIX I/O calls in the service layer must sit inside a loop
    whose body names EINTR/EAGAIN/EWOULDBLOCK (the retry idiom in
    socket.cc), or carry an allow() with the reason a single shot is
    safe. Method calls (`sock.read(...)`, `out->write(...)`) and
    namespaced functions are not syscalls and stay out."""
    if not rel.startswith("src/service/"):
        return
    code = fm.code
    n = len(code)
    regions = [(i, _loop_extent(code, i)) for i, tok in enumerate(code)
               if tok.kind == "ident" and tok.text in ("for", "while",
                                                       "do")]
    for i, tok in enumerate(code):
        if tok.kind != "ident" or tok.text not in _RAW_IO_CALLS:
            continue
        if i + 1 >= n or code[i + 1].text != "(":
            continue
        prev = code[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "punct" and prev.text in (
                ".", "->"):
            continue
        if prev is not None and prev.text == "::":
            # `ns::read(` is a namespaced function; a *leading* `::read(`
            # is the raw syscall, explicitly qualified.
            before = code[i - 2] if i >= 2 else None
            if before is not None and before.kind == "ident":
                continue
        handled = any(
            start <= i < end and any(
                t.kind == "ident" and t.text in _ERRNO_RETRY_IDENTS
                for t in code[start:end])
            for start, end in regions)
        if not handled:
            report("nonblocking-io", tok.line,
                   _NONBLOCKING_IO_MSG % tok.text)


# ---- addr-order --------------------------------------------------------


def pass_addr_order(project, rel, fm, report):
    if not _in_lib(rel):
        return
    code = fm.code
    n = len(code)
    for i, tok in enumerate(code):
        # std::less<T*> — ordering by pointer value.
        if (tok.kind == "ident" and tok.text == "less"
                and i + 1 < n and code[i + 1].text == "<"):
            j = i + 1
            depth = 0
            saw_star = False
            while j < n:
                t = code[j]
                if t.kind == "punct":
                    if t.text == "<":
                        depth += 1
                    elif t.text in (">", ">>"):
                        depth -= 1 if t.text == ">" else 2
                        if depth <= 0:
                            break
                    elif t.text == "*":
                        saw_star = True
                j += 1
            if saw_star:
                report("addr-order", tok.line,
                       "std::less over a pointer type orders by address; "
                       "addresses vary run to run, so any output derived "
                       "from this order is nondeterministic")
            continue
        # Lambda comparators whose body compares two pointer parameters
        # by value: `[](const T* a, const T* b) { return a < b; }`.
        if tok.kind == "punct" and tok.text == "[" and i + 1 < n:
            ptr_params = _lambda_pointer_params(code, i)
            if ptr_params is None:
                continue
            params, body_start, body_end = ptr_params
            if len(params) < 2:
                continue
            k = body_start
            while k + 2 < body_end:
                a, op, b = code[k], code[k + 1], code[k + 2]
                if (a.kind == "ident" and a.text in params
                        and op.kind == "punct" and op.text in _CMP_OPS
                        and b.kind == "ident" and b.text in params
                        and a.text != b.text):
                    report("addr-order", op.line,
                           "comparator orders pointers by address "
                           "('%s %s %s'); key the comparison on stable "
                           "ids or fields instead"
                           % (a.text, op.text, b.text))
                k += 1


def _lambda_pointer_params(code, i):
    """`code[i]` is `[`. If this introduces a lambda with a parameter
    list, returns ({pointer param names}, body_start, body_end) token
    indices, else None."""
    n = len(code)
    depth = 0
    j = i
    while j < n:  # skip capture list
        t = code[j]
        if t.kind == "punct":
            if t.text == "[":
                depth += 1
            elif t.text == "]":
                depth -= 1
                if depth == 0:
                    break
        j += 1
    if j + 1 >= n or code[j + 1].text != "(":
        return None
    params = set()
    k = j + 1
    depth = 0
    cur = []
    while k < n:
        t = code[k]
        if t.kind == "punct" and t.text == "(":
            depth += 1
            if depth == 1:
                k += 1
                continue
        if t.kind == "punct" and t.text == ")":
            depth -= 1
            if depth == 0:
                break
        if t.kind == "punct" and t.text == "," and depth == 1:
            _add_pointer_param(cur, params)
            cur = []
        else:
            cur.append(t)
        k += 1
    _add_pointer_param(cur, params)
    # Find the body braces (skip mutable/noexcept/-> return type).
    while k < n and code[k].text != "{":
        if code[k].text in (";", ")"):
            pass
        k += 1
    if k >= n:
        return None
    depth = 0
    body_start = k + 1
    while k < n:
        if code[k].kind == "punct":
            if code[k].text == "{":
                depth += 1
            elif code[k].text == "}":
                depth -= 1
                if depth == 0:
                    return (params, body_start, k)
        k += 1
    return None


def _add_pointer_param(tokens, params):
    if any(t.kind == "punct" and t.text == "*" for t in tokens):
        idents = [t.text for t in tokens if t.kind == "ident"]
        if idents:
            params.add(idents[-1])


FILE_PASSES = [
    pass_no_throw,
    pass_no_crt_rand,
    pass_shard_unordered,
    pass_unordered_iter,
    pass_no_naked_new,
    pass_sqrt_eps,
    pass_atomic_order,
    pass_wallclock,
    pass_addr_order,
    pass_soa_raw_loop,
    pass_cell_grid,
    pass_nonblocking_io,
]
