"""Embedded self-test corpus for tcomp-analyze.

Every rule has at least one firing snippet and one clean snippet; the
multi-file cases exercise exactly the cross-file behaviour the regex
engine could not express (paired-header members, include cycles, the
one-level call inlining behind the lock-order pass). The corpus doubles
as the source of the golden findings JSON pinned in tests/golden/.

A case is (name, {relpath: content}, expected rule names). Expectations
are exact: a case firing an *extra* rule is as much a failure as one
that stays silent.
"""

import json
import os
import sys
import tempfile

from .engine import analyze

_SHARD = "src/shard/case.cc"
_SERVICE = "src/service/case.cc"

CASES = [
    # ---- no-throw ----------------------------------------------------
    ("no-throw/fires",
     {"src/case.cc": "void F() { throw 1; }\n"},
     ["no-throw"]),
    ("no-throw/comment-and-string-clean",
     {"src/case.cc":
      "// a comment may say throw freely\n"
      "const char* s = \"don't throw\";\n"
      "const char* r = R\"(throw inside a raw string)\";\n"},
     []),
    ("no-throw/tests-out-of-scope",
     {"tests/case.cc": "void F() { throw 1; }\n"},
     []),
    # ---- no-crt-rand -------------------------------------------------
    ("no-crt-rand/rand-fires",
     {"src/case.cc": "int R() { return rand() % 6; }\n"},
     ["no-crt-rand"]),
    ("no-crt-rand/mt19937-fires-in-tests",
     {"tests/case.cc": "#include <random>\nstd::mt19937 gen(42);\n"},
     ["no-crt-rand"]),
    ("no-crt-rand/pcg-clean",
     {"src/case.cc":
      "int R(tcomp::Pcg32& rng) { return rng.NextInt(6); }\n"},
     []),
    # ---- unordered-iter ----------------------------------------------
    ("unordered-iter/fires",
     {"src/case.cc":
      "std::unordered_map<int, int> m;\n"
      "void F() { for (const auto& [k, v] : m) {} }\n"},
     ["unordered-iter"]),
    ("unordered-iter/paired-header-member-fires",
     {"src/case.h":
      "struct S {\n  std::unordered_map<int, int> window_;\n};\n",
      "src/case.cc":
      "#include \"case.h\"\n"
      "void S_Run(S& s) { for (const auto& [k, v] : s.window_) {} }\n"},
     ["unordered-iter"]),
    ("unordered-iter/allow-clean",
     {"src/case.cc":
      "std::unordered_map<int, int> m;\n"
      "// tcomp-lint: allow(unordered-iter): feeds an order-free sum\n"
      "void F() { for (const auto& [k, v] : m) {} }\n"},
     []),
    ("unordered-iter/subscript-element-clean",
     {"src/case.cc":
      "std::unordered_map<int, std::vector<int>> m;\n"
      "void F() { for (int v : m[3]) {} }\n"},
     []),
    ("unordered-iter/vector-clean",
     {"src/case.cc":
      "std::vector<int> v;\nvoid F() { for (int x : v) {} }\n"},
     []),
    # ---- shard-unordered ---------------------------------------------
    ("shard-unordered/decl-fires",
     {_SHARD: "std::unordered_map<uint32_t, int> owner_;\n"},
     ["shard-unordered"]),
    ("shard-unordered/local-fires",
     {_SHARD:
      "void F() { std::unordered_set<uint32_t> seen; seen.insert(3); }\n"},
     ["shard-unordered"]),
    ("shard-unordered/allow-clean",
     {_SHARD:
      "// tcomp-lint: allow(shard-unordered): drained via sorted copy\n"
      "std::unordered_map<uint32_t, int> owner_;\n"},
     []),
    ("shard-unordered/ordered-clean",
     {_SHARD:
      "std::vector<uint32_t> owner_;\nstd::map<uint32_t, int> rank_;\n"},
     []),
    ("shard-unordered/outside-shard-decl-clean",
     {"src/case.cc":
      "std::unordered_map<int, int> m;\nvoid F() { m[1] = 2; }\n"},
     []),
    # ---- no-naked-new ------------------------------------------------
    ("no-naked-new/new-fires",
     {"src/case.cc": "int* p = new int(3);\n"},
     ["no-naked-new"]),
    ("no-naked-new/delete-fires",
     {"src/case.cc": "void F(int* p) { delete p; }\n"},
     ["no-naked-new"]),
    ("no-naked-new/deleted-fn-clean",
     {"src/case.cc": "struct S { S(const S&) = delete; };\n"},
     []),
    # ---- sqrt-eps ----------------------------------------------------
    ("sqrt-eps/same-stmt-fires",
     {"src/case.cc": "void F() { if (std::sqrt(d2) <= eps) {} }\n"},
     ["sqrt-eps"]),
    ("sqrt-eps/distance-fires",
     {"src/case.cc":
      "void F() { if (Distance(a, b) > params.epsilon) return; }\n"},
     ["sqrt-eps"]),
    ("sqrt-eps/assign-then-compare-fires",
     {"src/case.cc":
      "void F() {\n"
      "  double d = Distance(a.center(), b.center());\n"
      "  if (d - a.radius - b.radius > eps) return;\n"
      "}\n"},
     ["sqrt-eps"]),
    ("sqrt-eps/allow-clean",
     {"src/case.cc":
      "void F() {\n"
      "  double d = Distance(a.center(), b.center());\n"
      "  // tcomp-lint: allow(sqrt-eps): lemma bound needs the true root\n"
      "  if (d - a.radius - b.radius > eps) return;\n"
      "}\n"},
     []),
    ("sqrt-eps/squared-predicate-clean",
     {"src/case.cc":
      "bool In(Point a, Point b, double eps2) {\n"
      "  return SquaredDistance(a, b) <= eps2;\n"
      "}\n"},
     []),
    ("sqrt-eps/root-without-eps-clean",
     {"src/case.cc":
      "void F() { double r = radius * std::sqrt(u); place(r); }\n"},
     []),
    # ---- include-layer -----------------------------------------------
    ("include-layer/upward-fires",
     {"src/core/bad.cc": "#include \"obs/metrics.h\"\nint x = 1;\n"},
     ["include-layer"]),
    ("include-layer/service-above-shard-clean",
     {_SERVICE: "#include \"shard/sharded_engine.h\"\nint x = 1;\n"},
     []),
    ("include-layer/downward-clean",
     {"src/obs/ok.cc": "#include \"core/types.h\"\nint x = 1;\n"},
     []),
    # ---- include-cycle -----------------------------------------------
    ("include-cycle/fires",
     {"src/core/a.h": "#include \"core/b.h\"\n",
      "src/core/b.h": "#include \"core/a.h\"\n"},
     ["include-cycle"]),
    ("include-cycle/chain-clean",
     {"src/core/a.h": "#include \"core/b.h\"\n",
      "src/core/b.h": "#include \"core/c.h\"\n",
      "src/core/c.h": "int c;\n"},
     []),
    # ---- lock-order --------------------------------------------------
    # The PR 5 `Stats()` inversion class, seeded: Stop() takes stop_mu_
    # then state_mu_; Stats() holds state_mu_ while calling a helper
    # that takes stop_mu_. Only the one-level call inlining sees it.
    ("lock-order/stats-inversion-fires",
     {"src/case.cc":
      "#include <mutex>\n"
      "class Pipeline {\n"
      " public:\n"
      "  void Stop() {\n"
      "    std::lock_guard<std::mutex> stop_lock(stop_mu_);\n"
      "    std::lock_guard<std::mutex> lock(state_mu_);\n"
      "    stopped_ = true;\n"
      "  }\n"
      "  int Stats() {\n"
      "    std::lock_guard<std::mutex> lock(state_mu_);\n"
      "    return Collect();\n"
      "  }\n"
      " private:\n"
      "  int Collect() {\n"
      "    std::lock_guard<std::mutex> lock(stop_mu_);\n"
      "    return 1;\n"
      "  }\n"
      "  bool stopped_ = false;\n"
      "  std::mutex stop_mu_;\n"
      "  std::mutex state_mu_;\n"
      "};\n"},
     ["lock-order"]),
    ("lock-order/direct-inversion-fires",
     {"src/case.cc":
      "#include <mutex>\n"
      "struct S {\n"
      "  void A() {\n"
      "    std::lock_guard<std::mutex> l1(mu_a_);\n"
      "    std::lock_guard<std::mutex> l2(mu_b_);\n"
      "  }\n"
      "  void B() {\n"
      "    std::lock_guard<std::mutex> l1(mu_b_);\n"
      "    std::lock_guard<std::mutex> l2(mu_a_);\n"
      "  }\n"
      "  std::mutex mu_a_;\n"
      "  std::mutex mu_b_;\n"
      "};\n"},
     ["lock-order"]),
    ("lock-order/consistent-order-clean",
     {"src/case.cc":
      "#include <mutex>\n"
      "struct S {\n"
      "  void A() {\n"
      "    std::lock_guard<std::mutex> l1(mu_a_);\n"
      "    std::lock_guard<std::mutex> l2(mu_b_);\n"
      "  }\n"
      "  void B() {\n"
      "    std::lock_guard<std::mutex> l1(mu_a_);\n"
      "    std::lock_guard<std::mutex> l2(mu_b_);\n"
      "  }\n"
      "  std::mutex mu_a_;\n"
      "  std::mutex mu_b_;\n"
      "};\n"},
     []),
    ("lock-order/scoped-release-clean",
     {"src/case.cc":
      "#include <mutex>\n"
      "struct S {\n"
      "  void A() {\n"
      "    { std::lock_guard<std::mutex> l1(mu_a_); }\n"
      "    std::lock_guard<std::mutex> l2(mu_b_);\n"
      "  }\n"
      "  void B() {\n"
      "    { std::lock_guard<std::mutex> l1(mu_b_); }\n"
      "    std::lock_guard<std::mutex> l2(mu_a_);\n"
      "  }\n"
      "  std::mutex mu_a_;\n"
      "  std::mutex mu_b_;\n"
      "};\n"},
     []),
    # ---- atomic-order ------------------------------------------------
    ("atomic-order/defaulted-store-fires",
     {"src/case.cc":
      "#include <atomic>\n"
      "std::atomic<bool> stop_{false};\n"
      "void F() { stop_.store(true); }\n"},
     ["atomic-order"]),
    ("atomic-order/operator-form-fires",
     {"src/case.cc":
      "#include <atomic>\n"
      "std::atomic<int> v{0};\n"
      "void F() { v++; }\n"},
     ["atomic-order"]),
    ("atomic-order/relaxed-clean",
     {"src/case.cc":
      "#include <atomic>\n"
      "std::atomic<bool> stop_{false};\n"
      "void F() { stop_.store(true, std::memory_order_relaxed); }\n"
      "bool G() { return stop_.load(std::memory_order_relaxed); }\n"},
     []),
    ("atomic-order/non-atomic-load-clean",
     {"src/case.cc":
      "void F(Checkpoint& c) { c.load(\"path\"); }\n"},
     []),
    # ---- atomic-strong-order -----------------------------------------
    ("atomic-strong-order/unannotated-fires",
     {"src/case.cc":
      "#include <atomic>\n"
      "std::atomic<bool> ready_{false};\n"
      "void F() { ready_.store(true, std::memory_order_release); }\n"},
     ["atomic-strong-order"]),
    ("atomic-strong-order/annotated-clean",
     {"src/case.cc":
      "#include <atomic>\n"
      "std::atomic<bool> ready_{false};\n"
      "void F() {\n"
      "  // tcomp-lint: allow(atomic-strong-order): pairs with Poll()\n"
      "  ready_.store(true, std::memory_order_release);\n"
      "}\n"},
     []),
    # The justification may run over several comment lines: the
    # annotation applies through the contiguous comment block above the
    # finding, not just the single preceding line.
    ("atomic-strong-order/multiline-annotation-clean",
     {"src/case.cc":
      "#include <atomic>\n"
      "std::atomic<bool> ready_{false};\n"
      "void F() {\n"
      "  // tcomp-lint: allow(atomic-strong-order): release pairs with\n"
      "  // the acquire in Poll(); the consumer must observe the buffer\n"
      "  // writes that precede this publish.\n"
      "  ready_.store(true, std::memory_order_release);\n"
      "}\n"},
     []),
    # ---- wallclock ---------------------------------------------------
    ("wallclock/core-fires",
     {"src/core/case.cc":
      "#include <chrono>\n"
      "double Now() {\n"
      "  return std::chrono::steady_clock::now()"
      ".time_since_epoch().count();\n"
      "}\n"},
     ["wallclock"]),
    ("wallclock/service-exempt-clean",
     {_SERVICE:
      "#include <chrono>\n"
      "double Now() {\n"
      "  return std::chrono::steady_clock::now()"
      ".time_since_epoch().count();\n"
      "}\n"},
     []),
    # ---- addr-order --------------------------------------------------
    ("addr-order/pointer-comparator-fires",
     {"src/case.cc":
      "void F(std::vector<const Obj*>& v) {\n"
      "  std::sort(v.begin(), v.end(),\n"
      "            [](const Obj* a, const Obj* b) { return a < b; });\n"
      "}\n"},
     ["addr-order"]),
    ("addr-order/std-less-pointer-fires",
     {"src/case.cc":
      "std::set<Node*, std::less<Node*>> live_;\n"},
     ["addr-order"]),
    ("addr-order/field-key-clean",
     {"src/case.cc":
      "void F(std::vector<const Obj*>& v) {\n"
      "  std::sort(v.begin(), v.end(),\n"
      "            [](const Obj* a, const Obj* b)"
      " { return a->id < b->id; });\n"
      "}\n"},
     []),
    # ---- soa-raw-loop ------------------------------------------------
    ("soa-raw-loop/for-loop-fires",
     {"src/core/case.cc":
      "void F(const Snapshot& s, double eps2) {\n"
      "  for (uint32_t j = 0; j < s.size(); ++j) {\n"
      "    if (WithinEps(s.pos(0), s.pos(j), eps2)) count(j);\n"
      "  }\n"
      "}\n"},
     ["soa-raw-loop"]),
    ("soa-raw-loop/braceless-while-fires",
     {"src/shard/case.cc":
      "void F(Point a, Point b, double e2) {\n"
      "  while (step())\n"
      "    total += SquaredDistance(a, b) <= e2 ? 1 : 0;\n"
      "}\n"},
     ["soa-raw-loop"]),
    ("soa-raw-loop/outside-loop-clean",
     {"src/core/case.cc":
      "bool F(Point a, Point b, double eps2) {\n"
      "  return WithinEps(a, b, eps2);\n"
      "}\n"},
     []),
    ("soa-raw-loop/outside-scope-dirs-clean",
     {"src/stream/case.cc":
      "void F(const Snapshot& s, double eps2) {\n"
      "  for (uint32_t j = 0; j < s.size(); ++j) {\n"
      "    if (WithinEps(s.pos(0), s.pos(j), eps2)) count(j);\n"
      "  }\n"
      "}\n"},
     []),
    ("soa-raw-loop/allow-clean",
     {"src/core/case.cc":
      "void F(const Snapshot& s, double eps2) {\n"
      "  for (uint32_t j = 0; j < s.size(); ++j) {\n"
      "    // tcomp-lint: allow(soa-raw-loop): reference scalar baseline\n"
      "    if (WithinEps(s.pos(0), s.pos(j), eps2)) count(j);\n"
      "  }\n"
      "}\n"},
     []),
    # ---- cell-grid ---------------------------------------------------
    ("cell-grid/floor-of-quotient-fires",
     {"src/core/case.cc":
      "int64_t CellOf(double x, double cell) {\n"
      "  return static_cast<int64_t>(std::floor(x / cell));\n"
      "}\n"},
     ["cell-grid"]),
    ("cell-grid/outside-scope-dirs-clean",
     {"src/stream/case.cc":
      "int64_t CellOf(double x, double cell) {\n"
      "  return static_cast<int64_t>(std::floor(x / cell));\n"
      "}\n"},
     []),
    ("cell-grid/floor-without-division-clean",
     {"src/shard/case.cc":
      "double Snap(double x, double step) {\n"
      "  return std::floor(x) * step;\n"
      "}\n"},
     []),
    ("cell-grid/allow-clean",
     {"src/core/case.cc":
      "int64_t ColumnOf(double x, double w) {\n"
      "  // tcomp-lint: allow(cell-grid): the one builder's columns\n"
      "  return static_cast<int64_t>(std::floor(x / w));\n"
      "}\n"},
     []),
    # ---- nonblocking-io ----------------------------------------------
    ("nonblocking-io/bare-call-fires",
     {_SERVICE:
      "void F(int fd) { char b[8]; read(fd, b, sizeof(b)); }\n"},
     ["nonblocking-io"]),
    ("nonblocking-io/loop-without-errno-fires",
     {_SERVICE:
      "void F(int fd, const char* p, size_t n) {\n"
      "  size_t off = 0;\n"
      "  while (off < n) off += write(fd, p + off, n - off);\n"
      "}\n"},
     ["nonblocking-io"]),
    ("nonblocking-io/retry-loop-clean",
     {_SERVICE:
      "void F(int fd) {\n"
      "  char b[8];\n"
      "  for (;;) {\n"
      "    ssize_t rc = read(fd, b, sizeof(b));\n"
      "    if (rc < 0 && errno == EINTR) continue;\n"
      "    break;\n"
      "  }\n"
      "}\n"},
     []),
    ("nonblocking-io/allow-clean",
     {_SERVICE:
      "void Kick(int fd) {\n"
      "  uint64_t one = 1;\n"
      "  // tcomp-lint: allow(nonblocking-io): eventfd add never blocks\n"
      "  write(fd, &one, sizeof(one));\n"
      "}\n"},
     []),
    ("nonblocking-io/method-call-clean",
     {_SERVICE:
      "void F(Stream& s, char* b) { s.read(b, 8); s.stream()->write(b); }\n"},
     []),
    ("nonblocking-io/outside-service-clean",
     {"src/stream/case.cc":
      "void F(int fd) { char b[8]; read(fd, b, sizeof(b)); }\n"},
     []),
    # ---- annotation audit --------------------------------------------
    ("allow-without-reason/fires",
     {"src/case.cc":
      "std::unordered_map<int, int> m;\n"
      "// tcomp-lint: allow(unordered-iter)\n"
      "void F() { for (const auto& [k, v] : m) {} }\n"},
     ["allow-without-reason"]),
    ("stale-allow/fires",
     {"src/case.cc":
      "// tcomp-lint: allow(no-throw): legacy regex false positive\n"
      "int x = 1;\n"},
     ["stale-allow"]),
    ("stale-allow/used-annotation-clean",
     {"src/case.cc":
      "void F() {\n"
      "  // tcomp-lint: allow(no-throw): exercising the contract\n"
      "  throw 1;\n"
      "}\n"},
     []),
]


def run_corpus():
    """Runs every case; returns (failures, results) where results is the
    deterministic JSON structure the golden file pins."""
    failures = []
    results = []
    for name, files, expect in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for rel, content in files.items():
                path = os.path.join(tmp, rel.replace("/", os.sep))
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
            result = analyze(tmp)
        fired = sorted({f.rule for f in result.findings})
        ok = fired == sorted(expect)
        if not ok:
            failures.append(
                "case %s: expected %s, got %s"
                % (name, sorted(expect) or "clean", fired or "clean"))
        results.append({
            "name": name,
            "expect": sorted(expect),
            "findings": [f.as_json() for f in result.findings],
        })
    return failures, {"tool": "tcomp-analyze", "corpus_version": 1,
                      "cases": results}


def self_test(golden_path=None, out=sys.stdout, err=sys.stderr):
    failures, results = run_corpus()
    for failure in failures:
        err.write("self-test FAILED: %s\n" % failure)
    if golden_path:
        got = json.dumps(results, indent=2, sort_keys=True) + "\n"
        try:
            with open(golden_path, encoding="utf-8") as f:
                want = f.read()
        except OSError as e:
            failures.append("golden: %s" % e)
            err.write("self-test FAILED: cannot read golden %s: %s\n"
                      % (golden_path, e))
            want = None
        if want is not None and got != want:
            failures.append("golden mismatch")
            err.write(
                "self-test FAILED: corpus findings diverge from %s\n"
                "(regenerate with: tools/analyze --self-test "
                "--write-golden %s)\n" % (golden_path, golden_path))
    if failures:
        err.write("tcomp-analyze --self-test: %d failure(s)\n"
                  % len(failures))
        return 1
    out.write("tcomp-analyze --self-test: OK (%d cases%s)\n"
              % (len(CASES), ", golden matched" if golden_path else ""))
    return 0


def write_golden(path):
    failures, results = run_corpus()
    if failures:
        for failure in failures:
            sys.stderr.write("self-test FAILED: %s\n" % failure)
        return 1
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.stdout.write("wrote %s\n" % path)
    return 0
