"""Driver for tcomp-analyze: runs every pass, applies the suppression
contract, and renders findings as text and machine-readable JSON.

Suppression contract (unchanged from the regex linter, but now applied
to *comment tokens*, so a string literal that happens to contain the
pattern can no longer suppress anything):

    // tcomp-lint: allow(<rule>): <reason>

on the finding's line, or anywhere in the contiguous block of
comment-only lines directly above it (so a justification may take the
prose it needs). The reason is mandatory — an
allowlist entry is a reviewed claim, not an escape hatch. Two audit
rules close the loop on the annotations themselves:

    allow-without-reason   an allow() with no ': <reason>'
    stale-allow            an allow() that suppresses nothing — the
                           hazard it cited is gone, so the annotation
                           must go too (this is how the PR 8 migration
                           retired annotations that only ever silenced
                           regex false positives)
"""

import json
import re

from .project import Project
from .rules_file import FILE_PASSES
from .rules_project import PROJECT_PASSES

RULES = [
    "no-throw", "no-crt-rand", "unordered-iter", "shard-unordered",
    "no-naked-new", "sqrt-eps", "include-layer", "include-cycle",
    "lock-order", "atomic-order", "atomic-strong-order", "wallclock",
    "addr-order", "soa-raw-loop", "cell-grid", "nonblocking-io",
    "allow-without-reason", "stale-allow",
]

_ALLOW_RE = re.compile(r"tcomp-lint:\s*allow\(([a-z-]+)\)\s*:\s*(\S.*)")
_ALLOW_NO_REASON_RE = re.compile(r"tcomp-lint:\s*allow\(([a-z-]+)\)\s*(?!:)")


class Finding:
    __slots__ = ("rel", "line", "rule", "message")

    def __init__(self, rel, line, rule, message):
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.rel, self.line, self.rule, self.message)

    def as_json(self):
        return {"path": self.rel, "line": self.line, "rule": self.rule,
                "message": self.message}


class Analysis:
    """Result of one full run: findings, suppressions, and scan stats."""

    def __init__(self):
        self.findings = []
        self.suppressed = []  # dicts: path/line/rule/reason
        self.files_scanned = 0


def _collect_allows(fm):
    """allow() annotations in `fm`: {(line, rule): [reason|None]}."""
    allows = {}
    for line, comments in fm.comments_by_line.items():
        for text in comments:
            for m in _ALLOW_RE.finditer(text):
                allows[(line, m.group(1))] = m.group(2).strip()
            if not _ALLOW_RE.search(text):
                m = _ALLOW_NO_REASON_RE.search(text)
                if m:
                    allows[(line, m.group(1))] = None
    return allows


def analyze(root):
    project = Project(root)
    result = Analysis()
    result.files_scanned = len(project.files)

    allows = {}        # rel -> {(line, rule): reason or None}
    used_allows = set()  # (rel, line, rule)
    for rel, fm in project.files.items():
        allows[rel] = _collect_allows(fm)

    raw = []

    def report(rel, line, rule, message):
        raw.append(Finding(rel, line, rule, message))

    for rel in sorted(project.files):
        fm = project.files[rel]

        def file_report(rule, line, message, rel=rel):
            report(rel, line, rule, message)

        for pass_fn in FILE_PASSES:
            pass_fn(project, rel, fm, file_report)
    for pass_fn in PROJECT_PASSES:
        pass_fn(project, report)

    # Comment-only lines per file: a comment token and nothing else. The
    # suppression window for a finding is its own line plus the contiguous
    # run of comment-only lines directly above it.
    comment_only = {}
    for rel, fm in project.files.items():
        has_comment, has_code = set(), set()
        for t in fm.tokens:
            (has_comment if t.kind == "comment" else has_code).add(t.line)
        comment_only[rel] = has_comment - has_code

    def suppression_window(f):
        yield f.line
        ln = f.line - 1
        while ln >= 1 and ln in comment_only.get(f.rel, ()):
            yield ln
            ln -= 1

    for f in raw:
        file_allows = allows.get(f.rel, {})
        suppressed = False
        for ln in suppression_window(f):
            entry = file_allows.get((ln, f.rule))
            if (ln, f.rule) in file_allows:
                used_allows.add((f.rel, ln, f.rule))
                suppressed = True
                if entry is None:
                    result.findings.append(Finding(
                        f.rel, ln, "allow-without-reason",
                        "allow(%s) annotation needs a ': <reason>'"
                        % f.rule))
                else:
                    result.suppressed.append(
                        {"path": f.rel, "line": ln, "rule": f.rule,
                         "reason": entry})
                break
        if not suppressed:
            result.findings.append(f)

    # Stale annotations: an allow() that suppressed nothing is itself a
    # finding — dead suppressions rot into unreviewed blanket waivers.
    for rel in sorted(allows):
        for (line, rule), reason in sorted(allows[rel].items()):
            if rule not in RULES:
                report_unknown = Finding(
                    rel, line, "stale-allow",
                    "allow(%s) names no known rule (rules: %s)"
                    % (rule, ", ".join(RULES)))
                result.findings.append(report_unknown)
            elif (rel, line, rule) not in used_allows:
                result.findings.append(Finding(
                    rel, line, "stale-allow",
                    "allow(%s) suppresses nothing in the code below it; "
                    "the hazard is gone — remove the annotation" % rule))

    # Deterministic order, duplicate-free (two passes may flag one line).
    uniq = {}
    for f in result.findings:
        uniq[f.key()] = f
    result.findings = [uniq[k] for k in sorted(uniq)]
    result.suppressed.sort(
        key=lambda s: (s["path"], s["line"], s["rule"]))
    return result


def render_text(result, out):
    for f in result.findings:
        out.write("%s:%d: [%s] %s\n" % (f.rel, f.line, f.rule, f.message))


def as_json(result):
    return {
        "tool": "tcomp-analyze",
        "version": 1,
        "files_scanned": result.files_scanned,
        "rules": RULES,
        "findings": [f.as_json() for f in result.findings],
        "suppressed": result.suppressed,
    }


def write_json(result, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(as_json(result), f, indent=2, sort_keys=True)
        f.write("\n")
