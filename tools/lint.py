#!/usr/bin/env python3
"""Project-specific lint rules the generic tools can't express.

The linter is a table of rules (RULES, bottom of this file) over a parsed
tree snapshot. Every rule carries self-test cases — tiny in-memory file
trees with a known finding count — run with `--selftest`, so a rule that
silently stops matching fails CI instead of rotting.

File rules (fast pure-regex pass over stripped code, < 5s):

  rng-discipline   No rand()/std::rand/srand/random_device outside
                   src/common/rng.* — all randomness flows through the
                   seeded, reproducible Rng so runs stay deterministic.
  no-iostream      No std::cout / std::cerr / printf-family output in src/
                   library code (snprintf into a buffer is fine). The
                   library reports through Status and report strings;
                   binaries under tools/, bench/, examples/ may print.
  no-naked-thread  No std::thread / std::async / pthread_create outside
                   src/common/parallel.cc — all concurrency (library code,
                   the suite scheduler, the src/server/ request executor,
                   tools/, bench/, examples/) goes through ParallelFor /
                   ParallelForEach so cancellation, deadlines and exception
                   capture stay in one audited place. Only tests may spawn
                   threads (stress tests race the cache on purpose).
  no-sleep-in-server
                   No sleep_for / sleep_until / usleep / nanosleep / sleep()
                   inside src/server/ — the serving layer must be
                   event-driven (poll timeouts, condition variables,
                   Deadline) so drain latency is bounded by real events.
  no-raw-parse-in-server
                   No memcpy/memmove/str*cpy/sscanf/atoi/strto* parsing in
                   src/server/ outside http.cc. Wire bytes are parsed in
                   exactly one fuzzed, corpus-covered file; everything else
                   consumes parsed structs. (std::memset on a sockaddr is
                   socket API, not parsing, and stays allowed.)
  no-fault-in-bench
                   bench/ binaries never include or call the test-only
                   fault-injection hooks — a benchmark that can be
                   chaos-armed measures the fault plan, not the system.
  include-guards   Headers use #ifndef FAIRRANK_<PATH>_H_ guards derived
                   from their path (never #pragma once).
  no-suppressions  No blanket NOLINT without a specific rule name, and no
                   FAIRRANK_NO_THREAD_SAFETY_ANALYSIS without an
                   explanatory comment on the preceding or same line.

Tree rules (cross-file consistency):

  flag-sync        Every `--flag` mentioned in a tools/*.cc string literal
                   must be declared in a known-flags list (fairauditd's
                   KnownFlags, fairaudit's add({...}) lists, or
                   AuditOptionFlagNames), and every declared flag must be
                   documented in README.md — the CLI/HTTP surface stays
                   fully validated and fully documented. Retired flags
                   (the evaluator cache's --no-cache, --cache-mb,
                   --no-share-cache) may be neither declared, mentioned
                   by a tool, nor documented.
  bench-json-schema
                   Checked-in BENCH_*.json baselines parse as strict JSON
                   (no NaN/Infinity), carry a "bench" name, and known
                   bench kinds keep their required keys — a malformed
                   baseline must fail lint, not a downstream diff script.
  metrics-naming   Every "fairrank_..." metric-name literal in src/,
                   tools/ or bench/ is snake_case, carries a recognized
                   unit/kind suffix (_total, _seconds, _bytes, _count,
                   _ratio, _info) and never doubles underscores — the
                   /metrics exposition stays Prometheus-conventional.
                   tests/ may spell invalid names on purpose.

Usage:
  python3 tools/lint.py [root]     lint the tree (root defaults to repo root)
  python3 tools/lint.py --selftest run every rule's self-test cases
Exit status: 0 clean, 1 findings/self-test failure, 2 usage/internal error.
"""

import json
import os
import re
import sys

LIBRARY_DIRS = ("src",)
ALL_CPP_DIRS = ("src", "tests", "tools", "bench", "examples", "fuzz")
CPP_EXTENSIONS = (".h", ".cc")
AUX_FILES = ("README.md",)
STRING_LITERAL = r'"((?:[^"\\\n]|\\.)*)"'
FLAG_WORD = r"--([a-z][a-z0-9]*(?:-[a-z0-9]+)*)"


def strip_comments(text, strip_strings):
    """Replaces comment contents (and string-literal contents when
    `strip_strings`) with spaces of the same length, so reported line
    numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if strip_strings:
                out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            else:
                out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class FileCtx(object):
    """One C++ file in three views: raw, comments stripped (string literals
    kept — for rules that inspect what binaries print), and fully stripped
    (for rules that inspect code)."""

    def __init__(self, path, raw):
        self.path = path.replace(os.sep, "/")
        self.raw = raw
        self.text = strip_comments(raw, strip_strings=False)
        self.code = strip_comments(raw, strip_strings=True)


class Tree(object):
    """The lint subject: C++ file contexts plus auxiliary raw files
    (README, BENCH baselines). Built from disk for real runs and from
    dicts for rule self-tests."""

    def __init__(self, files, aux):
        self.files = files  # path -> FileCtx
        self.aux = aux      # path -> raw text

    @classmethod
    def from_disk(cls, root):
        files = {}
        for d in ALL_CPP_DIRS:
            base = os.path.join(root, d)
            for dirpath, _, filenames in os.walk(base):
                for name in sorted(filenames):
                    if not name.endswith(CPP_EXTENSIONS):
                        continue
                    path = os.path.relpath(os.path.join(dirpath, name), root)
                    with open(os.path.join(root, path),
                              encoding="utf-8") as f:
                        files[path.replace(os.sep, "/")] = FileCtx(path,
                                                                   f.read())
        aux = {}
        for name in sorted(os.listdir(root)):
            if name in AUX_FILES or (name.startswith("BENCH_") and
                                     name.endswith(".json")):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    aux[name] = f.read()
        return cls(files, aux)

    @classmethod
    def from_dict(cls, contents):
        files = {}
        aux = {}
        for path, raw in contents.items():
            if path.endswith(CPP_EXTENSIONS):
                files[path] = FileCtx(path, raw)
            else:
                aux[path] = raw
        return cls(files, aux)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Rule(object):
    """Base rule: a name, a check over the tree yielding findings as
    (path, line, message), and self-test cases as (files_dict,
    expected_finding_count)."""

    name = None
    selftests = ()

    def check(self, tree):
        raise NotImplementedError


class PatternRule(Rule):
    """Regex rule over one view of each in-scope file."""

    def __init__(self, name, pattern, message, scope, exempt=(), view="code",
                 selftests=()):
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message
        self.scope = scope  # predicate over the posix-relative path
        self.exempt = frozenset(exempt)
        self.view = view    # "code", "text", or "raw"
        self.selftests = selftests

    def check(self, tree):
        for path, ctx in sorted(tree.files.items()):
            if not self.scope(path) or path in self.exempt:
                continue
            text = getattr(ctx, self.view)
            for m in self.pattern.finditer(text):
                yield (path, line_of(text, m.start()),
                       self.message % m.group(0))


def in_library(path):
    return path.startswith("src/")


def in_server(path):
    return path.startswith("src/server/")


class IncludeGuardRule(Rule):
    name = "include-guards"

    def check(self, tree):
        for path, ctx in sorted(tree.files.items()):
            if not path.startswith("src/") or not path.endswith(".h"):
                continue
            if re.search(r"^\s*#\s*pragma\s+once", ctx.raw, re.M):
                yield (path, 1, "use an #ifndef guard, not #pragma once")
            expected = ("FAIRRANK_" +
                        re.sub(r"[/.]", "_", path[len("src/"):]).upper() +
                        "_")
            m = re.search(r"^\s*#\s*ifndef\s+(\S+)\s*\n\s*#\s*define\s+(\S+)",
                          ctx.raw, re.M)
            if m is None:
                yield (path, 1,
                       "missing #ifndef/#define include guard (expected %s)"
                       % expected)
            elif m.group(1) != expected or m.group(2) != expected:
                yield (path, line_of(ctx.raw, m.start()),
                       "guard %s does not match path (expected %s)"
                       % (m.group(1), expected))

    selftests = (
        ({"src/common/good.h":
          "#ifndef FAIRRANK_COMMON_GOOD_H_\n"
          "#define FAIRRANK_COMMON_GOOD_H_\n#endif\n"}, 0),
        ({"src/common/bad.h": "#pragma once\nint x;\n"}, 2),
        ({"src/common/moved.h":
          "#ifndef FAIRRANK_OLD_PATH_H_\n#define FAIRRANK_OLD_PATH_H_\n"
          "#endif\n"}, 1),
        ({"tests/anything.h": "#pragma once\n"}, 0),
    )


class SuppressionRule(Rule):
    name = "no-suppressions"

    def check(self, tree):
        for path, ctx in sorted(tree.files.items()):
            lines = ctx.raw.split("\n")
            for i, line in enumerate(lines, 1):
                m = re.search(r"NOLINT(?!NEXTLINE)(\(([^)]*)\))?", line)
                if m and not m.group(2):
                    yield (path, i,
                           "NOLINT must name the suppressed check, e.g. "
                           "NOLINT(bugprone-foo)")
                if ("FAIRRANK_NO_THREAD_SAFETY_ANALYSIS" in line and
                        not path.endswith("thread_annotations.h")):
                    prev = lines[i - 2] if i >= 2 else ""
                    if "//" not in line and "//" not in prev:
                        yield (path, i,
                               "FAIRRANK_NO_THREAD_SAFETY_ANALYSIS needs a "
                               "comment explaining why the analysis cannot "
                               "see the invariant")

    selftests = (
        ({"src/a.cc": "int x;  // NOLINT\n"}, 1),
        ({"src/a.cc": "int x;  // NOLINT(bugprone-foo)\n"}, 0),
        ({"src/a.cc": "void f() FAIRRANK_NO_THREAD_SAFETY_ANALYSIS;\n"}, 1),
        ({"src/a.cc": "// lock held by caller\n"
                      "void f() FAIRRANK_NO_THREAD_SAFETY_ANALYSIS;\n"}, 0),
    )


class FlagSyncRule(Rule):
    """Cross-checks the three flag surfaces: strings mentioning `--x` in
    tools/*.cc, the known-flags declarations, and README.md."""

    name = "flag-sync"

    # Brace initializer lists that declare accepted flags: fairaudit's
    # add({...}) lambda calls and the static vector literals behind
    # fairauditd's KnownFlags() / AuditOptionFlagNames().
    DECLARATION = re.compile(
        r"(?:add\(\{|new std::vector<std::string>\{)(.*?)\}", re.S)
    DECLARATION_FILES = ("tools/", "src/fairness/option_flags.cc")
    # Flags removed with the evaluator cache. Unknown flags fail validation,
    # so any declaration or mention of these is stale.
    RETIRED = ("no-cache", "cache-mb", "no-share-cache")

    def declared_flags(self, tree):
        declared = {}
        for path, ctx in sorted(tree.files.items()):
            if not path.startswith(self.DECLARATION_FILES):
                continue
            for block in self.DECLARATION.finditer(ctx.text):
                for lit in re.finditer(STRING_LITERAL, block.group(1)):
                    name = lit.group(1)
                    if re.fullmatch(r"[a-z][a-z0-9-]*", name):
                        declared.setdefault(
                            name,
                            (path, line_of(ctx.text,
                                           block.start() + lit.start())))
        return declared

    def check(self, tree):
        declared = self.declared_flags(tree)
        readme = tree.aux.get("README.md", "")
        documented = set(m.group(1)
                         for m in re.finditer(FLAG_WORD, readme))
        # Direction 1: a flag *mentioned* by a tool (usage text, error
        # message) must be a declared flag somewhere — mentions of flags
        # that no parser accepts are stale docs.
        for path, ctx in sorted(tree.files.items()):
            if not (path.startswith("tools/") and path.endswith(".cc")):
                continue
            for lit in re.finditer(STRING_LITERAL, ctx.text):
                for m in re.finditer(FLAG_WORD, lit.group(1)):
                    name = m.group(1)
                    if name not in declared:
                        yield (path, line_of(ctx.text, lit.start()),
                               "--%s is mentioned here but declared in no "
                               "known-flags list (KnownFlags / add({...}) / "
                               "AuditOptionFlagNames)" % name)
        # Direction 2: every declared flag is documented in README.md.
        if "README.md" in tree.aux:
            for name, (path, line) in sorted(declared.items()):
                if name not in documented:
                    yield (path, line,
                           "--%s is accepted but undocumented: add it to "
                           "README.md" % name)
        # Retired flags appear nowhere.
        for name in self.RETIRED:
            if name in declared:
                path, line = declared[name]
                yield (path, line, "--%s was retired; do not accept it" % name)
            if name in documented:
                yield ("README.md", line_of(readme, readme.find("--" + name)),
                       "--%s was retired; do not document it" % name)

    _DECL = ('const std::vector<std::string>* v = '
             'new std::vector<std::string>{"input", "seed"};\n')
    selftests = (
        # Mention of an undeclared flag.
        ({"tools/a.cc": _DECL + 'const char* e = "pass --workers too";\n',
          "README.md": "--input --seed\n"}, 1),
        # Declared + mentioned + documented: clean.
        ({"tools/a.cc": _DECL + 'const char* e = "--input missing";\n',
          "README.md": "--input and --seed\n"}, 0),
        # Declared but missing from README.
        ({"tools/a.cc": _DECL, "README.md": "--input only\n"}, 1),
        # add({...}) declarations count; comments never count as mentions.
        ({"tools/b.cc": 'void f() { add({"top", "out"}); }\n'
                        "// usage: --nonexistent\n",
          "README.md": "--top --out\n"}, 0),
        # Without a README nothing can be documented; only direction 1 runs.
        ({"tools/a.cc": _DECL}, 0),
        # A retired flag, declared and documented: two findings.
        ({"tools/b.cc": 'void f() { add({"input", "no-cache"}); }\n',
          "README.md": "--input --no-cache\n"}, 2),
        # A retired flag documented only: one finding.
        ({"tools/a.cc": _DECL, "README.md": "--input --seed --cache-mb\n"},
         1),
    )


class MetricsNamingRule(Rule):
    """Validates "fairrank_..." metric-name string literals against the
    Prometheus naming conventions MetricsRegistry::IsValidMetricName
    enforces at runtime — lint catches the typo before anything runs.

    A literal may carry a label block ("name{..."); only the part before
    the brace is the name. The bare "fairrank_" prefix constant is not a
    metric name and is skipped."""

    name = "metrics-naming"

    SCOPES = ("src/", "tools/", "bench/")
    SUFFIXES = ("_total", "_seconds", "_bytes", "_count", "_ratio", "_info")

    def check(self, tree):
        for path, ctx in sorted(tree.files.items()):
            if not path.startswith(self.SCOPES):
                continue
            for lit in re.finditer(STRING_LITERAL, ctx.text):
                content = lit.group(1)
                if not content.startswith("fairrank_"):
                    continue
                metric = content.split("{", 1)[0]
                if metric == "fairrank_":
                    continue  # The prefix constant, not a name.
                line = line_of(ctx.text, lit.start())
                if not re.fullmatch(r"[a-z][a-z0-9_]*[a-z0-9]", metric):
                    yield (path, line,
                           '"%s" is not snake_case ([a-z0-9_], no edge '
                           "underscores)" % metric)
                elif "__" in metric:
                    yield (path, line,
                           '"%s" doubles an underscore' % metric)
                elif not metric.endswith(self.SUFFIXES):
                    yield (path, line,
                           '"%s" lacks a unit/kind suffix (%s)'
                           % (metric, ", ".join(self.SUFFIXES)))

    selftests = (
        ({"src/a.cc": 'auto* c = Get("fairrank_audits_total");\n'}, 0),
        ({"bench/a.cc":
          'find("fairrank_http_request_duration_seconds{");\n'}, 0),
        ({"src/a.cc": 'const std::string prefix = "fairrank_";\n'}, 0),
        ({"src/a.cc": 'Get("fairrank_Audits_total");\n'}, 1),
        ({"src/a.cc": 'Get("fairrank_audits");\n'}, 1),
        ({"src/a.cc": 'Get("fairrank__audits_total");\n'}, 1),
        ({"src/a.cc": 'Get("fairrank_audits_total_");\n'}, 1),
        ({"tools/a.cc": 'Get("fairrank_audits-total");\n'}, 1),
        # tests/ spell invalid names on purpose; comments never match.
        ({"tests/a.cc": 'Get("fairrank_bad");\n'}, 0),
        ({"src/a.cc": '// mentions "fairrank_bad" in a comment\n'}, 0),
    )


class BenchJsonSchemaRule(Rule):
    """BENCH_*.json baselines: strict JSON, a bench name, required keys."""

    name = "bench-json-schema"

    REQUIRED_KEYS = {
        "server_load": ("clients", "duration_ms", "phases"),
        "trace_overhead": ("workers", "repetitions", "overhead_percent"),
        "scaling_millions": ("ingest_threads", "hardware_threads", "sizes",
                             "speedup_vs_serial"),
    }

    def check(self, tree):
        for path in sorted(tree.aux):
            base = os.path.basename(path)
            if not (base.startswith("BENCH_") and base.endswith(".json")):
                continue

            def reject_constant(token):
                raise ValueError("non-finite number %s" % token)

            try:
                data = json.loads(tree.aux[path],
                                  parse_constant=reject_constant)
            except ValueError as error:
                yield (path, 1, "not strict JSON: %s" % error)
                continue
            if not isinstance(data, dict):
                yield (path, 1, "top level must be a JSON object")
                continue
            bench = data.get("bench")
            if not isinstance(bench, str) or not bench:
                yield (path, 1,
                       'missing "bench": the baseline must name its '
                       "benchmark")
                continue
            for key in self.REQUIRED_KEYS.get(bench, ()):
                if key not in data:
                    yield (path, 1,
                           'bench "%s" baseline lost required key "%s"'
                           % (bench, key))

    selftests = (
        ({"BENCH_x.json":
          '{"bench": "server_load", "clients": 1, "duration_ms": 5, '
          '"phases": {}}'}, 0),
        ({"BENCH_x.json": '{"clients": 1}'}, 1),
        ({"BENCH_x.json": '{"bench": "server_load", "clients": 1}'}, 2),
        ({"BENCH_x.json": '{"bench": "other", "whatever": 1}'}, 0),
        ({"BENCH_x.json":
          '{"bench": "scaling_millions", "ingest_threads": 8, '
          '"hardware_threads": 1, "sizes": [], "speedup_vs_serial": 3.4}'}, 0),
        ({"BENCH_x.json": '{"bench": "scaling_millions"}'}, 4),
        ({"BENCH_x.json": '{"bench": "x", "v": NaN}'}, 1),
        ({"BENCH_x.json": "not json"}, 1),
        ({"OTHER_x.json": "not json"}, 0),
    )


RULES = (
    PatternRule(
        "rng-discipline",
        r"\b(?:std\s*::\s*)?s?rand\s*\(|\bstd\s*::\s*random_device\b",
        "'%s' — use common/rng (seeded, reproducible) instead",
        scope=in_library,
        exempt=("src/common/rng.h", "src/common/rng.cc"),
        selftests=(
            ({"src/a.cc": "int x = rand();\n"}, 1),
            ({"src/a.cc": "int x = std::rand();\nsrand(1);\n"}, 2),
            ({"src/common/rng.cc": "int x = rand();\n"}, 0),
            ({"tools/a.cc": "int x = rand();\n"}, 0),
            ({"src/a.cc": "int grand(int);\nint x = grand(2);\n"}, 0),
        )),
    PatternRule(
        "no-iostream",
        r"\bstd\s*::\s*(?:cout|cerr)\b|(?<![\w:])(?:f|w)?printf\s*\(",
        "'%s' — library code reports through Status/report strings",
        scope=in_library,
        selftests=(
            ({"src/a.cc": 'void f() { std::cout << 1; printf("x"); }\n'}, 2),
            ({"src/a.cc": "char b[8];\nint n = snprintf(b, 8, \"x\");\n"}, 0),
            ({"tools/a.cc": 'void f() { printf("ok"); }\n'}, 0),
        )),
    PatternRule(
        "no-naked-thread",
        r"\bstd\s*::\s*(?:thread|j?thread|async)\b|\bpthread_create\b",
        "'%s' — use common/parallel (ParallelFor/ParallelForEach) for "
        "concurrency",
        scope=lambda path: not path.startswith("tests/"),
        exempt=("src/common/parallel.cc",),
        selftests=(
            ({"src/a.cc": "std::thread t(f);\n"}, 1),
            ({"tools/a.cc": "auto r = std::async(f);\n"}, 1),
            ({"tests/a_test.cc": "std::thread t(f);\n"}, 0),
            ({"src/common/parallel.cc": "std::thread t(f);\n"}, 0),
        )),
    PatternRule(
        "no-sleep-in-server",
        r"\bsleep_(?:for|until)\b|\b(?:u|nano)?sleep\s*\(",
        "'%s' — the serving layer is event-driven; wait on poll timeouts, "
        "condition variables or Deadline instead",
        scope=in_server,
        selftests=(
            ({"src/server/a.cc":
              "std::this_thread::sleep_for(std::chrono::seconds(1));\n"}, 1),
            ({"src/server/a.cc": "usleep(100);\n"}, 1),
            ({"src/stats/a.cc": "usleep(100);\n"}, 0),
        )),
    PatternRule(
        "no-raw-parse-in-server",
        r"\b(?:std\s*::\s*)?(?:memcpy|memmove|strcpy|strncpy|strcat|sscanf|"
        r"atoi|atol|atof|strto(?:l|ul|ll|ull|d|f))\s*\(",
        "'%s' — raw byte/string parsing in the serving layer belongs in "
        "src/server/http.cc (fuzzed, corpus-covered); handlers consume "
        "parsed structs",
        scope=lambda path: in_server(path) and
        not path.endswith("/http.cc"),
        selftests=(
            ({"src/server/a.cc":
              "void f(char* d, const char* s, size_t n) "
              "{ std::memcpy(d, s, n); }\n"}, 1),
            ({"src/server/a.cc": 'int v = atoi(buf);\n'}, 1),
            ({"src/server/http.cc": "std::memcpy(d, s, n);\n"}, 0),
            # memset (sockaddr zeroing) is socket API, not parsing.
            ({"src/server/a.cc": "std::memset(&addr, 0, sizeof(addr));\n"},
             0),
            ({"src/data/a.cc": "std::memcpy(d, s, n);\n"}, 0),
        )),
    PatternRule(
        "no-fault-in-bench",
        r"#\s*include\s*\"common/fault_injection\.h\"",
        "'%s' — bench binaries must not link fault-injection hooks; chaos "
        "belongs in tests/",
        scope=lambda path: path.startswith("bench/"),
        view="raw",
        selftests=(
            ({"bench/a.cc": '#include "common/fault_injection.h"\n'}, 1),
            ({"tests/a.cc": '#include "common/fault_injection.h"\n'}, 0),
        )),
    PatternRule(
        "no-fault-in-bench",
        r"\bfault\s*::",
        "'%s' — bench binaries must not arm fault plans; an armed plan "
        "poisons BENCH_*.json baselines",
        scope=lambda path: path.startswith("bench/"),
        selftests=(
            ({"bench/a.cc": "fault::Arm(plan);\n"}, 1),
            ({"bench/a.cc": "// fault:: in a comment\n"}, 0),
        )),
    IncludeGuardRule(),
    SuppressionRule(),
    FlagSyncRule(),
    MetricsNamingRule(),
    BenchJsonSchemaRule(),
)


def run_rules(tree):
    findings = []
    for rule in RULES:
        for path, line, message in rule.check(tree):
            findings.append((path, line, rule.name, message))
    return sorted(findings)


def selftest():
    failures = 0
    for rule in RULES:
        if not rule.selftests:
            print("selftest: rule %s has no self-tests" % rule.name,
                  file=sys.stderr)
            failures += 1
            continue
        for case_index, (contents, expected) in enumerate(rule.selftests):
            tree = Tree.from_dict(contents)
            got = list(rule.check(tree))
            if len(got) != expected:
                print("selftest: %s case %d: expected %d finding(s), got %d:"
                      % (rule.name, case_index, expected, len(got)),
                      file=sys.stderr)
                for path, line, message in got:
                    print("  %s:%d: %s" % (path, line, message),
                          file=sys.stderr)
                failures += 1
    names = sorted(set(rule.name for rule in RULES))
    if failures == 0:
        print("lint.py selftest: %d rule(s) OK (%s)"
              % (len(names), ", ".join(names)))
        return 0
    print("lint.py selftest: %d failure(s)" % failures, file=sys.stderr)
    return 1


def main(argv):
    if "--selftest" in argv:
        return selftest()
    root = argv[1] if len(argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print("lint.py: no src/ under %s" % root, file=sys.stderr)
        return 2

    findings = run_rules(Tree.from_disk(root))
    for path, line, rule, message in findings:
        print("%s:%d: [%s] %s" % (path, line, rule, message))
    if findings:
        print("lint.py: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
