#!/usr/bin/env python3
"""Repo-invariant linter: structural rules the compiler cannot enforce.

Each rule pins a convention the runtime's correctness story depends on
(see DESIGN.md, "Correctness tooling"):

  seam-funnel      every function that touches channel state (post,
                   wait, per-source drain) calls detail::seam_event — an
                   op that bypasses the transport seam is invisible to
                   fault injection and to the contract checker.
  naked-thread     no `std::thread` outside src/util/parallel.* — ad-hoc
                   threads escape the pool's budget accounting and the
                   TSan-annotated handoff paths. run_world's rank threads
                   are the one deliberate exception, marked
                   `lint:allow(naked-thread)`.
  hot-path-alloc   functions marked `// [[hot-path]]` must not allocate
                   (new/malloc/make_unique/...): they run on every
                   publish/await/charge and an allocation there is both a
                   perf cliff and a lock-order hazard under TSan.
  knob-docs        every env knob (a quoted "CAGNET_*" string in src/)
                   has a row in README.md's knob table and a mention in
                   DESIGN.md — an undocumented knob is an untestable one.
                   Conversely, every CAGNET_* name in the first cell of a
                   README table row, in DESIGN.md, or set in
                   .github/workflows/ci.yml, is read in src/ — a retired
                   knob left in a CI step silently re-runs the default
                   suite. And src/ holds exactly one std::getenv (the
                   knob lookup in src/util/knob.cpp), so every knob goes
                   through the one strict grammar.
  bench-schema     the JSON fields each bench emits equal the field set
                   pinned in tools/check_bench_schema.py — drift in
                   either direction makes the tracked trajectory files
                   lie by omission.
  entry-wrapper    every `main` under bench/ and examples/ runs its body
                   through run_main (src/util/cli.hpp), and none is
                   defined by BENCHMARK_MAIN — an exception escaping a
                   bare main aborts (exit 134) instead of printing its
                   message and exiting 1.
  fma-free-clones  every target_clones / target attribute (or GCC target
                   pragma) in src/ names only targets without FMA. The
                   C++ default -ffp-contract=fast fuses `acc += a * b`
                   wherever FMA is enabled (avx512f, fma, x86-64-v3, ...),
                   which changes result bits, and each clone must give
                   the bits of the baseline build.
  runconfig-knobs  every data member of `struct RunConfig`
                   (src/core/run_config.hpp) names its CAGNET_* knob in
                   its doc comment: a run mode is something a user can
                   select, so a test-only switch between two code paths
                   cannot come back as a field unnoticed.
  one-layer-loop   relu(, relu_backward( and log_softmax_rows( are
                   called in src/ only from DistEngine's layer loop
                   (src/core/dist_engine.cpp) and the serial oracle
                   (src/gnn/serial_trainer.cpp): a second distributed
                   copy of the layer math (as the sampled runner once
                   had) drifts from the first whenever a layer changes.

Run from the repo root (CI does):  python3 tools/lint_invariants.py
Self-test (seeded violations, one per rule):  ... --self-test
Exit status: 0 clean, 1 violations found (or a self-test rule failed to
fire), 2 usage/internal error.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BENCH = REPO / "bench"

# ---- rule: seam-funnel -------------------------------------------------

# The functions that touch channel state: every collective posts through
# post_async and completes through PendingOp::wait (the blocking forms are
# post + wait + release), and per-source drains read a peer's slots in
# await_source. Everything else is covered through these callees.
SEAM_ANCHORS = {
    "src/comm/comm.hpp": [
        "std::span<const T> await_source(",
    ],
    "src/comm/comm.cpp": [
        "PendingOp Comm::post_async(",
        "void PendingOp::wait(",
    ],
}


def function_body(text, anchor_index):
    """The brace-matched body of the function starting at anchor_index,
    or None if no opening brace follows."""
    open_brace = text.find("{", anchor_index)
    if open_brace < 0:
        return None
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace : i + 1]
    return None


def check_seam_funnel(root):
    violations = []
    for rel, anchors in SEAM_ANCHORS.items():
        path = root / rel
        if not path.is_file():
            violations.append(f"{rel}: file missing (seam-funnel anchors "
                              f"are stale; update SEAM_ANCHORS)")
            continue
        text = path.read_text()
        for anchor in anchors:
            at = text.find(anchor)
            if at < 0:
                violations.append(
                    f"{rel}: `{anchor.rstrip('(')}` not found "
                    f"(renamed? update SEAM_ANCHORS)")
                continue
            body = function_body(text, at)
            if body is None or "seam_event(" not in body:
                line = text.count("\n", 0, at) + 1
                violations.append(
                    f"{rel}:{line}: seam-funnel: "
                    f"`{anchor.rstrip('(')}` touches channel state but "
                    f"does not call detail::seam_event — it is invisible "
                    f"to fault injection and the contract checker")
    return violations


# ---- rule: naked-thread ------------------------------------------------

THREAD_RE = re.compile(r"std::thread\b")
THREAD_ALLOW = "lint:allow(naked-thread)"
THREAD_EXEMPT = ("src/util/parallel.hpp", "src/util/parallel.cpp")


def check_naked_thread(root):
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in THREAD_EXEMPT:
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if not THREAD_RE.search(line):
                continue
            if "std::thread::hardware_concurrency" in line:
                continue
            prev = lines[i - 1] if i > 0 else ""
            if THREAD_ALLOW in line or THREAD_ALLOW in prev:
                continue
            violations.append(
                f"{rel}:{i + 1}: naked-thread: raw std::thread outside "
                f"src/util/parallel.* (use the pool, or annotate a "
                f"deliberate exception with `{THREAD_ALLOW}`)")
    return violations


# ---- rule: hot-path-alloc ----------------------------------------------

HOT_MARK = "[[hot-path]]"
ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
    r"|\bmake_unique\b|\bmake_shared\b")


def check_hot_path_alloc(root):
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        search_from = 0
        while True:
            mark = text.find(HOT_MARK, search_from)
            if mark < 0:
                break
            search_from = mark + len(HOT_MARK)
            body = function_body(text, mark)
            if body is None:
                line = text.count("\n", 0, mark) + 1
                violations.append(
                    f"{rel}:{line}: hot-path-alloc: {HOT_MARK} marker "
                    f"with no function body following it")
                continue
            hit = ALLOC_RE.search(body)
            if hit:
                line = (text.count("\n", 0, mark + text[mark:].find(hit.group(0)))
                        + 1)
                violations.append(
                    f"{rel}:{line}: hot-path-alloc: `{hit.group(0).strip()}`"
                    f" inside a {HOT_MARK} function (allocation on the "
                    f"publish/await/charge path)")
    return violations


# ---- rule: knob-docs ---------------------------------------------------

KNOB_RE = re.compile(r'"(CAGNET_[A-Z_]+)"')
KNOB_NAME_RE = re.compile(r"CAGNET_[A-Z_]+")
GETENV_RE = re.compile(r"\bgetenv\s*\(")
# A knob assigned in a workflow: `CAGNET_X=v cmd` or an `env:` key.
KNOB_SET_RE = re.compile(r"\b(CAGNET_[A-Z_]+)\s*[=:]")


def knob_table_names(readme):
    """CAGNET_* names in the first cell of README table rows."""
    names = set()
    for line in readme.splitlines():
        cells = line.strip().split("|")
        if line.lstrip().startswith("|") and len(cells) > 2:
            names.update(re.findall(r"CAGNET_[A-Z_]+", cells[1]))
    return names


def check_knob_docs(root):
    knobs = set()
    getenv_sites = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        text = path.read_text()
        knobs.update(KNOB_RE.findall(text))
        for lineno, line in enumerate(text.splitlines(), 1):
            if GETENV_RE.search(line.split("//", 1)[0]):
                getenv_sites.append(
                    f"{path.relative_to(root)}:{lineno}")
    # CAGNET_CHECK is also the assertion macro's name; the quoted literal
    # in contract_check.cpp is the env knob, which is what we want here.
    violations = []
    readme = (root / "README.md").read_text() if (root / "README.md").is_file() else ""
    design = (root / "DESIGN.md").read_text() if (root / "DESIGN.md").is_file() else ""
    table_rows = [l for l in readme.splitlines() if l.lstrip().startswith("|")]
    for knob in sorted(knobs):
        exact = re.compile(re.escape(knob) + r"(?![A-Z_])")
        if not any(exact.search(row) for row in table_rows):
            violations.append(
                f"README.md: knob-docs: env knob {knob} (read in src/) has "
                f"no row in the README knob table")
        if not exact.search(design):
            violations.append(
                f"DESIGN.md: knob-docs: env knob {knob} (read in src/) is "
                f"never mentioned in DESIGN.md")
    if len(getenv_sites) != 1:
        violations.append(
            f"src/: knob-docs: {len(getenv_sites)} std::getenv calls "
            f"({', '.join(getenv_sites) or 'none'}); read knobs through "
            f"knob::env in src/util/knob.cpp, the only one")
    for knob in sorted(knob_table_names(readme) - knobs):
        violations.append(
            f"README.md: knob-docs: {knob} has a row in the README knob "
            f"table but src/ never reads it")
    for knob in sorted(set(KNOB_NAME_RE.findall(design)) - knobs):
        violations.append(
            f"DESIGN.md: knob-docs: {knob} is mentioned in DESIGN.md but "
            f"src/ never reads it")
    ci_path = root / ".github/workflows/ci.yml"
    ci = ci_path.read_text() if ci_path.is_file() else ""
    for knob in sorted(set(KNOB_SET_RE.findall(ci)) - knobs):
        violations.append(
            f".github/workflows/ci.yml: knob-docs: {knob} is set in CI but "
            f"src/ never reads it, so the step re-runs the default suite")
    return violations


# ---- rule: bench-schema ------------------------------------------------

BENCH_NAME_RE = re.compile(r'\\"bench\\":\\"([a-z0-9_]+)\\"')
FIELD_RE = re.compile(r'\\"([a-z0-9_]+)\\":')


def load_schemas(root):
    sys.path.insert(0, str(root / "tools"))
    try:
        import check_bench_schema
        return check_bench_schema.SCHEMAS
    finally:
        sys.path.pop(0)


def check_bench_schema_sync(root, schemas=None):
    if schemas is None:
        schemas = load_schemas(root)
    violations = []
    seen_benches = set()
    bench_dir = root / "bench"
    for path in sorted(bench_dir.glob("*.cpp")) if bench_dir.is_dir() else []:
        text = path.read_text()
        names = set(BENCH_NAME_RE.findall(text))
        if not names:
            continue
        rel = path.relative_to(root).as_posix()
        for name in sorted(names):
            seen_benches.add(name)
            if name not in schemas:
                violations.append(
                    f"{rel}: bench-schema: emits bench \"{name}\" which has "
                    f"no entry in tools/check_bench_schema.py SCHEMAS")
                continue
            emitted = set(FIELD_RE.findall(text))
            missing = emitted - schemas[name]
            stale = schemas[name] - emitted
            for f in sorted(missing):
                violations.append(
                    f"{rel}: bench-schema: field \"{f}\" is emitted but "
                    f"missing from SCHEMAS[\"{name}\"] in "
                    f"tools/check_bench_schema.py")
            for f in sorted(stale):
                violations.append(
                    f"{rel}: bench-schema: SCHEMAS[\"{name}\"] pins field "
                    f"\"{f}\" which the bench no longer emits")
    for name in schemas:
        if name not in seen_benches:
            violations.append(
                f"tools/check_bench_schema.py: bench-schema: SCHEMAS entry "
                f"\"{name}\" has no emitting bench under bench/")
    return violations


# ---- rule: entry-wrapper -----------------------------------------------

MAIN_RE = re.compile(r"\bint\s+main\s*\(")
GBENCH_MAIN_RE = re.compile(r"^\s*BENCHMARK_MAIN\s*\(", re.MULTILINE)


def check_entry_wrapper(root):
    violations = []
    for top in ("bench", "examples"):
        directory = root / top
        for path in sorted(directory.glob("*.cpp")) if directory.is_dir() \
                else []:
            text = path.read_text()
            rel = path.relative_to(root).as_posix()
            if GBENCH_MAIN_RE.search(text):
                violations.append(
                    f"{rel}: entry-wrapper: BENCHMARK_MAIN defines main "
                    f"without run_main (src/util/cli.hpp)")
            match = MAIN_RE.search(text)
            if match is None:
                continue
            body = function_body(text, match.start())
            if body is None or "run_main(" not in body:
                violations.append(
                    f"{rel}: entry-wrapper: main does not run its body "
                    f"through run_main (src/util/cli.hpp), so an escaping "
                    f"exception aborts instead of exiting 1")
    return violations


# ---- rule: fma-free-clones ---------------------------------------------

TARGET_ATTR_RE = re.compile(
    r"\btarget(?:_clones)?\s*\(\s*((?:\"[^\"]*\"\s*,?\s*)+)\)")
TARGET_STRING_RE = re.compile(r'"([^"]*)"')
# ISA names and architectures whose instruction sets hold no FMA. Anything
# else is flagged, so a target new to this list has to be checked first.
FMA_FREE_TARGETS = {
    "default", "mmx", "sse", "sse2", "sse3", "ssse3", "sse4", "sse4.1",
    "sse4.2", "popcnt", "avx", "avx2", "f16c", "bmi", "bmi2", "lzcnt",
    "arch=x86-64", "arch=x86-64-v2", "arch=nehalem", "arch=westmere",
    "arch=sandybridge", "arch=ivybridge",
}


def check_fma_free_clones(root):
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        for match in TARGET_ATTR_RE.finditer(text):
            names = []
            for literal in TARGET_STRING_RE.findall(match.group(1)):
                names.extend(n.strip() for n in literal.split(","))
            bad = [n for n in names
                   if n and not n.startswith("no-")
                   and n not in FMA_FREE_TARGETS]
            if bad:
                line = text.count("\n", 0, match.start()) + 1
                violations.append(
                    f"{rel}:{line}: fma-free-clones: target "
                    f"{', '.join(repr(n) for n in bad)} may enable FMA, "
                    f"which contracts `acc += a * b` and changes result "
                    f"bits (allowed: {', '.join(sorted(FMA_FREE_TARGETS))})")
    return violations


# ---- rule: runconfig-knobs ---------------------------------------------

RUN_CONFIG = "src/core/run_config.hpp"
KNOB_NAME_RE = re.compile(r"\bCAGNET_[A-Z0-9_]+\b")
MEMBER_NAME_RE = re.compile(r"(\w+)\s*(?:=|\{|;)")


def run_config_members(text):
    """(line, name, doc comment) of each data member declared at the top
    level of `struct RunConfig` in `text`, or None when the struct is
    missing."""
    match = re.search(r"\bstruct\s+RunConfig\s*\{", text)
    if match is None:
        return None
    body = function_body(text, match.start())
    first_line = text.count("\n", 0, match.end()) + 1
    members = []
    doc = []
    decl = ""
    decl_line = 0
    depth = 0
    for offset, line in enumerate(body[1:-1].split("\n")):
        stripped = line.strip()
        if not decl:
            if stripped.startswith("//"):
                doc.append(stripped)
                continue
            if not stripped:
                doc = []
                continue
            decl_line = first_line + offset
        decl += " " + stripped
        depth += stripped.count("{") + stripped.count("(")
        depth -= stripped.count("}") + stripped.count(")")
        if depth > 0 or not (decl.rstrip().endswith(";")
                             or decl.rstrip().endswith("}")):
            continue
        head = re.split(r"[^=!<>]=[^=]", decl, maxsplit=1)[0]
        is_member = ("(" not in head and not re.match(
            r"\s*(static|using|friend|struct|class|enum)\b", decl))
        if is_member:
            name = MEMBER_NAME_RE.search(head + ";")
            members.append((decl_line, name.group(1) if name else "?",
                            " ".join(doc)))
        doc = []
        decl = ""
        depth = 0
    return members


def check_runconfig_knobs(root):
    path = root / RUN_CONFIG
    if not path.is_file():
        return [f"{RUN_CONFIG}: file missing (runconfig-knobs anchor is "
                f"stale; update RUN_CONFIG)"]
    members = run_config_members(path.read_text())
    if members is None:
        return [f"{RUN_CONFIG}: runconfig-knobs: `struct RunConfig` not "
                f"found (renamed? update RUN_CONFIG)"]
    violations = []
    for line, name, doc in members:
        if not KNOB_NAME_RE.search(doc):
            violations.append(
                f"{RUN_CONFIG}:{line}: runconfig-knobs: RunConfig::{name} "
                f"names no CAGNET_* knob in its doc comment — every run "
                f"mode is selectable by a knob; a test-only switch belongs "
                f"in the test, not in the run configuration")
    return violations


# ---- rule: one-layer-loop ----------------------------------------------

LAYER_OP_RE = re.compile(r"\b(relu|relu_backward|log_softmax_rows)\s*\(")
# Where the activations are defined, and their two permitted callers.
LAYER_OP_SITES = ("src/dense/ops.hpp", "src/dense/ops.cpp",
                  "src/core/dist_engine.cpp", "src/gnn/serial_trainer.cpp")


def check_one_layer_loop(root):
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in LAYER_OP_SITES:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            hit = LAYER_OP_RE.search(line.split("//", 1)[0])
            if hit:
                violations.append(
                    f"{rel}:{lineno}: one-layer-loop: `{hit.group(1)}(` "
                    f"outside DistEngine's layer loop "
                    f"(src/core/dist_engine.cpp) and the serial oracle — "
                    f"run the layer through DistEngine::forward/backward "
                    f"over an Aggregation instead")
    return violations


# ---- driver ------------------------------------------------------------

RULES = [
    ("seam-funnel", check_seam_funnel),
    ("naked-thread", check_naked_thread),
    ("hot-path-alloc", check_hot_path_alloc),
    ("knob-docs", check_knob_docs),
    ("bench-schema", check_bench_schema_sync),
    ("entry-wrapper", check_entry_wrapper),
    ("fma-free-clones", check_fma_free_clones),
    ("runconfig-knobs", check_runconfig_knobs),
    ("one-layer-loop", check_one_layer_loop),
]


def run(root):
    all_violations = []
    for name, rule in RULES:
        all_violations.extend(rule(root))
    for v in all_violations:
        print(v)
    if all_violations:
        print(f"lint_invariants: {len(all_violations)} violation(s)")
        return 1
    print(f"lint_invariants: OK ({len(RULES)} rules, 0 violations)")
    return 0


# ---- self-test ---------------------------------------------------------
#
# Seeds one violation per rule into a synthetic tree and asserts the rule
# fires. A rule that stops firing (regex rot, renamed anchor) fails CI
# here rather than silently passing everything forever.


def build_seeded_tree(tmp):
    (tmp / "src/comm").mkdir(parents=True)
    (tmp / "src/util").mkdir(parents=True)
    (tmp / "src/core").mkdir(parents=True)
    # runconfig-knobs: a documented mode beside a test-only switch.
    (tmp / RUN_CONFIG).write_text(
        "struct RunConfig {\n"
        "  /// Halo exchange (CAGNET_HALO).\n"
        "  bool halo = false;\n"
        "  /// Per-hop fanouts (CAGNET_SAMPLE_FANOUT).\n"
        "  std::vector<Index> sample_fanouts = {15, 10, 5};\n"
        "  /// Switches between two code paths; test-only.\n"
        "  bool second_path = true;\n"
        "  void validate() const;\n"
        "  bool operator==(const RunConfig&) const = default;\n"
        "};\n")
    (tmp / "bench").mkdir()
    # seam-funnel: both anchor files exist but await_source never calls
    # seam_event; the rest of the anchors are present and clean.
    hpp_parts = []
    for anchor in SEAM_ANCHORS["src/comm/comm.hpp"]:
        body = ("{}" if anchor == "std::span<const T> await_source("
                else "{ seam_event(x); }")
        hpp_parts.append(f"template <typename T>\n{anchor}) {body}\n")
    (tmp / "src/comm/comm.hpp").write_text("\n".join(hpp_parts))
    cpp_parts = []
    for anchor in SEAM_ANCHORS["src/comm/comm.cpp"]:
        cpp_parts.append(f"{anchor}) {{ seam_event(x); }}\n")
    # naked-thread: a raw std::thread outside parallel.*, unannotated.
    cpp_parts.append("void rogue() { std::thread t([] {}); t.join(); }\n")
    # hot-path-alloc: a marked function that allocates.
    cpp_parts.append(
        "// [[hot-path]]\nvoid hot() { auto* p = new int(1); (void)p; }\n")
    # one-layer-loop: a ReLU outside the engine's layer loop.
    (tmp / "src/core/dist_sampler.cpp").write_text(
        "void forward_batch(Matrix& z, Matrix& h) { relu(z, h); }\n")
    # fma-free-clones: an avx512f clone beside the allowed ones.
    cpp_parts.append(
        '__attribute__((target_clones("avx512f", "avx2", "default")))\n'
        "void fold() {}\n")
    # knob-docs: a knob read in src/ but absent from README/DESIGN, a
    # second std::getenv, and the other direction — a retired knob still
    # in the README knob table, in DESIGN.md, and set in a CI step.
    cpp_parts.append(
        'void knob() { (void)std::getenv("CAGNET_UNDOCUMENTED"); }\n'
        'void documented() { (void)std::getenv("CAGNET_DOCUMENTED"); }\n')
    (tmp / "src/comm/comm.cpp").write_text("\n".join(cpp_parts))
    (tmp / "README.md").write_text("| `CAGNET_DOCUMENTED` | ... |\n"
                                   "| `CAGNET_RETIRED` | ... |\n")
    (tmp / "DESIGN.md").write_text("CAGNET_DOCUMENTED\nCAGNET_RETIRED\n")
    (tmp / ".github/workflows").mkdir(parents=True)
    (tmp / ".github/workflows/ci.yml").write_text(
        "        run: CAGNET_RETIRED=0 ctest\n")
    # bench-schema: emits a field the schema does not pin.
    (tmp / "bench/bench_fake.cpp").write_text(
        'printf("{\\"schema_version\\":1,\\"bench\\":\\"fake\\","'
        '"\\"rogue_field\\":%d}\\n", 1);\n')
    # entry-wrapper: a main that calls its body directly.
    (tmp / "examples").mkdir()
    (tmp / "examples/bare_main.cpp").write_text(
        "int body(int argc, char** argv);\n"
        "int main(int argc, char** argv) { return body(argc, argv); }\n")
    return {"fake": {"schema_version", "bench"}}


def self_test():
    import shutil
    import tempfile
    tmp = Path(tempfile.mkdtemp(prefix="lint_selftest_"))
    try:
        schemas = build_seeded_tree(tmp)
        failures = []
        # (label, substring the violation must contain, rule)
        expectations = [
            ("seam-funnel", "seam-funnel", lambda: check_seam_funnel(tmp)),
            ("naked-thread", "naked-thread",
             lambda: check_naked_thread(tmp)),
            ("hot-path-alloc", "hot-path-alloc",
             lambda: check_hot_path_alloc(tmp)),
            ("knob-docs", "has no row", lambda: check_knob_docs(tmp)),
            ("knob-docs (unread, README)", "README knob table but",
             lambda: check_knob_docs(tmp)),
            ("knob-docs (unread, CI)", "set in CI but",
             lambda: check_knob_docs(tmp)),
            ("knob-docs (unread, DESIGN)", "mentioned in DESIGN.md but",
             lambda: check_knob_docs(tmp)),
            ("knob-docs (one getenv)", "2 std::getenv calls",
             lambda: check_knob_docs(tmp)),
            ("bench-schema", "bench-schema",
             lambda: check_bench_schema_sync(tmp, schemas)),
            ("entry-wrapper", "entry-wrapper",
             lambda: check_entry_wrapper(tmp)),
            ("fma-free-clones", "'avx512f' may enable FMA",
             lambda: check_fma_free_clones(tmp)),
            ("runconfig-knobs", "RunConfig::second_path names no",
             lambda: check_runconfig_knobs(tmp)),
            ("one-layer-loop", "dist_sampler.cpp:1: one-layer-loop",
             lambda: check_one_layer_loop(tmp)),
        ]
        for name, marker, rule in expectations:
            found = [v for v in rule() if marker in v]
            if not found:
                failures.append(name)
                print(f"self-test: rule {name} FAILED to flag its seeded "
                      f"violation")
            else:
                print(f"self-test: rule {name} fired: {found[0]}")
        if failures:
            print(f"lint_invariants --self-test: {len(failures)} rule(s) "
                  f"dead: {', '.join(failures)}")
            return 1
        print(f"lint_invariants --self-test: OK ({len(expectations)} "
              f"seeded violations flagged)")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if len(argv) > 1:
        print(f"usage: {argv[0]} [--self-test]", file=sys.stderr)
        return 2
    return run(REPO)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
