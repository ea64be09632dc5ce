#!/usr/bin/env python3
"""Repo-local lint rules that clang-tidy/cppcheck cannot express.

Run from anywhere: paths are resolved relative to the repository root
(the parent of this script's directory). Exit status is the number of
files with findings (0 = clean), so ctest and CI can gate on it.

Rules
-----
naked-tag-literal
    p2p calls in the engine/serving/tools layers (src/core, src/serve,
    tools) must name their tag (kTagQuery, ...), never pass an integer
    literal. A literal tag silently collides with the protocol's named
    tags and defeats annsim::check's reserved-tag rule. The MPI layer
    itself and its tests are exempt: they define and exercise raw tags.

sleep-in-test
    tests/ must not use std::this_thread::sleep_for — timing-based tests
    flake under sanitizers and loaded CI runners. Exempt: suites whose
    subject *is* time (tests/des/, tests/check/ deadlock/backoff tests,
    test_mpi_timeout, test_timer_log, test_server_degraded's detection
    deadlines).

missing-include-guard
    every header under include/ and src/ must open with #pragma once
    (or a classic include guard) before any non-comment content.

sleep-in-serve
    the serving plane (src/serve, include/annsim/serve) must not call
    std::this_thread::sleep_for directly — a raw sleep on the scheduler
    or a retry path stalls every queued request behind it. Poll with
    common/backoff.hpp (spin -> yield -> bounded sleep) or block on a
    condition variable with a deadline instead. sleep_until in the load
    generator is exempt: paced open-loop arrival times are the subject.

raw-buffer-in-quant
    the quantized tier (src/quant, include/annsim/quant) must not
    allocate raw buffers (new[], malloc, aligned_alloc): code slabs and
    float caches go through common/aligned_buffer.hpp, which owns the
    alignment the fused uint8 kernels assume and frees with the matching
    deallocator. A raw new[] here either loses the 64-byte alignment or
    leaks it into a unique_ptr with the wrong deleter.

raw-sleep-in-src
    no file under src/ or include/annsim/ may call
    std::this_thread::sleep_for directly. Every wall-clock wait goes
    through common/backoff.hpp (Backoff::pause or sleep_approx): the
    schedule explorer (annsim::explore) can only make waits deterministic
    when they are funneled through one auditable choke point, and a raw
    sleep in a polling loop is invisible to it. backoff.hpp itself is the
    single sanctioned caller.

raw-write-in-recovery
    the recovery plane (src/recovery, include/annsim/recovery) must not
    open files for writing with std::ofstream or fopen: durability code
    that skips DurableFile silently loses the fsync-before-ack and
    atomic-rename guarantees the WAL and checkpoint store are built on.
    All writes go through recovery/durable_file.hpp; durable_file.cpp
    itself (the one wrapper over the raw syscalls) is exempt. Reads
    (std::ifstream) are fine — torn data is detected by CRC, not
    prevented by the reader.

raw-thread-in-ranks
    the MPI runtime and the engines (src/mpi, src/core) must not create
    std::thread directly. Ranks and worker thread teams are cohorts whose
    members block on each other; they run through
    common/thread_cohort.hpp, which borrows parked threads instead of
    creating and joining OS threads per search, and carries a member's
    exception to the caller instead of calling std::terminate.

runtime-outside-phase-helper
    src/core/engine.cpp and src/core/search.cpp may construct an
    mpi::Runtime only inside DistributedAnnEngine::run_phase. That helper
    is the one place an engine phase gets its fault injector, schedule
    controller and checker, and folds the checker's report back on both
    the normal and the throwing path; a runtime built anywhere else runs
    unchecked, unscheduled or with a report that is lost on error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# --- rule: naked tag literals at engine/serve/tool call sites -------------
TAG_CALL_DIRS = ["src/core", "src/serve", "tools"]
# .send(dest, 3, ...) / .irecv(src, -1) / .iprobe(src, 7) ... with a bare
# integer in tag position. Named constants (kTagQuery) do not match.
TAG_CALL_RE = re.compile(
    r"\.\s*(?:send|isend|send_reserved|isend_reserved|recv|irecv|recv_for|"
    r"iprobe)\s*\(\s*(?:[^,()]|\([^()]*\))+,\s*(-?\d+)\s*[,)]"
)

# --- rule: sleep_for in tests ---------------------------------------------
SLEEP_RE = re.compile(r"\bsleep_for\s*\(")
SLEEP_ALLOW = [
    "tests/des/",                        # discrete-event timing suites
    "tests/check/",                      # deadlock detection needs real delays
    "tests/mpi/test_mpi_timeout.cpp",    # subject is recv_for deadlines
    "tests/common/test_timer_log.cpp",   # subject is the wall timer
    "tests/serve/test_server_degraded.cpp",  # failure-detection deadlines
    "tests/serve/test_server_overload.cpp",  # breaker open-period deadlines
]

# --- rule: header guards ---------------------------------------------------
HEADER_DIRS = ["include", "src"]
GUARD_RE = re.compile(r"^\s*(#pragma\s+once|#ifndef\s+\w+)\s*$", re.M)

# --- rule: raw sleeps in the serving plane --------------------------------
SERVE_DIRS = ["src/serve", "include/annsim/serve"]

# --- rule: raw buffer allocation in the quantized tier --------------------
QUANT_DIRS = ["src/quant", "include/annsim/quant"]
RAW_BUFFER_RE = re.compile(
    r"\bnew\s+[\w:]+(?:\s*<[^<>]*>)?\s*\[|\b(?:malloc|calloc|aligned_alloc|"
    r"posix_memalign)\s*\("
)

# --- rule: raw sleeps anywhere under src/ or include/annsim ---------------
SRC_SLEEP_DIRS = ["src", "include/annsim"]
SRC_SLEEP_ALLOW = ["include/annsim/common/backoff.hpp"]

# --- rule: raw file writes in the recovery plane --------------------------
RECOVERY_DIRS = ["src/recovery", "include/annsim/recovery"]
RECOVERY_WRITE_ALLOW = ["src/recovery/durable_file.cpp"]
RAW_WRITE_RE = re.compile(r"\bstd::ofstream\b|\bofstream\b|\bfopen\s*\(")

# --- rule: raw threads in the runtime and the engines ---------------------
RANK_THREAD_DIRS = ["src/mpi", "src/core"]
RAW_THREAD_RE = re.compile(r"\bstd::(?:thread|jthread)\b")

# --- rule: engine runtimes only inside the phase helper -------------------
PHASE_FILES = ["src/core/engine.cpp", "src/core/search.cpp"]
PHASE_HELPER = "DistributedAnnEngine::run_phase"
# `Runtime rt(...)`, `Runtime rt{...}`, a temporary `Runtime(...)`, or
# make_unique/make_shared<Runtime>. References (`Runtime& rt`) do not match.
RUNTIME_CTOR_RE = re.compile(
    r"\b(?:mpi::)?Runtime\b\s*(?:\w+\s*)?[({]|"
    r"\bmake_(?:unique|shared)\s*<\s*(?:mpi::)?Runtime\s*>"
)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line breaks
    so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif ch in "\"'":
            q = ch
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def check_naked_tags(findings: list[str]) -> None:
    for d in TAG_CALL_DIRS:
        for path in sorted((REPO / d).rglob("*.cpp")):
            rel = path.relative_to(REPO)
            text = strip_comments_and_strings(path.read_text())
            for m in TAG_CALL_RE.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [naked-tag-literal] "
                    f"tag {m.group(1)} passed as a literal; use a named "
                    f"kTag* constant from core/protocol.hpp"
                )


def check_test_sleeps(findings: list[str]) -> None:
    for path in sorted((REPO / "tests").rglob("*.cpp")):
        rel = str(path.relative_to(REPO))
        if any(rel.startswith(a) or rel == a for a in SLEEP_ALLOW):
            continue
        text = strip_comments_and_strings(path.read_text())
        for m in SLEEP_RE.finditer(text):
            findings.append(
                f"{rel}:{line_of(text, m.start())}: [sleep-in-test] "
                f"timing-based sleep in a test; synchronize with a "
                f"handshake message or condition instead"
            )


def check_header_guards(findings: list[str]) -> None:
    for d in HEADER_DIRS:
        for path in sorted((REPO / d).rglob("*.hpp")):
            rel = path.relative_to(REPO)
            text = strip_comments_and_strings(path.read_text())
            if not GUARD_RE.search(text):
                findings.append(
                    f"{rel}:1: [missing-include-guard] header lacks "
                    f"#pragma once (or an include guard)"
                )


def check_serve_sleeps(findings: list[str]) -> None:
    for d in SERVE_DIRS:
        for path in sorted((REPO / d).rglob("*.[ch]pp")):
            rel = path.relative_to(REPO)
            text = strip_comments_and_strings(path.read_text())
            for m in SLEEP_RE.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [sleep-in-serve] "
                    f"raw sleep_for on the serving plane stalls queued "
                    f"requests; use common/backoff.hpp or a deadline wait"
                )


def check_quant_raw_buffers(findings: list[str]) -> None:
    for d in QUANT_DIRS:
        for path in sorted((REPO / d).rglob("*.[ch]pp")):
            rel = path.relative_to(REPO)
            text = strip_comments_and_strings(path.read_text())
            for m in RAW_BUFFER_RE.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [raw-buffer-in-quant] "
                    f"raw buffer allocation in the quantized tier; use "
                    f"common/aligned_buffer.hpp for code slabs and caches"
                )


def check_src_sleeps(findings: list[str]) -> None:
    for d in SRC_SLEEP_DIRS:
        for path in sorted((REPO / d).rglob("*.[ch]pp")):
            rel = str(path.relative_to(REPO))
            if rel in SRC_SLEEP_ALLOW:
                continue
            text = strip_comments_and_strings(path.read_text())
            for m in SLEEP_RE.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [raw-sleep-in-src] "
                    f"raw sleep_for is invisible to the schedule explorer; "
                    f"wait through common/backoff.hpp (sleep_approx or "
                    f"Backoff::pause)"
                )


def check_recovery_raw_writes(findings: list[str]) -> None:
    for d in RECOVERY_DIRS:
        for path in sorted((REPO / d).rglob("*.[ch]pp")):
            rel = str(path.relative_to(REPO))
            if rel in RECOVERY_WRITE_ALLOW:
                continue
            text = strip_comments_and_strings(path.read_text())
            for m in RAW_WRITE_RE.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: "
                    f"[raw-write-in-recovery] raw file write in the recovery "
                    f"plane skips fsync/atomic-rename; go through "
                    f"recovery/durable_file.hpp"
                )


def check_rank_raw_threads(findings: list[str]) -> None:
    for d in RANK_THREAD_DIRS:
        for path in sorted((REPO / d).rglob("*.[ch]pp")):
            rel = path.relative_to(REPO)
            text = strip_comments_and_strings(path.read_text())
            for m in RAW_THREAD_RE.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [raw-thread-in-ranks] "
                    f"ranks and worker teams run through "
                    f"common/thread_cohort.hpp, not a raw std::thread"
                )


def body_span(text: str, signature: str) -> tuple[int, int]:
    """[start, end) of the brace-delimited body of the first definition of
    `signature` in `text`, or (-1, -1) when there is none."""
    at = text.find(signature + "(")
    if at < 0:
        return -1, -1
    open_brace = text.find("{", at)
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace, i + 1
    return open_brace, len(text)


def check_phase_runtimes(findings: list[str]) -> None:
    for rel in PHASE_FILES:
        path = REPO / rel
        if not path.exists():
            continue
        text = strip_comments_and_strings(path.read_text())
        start, end = body_span(text, PHASE_HELPER)
        for m in RUNTIME_CTOR_RE.finditer(text):
            if start <= m.start() < end:
                continue
            findings.append(
                f"{rel}:{line_of(text, m.start())}: "
                f"[runtime-outside-phase-helper] engine phases run through "
                f"{PHASE_HELPER}, which arms the injector, schedule and "
                f"checker; do not construct an mpi::Runtime here"
            )


def main() -> int:
    findings: list[str] = []
    check_naked_tags(findings)
    check_test_sleeps(findings)
    check_header_guards(findings)
    check_serve_sleeps(findings)
    check_quant_raw_buffers(findings)
    check_src_sleeps(findings)
    check_recovery_raw_writes(findings)
    check_rank_raw_threads(findings)
    check_phase_runtimes(findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_repo: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_repo: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
