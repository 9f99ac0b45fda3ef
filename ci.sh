#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md). Fully offline: the workspace
# has no third-party dependencies.
set -eux

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Docs gate: every intra-doc link resolves and no doc comment warns, so a
# renamed or deleted item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo build --release
cargo test --workspace -q
# Fault-injection suite: every (stage x fault mode x job count) must leave
# the batch complete, ordered, and correctly counted — including transient
# retries and watchdog-requeued stalls.
cargo test -q -p parpat-engine --test faults
# Kill-and-resume: a journal truncated mid-record must restore the
# completed prefix byte-identically and re-run only the tail.
cargo test -q -p parpat-engine --test resume
# Torn-write property: a journal truncated at EVERY byte position must
# scan to exactly the complete-record prefix and resume without a panic.
cargo test -q -p parpat-engine --test torn
# Crash-consistency harness: power-cut / EIO / ENOSPC injected at EVERY
# mutating storage operation of a batch (simulated VFS) — zero panics,
# outcomes byte-identical to the uninterrupted run, recovery accounted
# in counters, and ENOSPC mid-append at every byte offset leaves the
# journal resumable.
cargo test -q -p parpat-engine --test crashfs
# fsck golden gate: every seeded corruption class (journal bit-rot, cache
# record rot + truncation, orphaned temp) must be detected under its
# stable F-code, and `parpat fsck --repair` must restore a directory that
# a resumed batch completes byte-identically.
cargo test -q --test fsck
# Real-process kill-and-resume: `parpat batch apps` SIGKILLed mid-run must
# `--resume` byte-identically to the uninterrupted run.
cargo test -q --test kill_resume
# Profiler gate: the dependence profiler must produce the same
# ProfileData, field for field, as the reference profiler kept in its
# tests, over the suite, 200 generated programs (faulting ones included)
# and hand-written loop/recursion/line-memo shapes; the sanitizer must
# accept each. Its unit tests also profile the 19 models and the same 200
# programs with context-trie compaction at its most eager, which must
# change no field, and check that the tries stay bounded.
cargo test -q -p parpat-profile
# Evaluator differential gate: the reference evaluator (the oracle's
# independent half) must agree with a verbatim copy of its previous
# version, return value, every global bit for bit and step count, or
# error line, message and kind, over the 19 bundled models, 200
# generated programs and hand-written scope, fault and budget shapes.
cargo test -q -p parpat-minilang --test differential
# SSA gate: the optimized SSA form, run by its own executor, must match
# the tree interpreter over the suite and 200 generated programs; the
# verifier must report every seeded violation with its exact message, in
# order, and an unreachable block as a violation rather than a panic.
cargo test -q -p parpat-ssa
# The benchmark is its own workspace, so nothing above compiles it: build
# it against the current API and run its own tests.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
# Front-end fuzzing: random bytes and 10k-deep nesting must produce
# structured diagnostics, never a panic or stack overflow.
cargo test -q -p parpat-minilang --test fuzz
# Static diagnostics are byte-stable over the bundled suite: the release
# binary must reproduce the checked-in golden snapshot exactly.
./target/release/parpat lint apps --json | diff tests/golden/lint_apps.json -
# Report golden gate: the `programs` section of `parpat batch apps
# --cache-dir none --json` (every count, summary, loop class, reduction and
# pipeline of the 17 apps) must reproduce the checked-in snapshot exactly,
# so a change to the profiler's tables or memos that moves any verdict fails.
cargo test -q --test report_golden
# The IR verifier must hold over every bundled app (any V-code exits 1).
./target/release/parpat verify apps
# The shrinker is deterministic: the seeded miscompile fixture must reduce
# to the checked-in golden reproducer byte-for-byte.
./target/release/parpat shrink tests/fixtures/miscompile_seed.ml --inject swap-add-sub \
    | diff tests/golden/shrink_miscompile.txt -
# Disk-tier gate: a cold then a warm batch over the suite into an empty
# cache dir. The dir must hold three records per program (parse, lower and
# report), the warm run must serve all 17 programs from them, and the dir
# must scrub clean.
rm -rf target/tmp/ci-cache
./target/release/parpat batch apps --cache-dir target/tmp/ci-cache > /dev/null
./target/release/parpat batch apps --cache-dir target/tmp/ci-cache --json \
    > target/tmp/ci-cache-warm.json
test "$(find target/tmp/ci-cache -name '*.rec' | wc -l)" -eq 51
grep -q '"served_from_cache": 17' target/tmp/ci-cache-warm.json
./target/release/parpat fsck target/tmp/ci-cache
# Serve-layer chaos soak: concurrent clients under fault injection and
# socket-level hostility — zero panics, byte-identical successful
# reports, structured errors for every shed/faulted/timed-out request.
cargo test -q -p parpat-serve --test chaos
# Shutdown drain promptness and slow-loris idle-timeout policing.
cargo test -q -p parpat-serve --test drain
# Resident-service benchmark: the warm server must beat the cold one-shot
# path by >= 2x (asserted inside the bench), measure overload p99 and
# shed rate, and emit its JSON report under target/tmp (not the checkout).
cargo bench -p parpat-bench --bench serve
test -s target/tmp/BENCH_serve.json
