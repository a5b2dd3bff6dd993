#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then the suites of the code that
# runs concurrently - thread pool, work-stealing scheduler, fleet server,
# cross-thread guard cancellation, fault injection, streaming sessions and
# their fuzz lane - again under ThreadSanitizer (the same -R pattern as
# CI's fault-injection-tsan job). Every engine run is sequential; sessions are
# the only parallel axis.
# Run from the repository root: tools/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== tier1: standard build ==="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure

echo "=== tier1: ThreadSanitizer build (concurrency suites) ==="
cmake -B build-tsan -S . -DDMTL_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target dmtl_tests
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R "ThreadPool|WorkSteal|Fleet|Guard|FaultInjection|StreamingFuzz|StreamingSession"

echo "tier1: OK"
