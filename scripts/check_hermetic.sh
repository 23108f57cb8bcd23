#!/bin/sh
# Hermeticity check for the test suites that write files: runs them
# five times over and in parallel, so a test that shares a temp path
# with a sibling case (ctest runs each gtest case as its own process)
# fails here instead of flaking in tier-1. Not itself a ctest, because
# it runs ctest.
#
# Usage: check_hermetic.sh [build-dir]   (default: build)
set -eu

build="${1:-build}"
suites='TraceWorkload|OpenWorkloadTest|WorkloadRegistryTest'
suites="$suites|ScenarioSpec|MetricsRegistry|ManifestTest|MergeTest"
suites="$suites|WorkerShardTest|ShardFile|RequestTrace"
suites="$suites|WriteArtifactTest"
suites="$suites|SettleDigestTest"

exec ctest --test-dir "$build" -R "$suites" \
    --repeat until-fail:5 -j 8 --output-on-failure
