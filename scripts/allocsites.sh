#!/bin/sh
# Where one benchmark workload's allocations, allocated bytes and retained heap
# come from.
#
#   scripts/allocsites.sh WORKLOAD [SEED]        (make allocsites W=WORKLOAD)
#
# Builds the repository benchmark unmodified and runs WORKLOAD twice, with
# `-reps 3 -memprofile` and with `-reps 3 -cpuprofile` (apart, because the
# fine-grained memory profile makes every allocation dearer), then prints
#   - the benchmark's own allocs_per_task, alloc_bytes_per_task and
#     live_heap_mb (exact: MemStats deltas and HeapAlloc after a collection),
#   - each of the three split by package and by the 25 largest sites: objects
#     allocated and bytes allocated per simulated task, and the bytes still in
#     use after the last rep — the heap live_heap_mb measures, because the
#     profile is written at exit and shows the heap as of the last collection,
#     the one the benchmark forces before it reads HeapAlloc. (The profile
#     samples allocations — one per 16 KiB here, finer than the default so that
#     a heap of a few MB still splits — so a site's share is an estimate; the
#     shares are scaled to the exact total. The profilers' own buffers, about
#     1.2 MB, are part of this run's heap and show as runtime/pprof.)
#   - wall_ns_per_task of the CPU-profiled run split the same way: host ns per
#     task by package (flat: every sample charged
#     to the function it was taken in) and the 25 largest cumulative sites
#     (a function and everything it calls), both scaled so that all samples
#     together are the exact wall_ns_per_task. The profile also covers set-up
#     and the profiler's own threads, so a row is that code's share of the
#     process, expressed in the metric's unit,
#   - the share of host CPU time inside the allocator (runtime.mallocgc) and
#     the concurrent collector (runtime.gcBgMarkWorker).
# These are the tables a change to the message path, the task lifecycle or a
# layer's construction quotes before and after (EXPERIMENTS.md). Profiles stay
# in a temp directory, whose path is printed last.
set -eu

w=${1:?usage: scripts/allocsites.sh WORKLOAD [SEED]}
seed=${2:-3}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)

(cd "$root/benchmark" && go build -o "$tmp/bench" . &&
    GODEBUG=memprofilerate=16384 "$tmp/bench" -workload "$w" -seed "$seed" -reps 3 \
        -memprofile "$tmp/mem.prof" >"$tmp/out.txt" 2>&1 &&
    "$tmp/bench" -workload "$w" -seed "$seed" -reps 3 \
        -cpuprofile "$tmp/cpu.prof" >"$tmp/cpu.txt" 2>&1) || {
    cat "$tmp/out.txt" "$tmp/cpu.txt"
    exit 1
}

metric() { awk -v m="$1" '$1 == m { print $2 }' "${2:-$tmp/out.txt}"; }

# breakdown TOTAL UNIT SITECOL: reads `pprof -top` rows (flat flat% sum% cum cum%
# name) and prints the flat values by package and column SITECOL (1 flat,
# 4 cumulative) of the 25 largest sites, scaled so that the flat values sum to
# TOTAL. Flat attributes every sample to the function it was taken in.
breakdown() {
    awk -v exact="$1" -v unit="$2" -v sitecol="$3" '
    seen_header && $sitecol + 0 > 0 {
        name = $6
        for (i = 7; i <= NF; i++) name = name " " $i
        site[name] = $sitecol + 0; total += $1 + 0
        # The package is the import path up to the first dot after its last
        # slash ("amtlci/internal/core.PutHeader.Marshal" -> ".../core").
        # (type arguments of generic names may hold slashes: cut them first).
        base = name
        sub(/\[.*/, "", base)
        slash = 0
        for (i = 1; i <= length(base); i++) if (substr(base, i, 1) == "/") slash = i
        pkg = substr(base, 1, slash + index(substr(base, slash + 1), ".") - 1)
        sub(/^amtlci\/(internal\/)?/, "", pkg)
        if (pkg == "") pkg = "(assembly stubs)"
        bypkg[pkg] += $1 + 0
    }
    $1 == "flat" { seen_header = 1 }
    END {
        if (total == 0) { print "\n-- no samples"; exit }
        scale = exact / total
        print "\n-- by package (" unit ")"
        n = 0
        for (p in bypkg) row[n++] = sprintf("%016.4f %s", bypkg[p] * scale, p)
        sortprint(row, n, 1000)
        print "\n-- top 25 sites (" unit (sitecol == 4 ? ", cumulative)" : ")")
        n = 0
        for (f in site) row2[n++] = sprintf("%016.4f %s", site[f] * scale, f)
        sortprint(row2, n, 25)
    }
    function sortprint(a, n, limit,    i, j, t, v) {
        for (i = 1; i < n; i++) { t = a[i]; for (j = i - 1; j >= 0 && a[j] < t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        for (i = 0; i < n && i < limit; i++) {
            v = substr(a[i], 1, 16) + 0
            if (v < 0.005) break
            printf "%10.2f  %s\n", v, substr(a[i], 18)
        }
    }'
}

# table SAMPLE_INDEX TOTAL UNIT: one sample type of the memory profile.
table() {
    go tool pprof -sample_index="$1" -unit=b -top -nodecount=100000 "$tmp/bench" "$tmp/mem.prof" 2>/dev/null |
        breakdown "$2" "$3" 1
}

per_task=$(metric allocs_per_task)
echo "== $w (seed $seed): allocs_per_task $per_task"
table alloc_objects "$per_task" allocs/task

bytes=$(metric alloc_bytes_per_task)
echo
echo "== $w (seed $seed): alloc_bytes_per_task $bytes"
table alloc_space "$bytes" B/task

live=$(metric live_heap_mb)
echo
echo "== $w (seed $seed): live_heap_mb $live (in use after the last rep)"
table inuse_space "$(awk -v mb="$live" 'BEGIN { print mb * 1024 }')" KiB

wall=$(metric wall_ns_per_task "$tmp/cpu.txt")
echo
echo "== $w (seed $seed): wall_ns_per_task $wall (host CPU of the whole run, scaled)"
go tool pprof -unit=us -top -nodecount=100000 -nodefraction=0 "$tmp/bench" "$tmp/cpu.prof" 2>/dev/null |
    breakdown "$wall" ns/task 4

echo
echo "-- host CPU share (cumulative)"
go tool pprof -top -nodecount=100000 -nodefraction=0 "$tmp/bench" "$tmp/cpu.prof" 2>/dev/null |
    awk '$6 == "runtime.mallocgc" || $6 == "runtime.gcBgMarkWorker" { printf "%8s  %s\n", $5, $6 }'

echo
echo "profiles: $tmp"
