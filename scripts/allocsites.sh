#!/bin/sh
# Where one benchmark workload's allocations come from, per simulated task.
#
#   scripts/allocsites.sh WORKLOAD [SEED]        (make allocsites W=WORKLOAD)
#
# Builds the repository benchmark unmodified and runs WORKLOAD with
# `-reps 3 -memprofile -cpuprofile`, then prints
#   - the benchmark's own allocs_per_task (exact: a MemStats delta),
#   - that figure split by package and by the 25 largest allocation sites
#     (the profile samples allocations, so a site's share is an estimate; the
#     shares are scaled to the exact total),
#   - the share of host CPU time inside the allocator (runtime.mallocgc) and
#     the concurrent collector (runtime.gcBgMarkWorker).
# This is the table a change to the message path or the task lifecycle quotes
# before and after (EXPERIMENTS.md). Profiles stay in a temp directory, whose
# path is printed last.
set -eu

w=${1:?usage: scripts/allocsites.sh WORKLOAD [SEED]}
seed=${2:-3}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)

(cd "$root/benchmark" && go build -o "$tmp/bench" . &&
    "$tmp/bench" -workload "$w" -seed "$seed" -reps 3 \
        -memprofile "$tmp/mem.prof" -cpuprofile "$tmp/cpu.prof" >"$tmp/out.txt" 2>&1) || {
    cat "$tmp/out.txt"
    exit 1
}

per_task=$(awk '$1 == "allocs_per_task" { print $2 }' "$tmp/out.txt")
echo "== $w (seed $seed): allocs_per_task $per_task"

go tool pprof -sample_index=alloc_objects -top -nodecount=100000 "$tmp/bench" "$tmp/mem.prof" 2>/dev/null |
    awk -v per_task="$per_task" '
    # Rows: flat flat% sum% cum cum% name. Only flat counts, so every object
    # is attributed to the function that allocated it.
    seen_header && $1 + 0 > 0 {
        name = $6
        for (i = 7; i <= NF; i++) name = name " " $i
        flat[name] = $1; total += $1
        # The package is the import path up to the first dot after its last
        # slash ("amtlci/internal/core.PutHeader.Marshal" -> ".../core").
        # (type arguments of generic names may hold slashes: cut them first).
        base = name
        sub(/\[.*/, "", base)
        slash = 0
        for (i = 1; i <= length(base); i++) if (substr(base, i, 1) == "/") slash = i
        pkg = substr(base, 1, slash + index(substr(base, slash + 1), ".") - 1)
        sub(/^amtlci\/(internal\/)?/, "", pkg)
        bypkg[pkg] += $1
    }
    $1 == "flat" { seen_header = 1 }
    END {
        scale = per_task / total
        print "\n-- by package (allocs/task)"
        n = 0
        for (p in bypkg) row[n++] = sprintf("%012.4f %s", bypkg[p] * scale, p)
        sortprint(row, n, 1000)
        print "\n-- top 25 sites (allocs/task)"
        n = 0
        for (f in flat) row2[n++] = sprintf("%012.4f %s", flat[f] * scale, f)
        sortprint(row2, n, 25)
    }
    function sortprint(a, n, limit,    i, j, t, v) {
        for (i = 1; i < n; i++) { t = a[i]; for (j = i - 1; j >= 0 && a[j] < t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        for (i = 0; i < n && i < limit; i++) {
            v = substr(a[i], 1, 12) + 0
            if (v < 0.005) break
            printf "%8.2f  %s\n", v, substr(a[i], 14)
        }
    }'

echo
echo "-- host CPU share (cumulative)"
go tool pprof -top -nodecount=100000 "$tmp/bench" "$tmp/cpu.prof" 2>/dev/null |
    awk '$6 == "runtime.mallocgc" || $6 == "runtime.gcBgMarkWorker" { printf "%8s  %s\n", $5, $6 }'

echo
echo "profiles: $tmp"
