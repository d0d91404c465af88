#!/bin/sh
# Where one benchmark workload's allocations, allocated bytes and retained heap
# come from — and, given a base commit, where a change moved them.
#
#   scripts/allocsites.sh WORKLOAD [SEED] [BASE]   (make allocsites W=WORKLOAD [SEED=…] [BASE=…])
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
# With BASE, the benchmark is also built at commit BASE (exported with
# `git archive` into the temporary directory, as scripts/pairs.sh does, and
# removed on exit) and both memory-profiled runs are made; the three memory
# tables then print base → change per package and for the 25 sites that moved
# most, with the difference. There is no CPU table then: host time is too
# noisy for one run a side (scripts/pairs.sh measures it).
# These are the tables a change to the message path, the task lifecycle or a
# layer's construction quotes before and after. Profiles stay in a temp
# directory, whose path is printed last.
set -eu

w=${1:?usage: scripts/allocsites.sh WORKLOAD [SEED] [BASE]}
seed=${2:-3}
base=${3:-}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp/base"' EXIT
trap 'exit 130' INT TERM

# memrun SIDE SRC builds SRC's benchmark as $tmp/bench_SIDE and makes the
# memory-profiled run ($tmp/mem_SIDE.prof, $tmp/out_SIDE.txt).
memrun() {
    (cd "$2/benchmark" && go build -o "$tmp/bench_$1" . &&
        GODEBUG=memprofilerate=16384 "$tmp/bench_$1" -workload "$w" -seed "$seed" -reps 3 \
            -memprofile "$tmp/mem_$1.prof" >"$tmp/out_$1.txt" 2>&1) || {
        cat "$tmp/out_$1.txt"
        exit 1
    }
}

metric() { awk -v m="$1" '$1 == m { print $2 }' "$2"; }

# scaled TOTAL SITECOL: reads `pprof -top` rows (flat flat% sum% cum cum% name)
# and prints "pkg VALUE NAME" and "site VALUE NAME" lines — the flat values
# summed by package, and column SITECOL (1 flat, 4 cumulative) per site —
# scaled so that the flat values sum to TOTAL.
scaled() {
    awk -v exact="$1" -v sitecol="$2" '
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
        if (total == 0) exit
        scale = exact / total
        for (p in bypkg) printf "pkg %.6f %s\n", bypkg[p] * scale, p
        for (f in site) printf "site %.6f %s\n", site[f] * scale, f
    }'
}

# show UNIT SITELABEL: prints scaled's output as a by-package table (every
# package) and the 25 largest sites, largest first.
show() {
    awk -v unit="$1" -v sitelabel="$2" '
    { v = $2; name = $3; for (i = 4; i <= NF; i++) name = name " " $i }
    $1 == "pkg" { pk[++np] = sprintf("%016.4f %s", v, name) }
    $1 == "site" { st[++ns] = sprintf("%016.4f %s", v, name) }
    END {
        if (np == 0) { print "\n-- no samples"; exit }
        print "\n-- by package (" unit ")"
        sortprint(pk, np, 1000)
        print "\n-- top 25 sites (" unit sitelabel ")"
        sortprint(st, ns, 25)
    }
    function sortprint(a, n, limit,    i, j, t, x) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] < t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        for (i = 1; i <= n && i <= limit; i++) {
            x = substr(a[i], 1, 16) + 0
            if (x < 0.005) break
            printf "%10.2f  %s\n", x, substr(a[i], 18)
        }
    }'
}

# compare UNIT BASEFILE CHANGEFILE: joins two scaled outputs into base, change
# and difference per package (every package) and for the 25 sites whose value
# moved most, largest move first.
compare() {
    awk -v unit="$1" '
    { v = $2; name = $3; for (i = 4; i <= NF; i++) name = name " " $i; k = $1 SUBSEP name }
    FNR == NR { b[k] = v; keys[k] = 1; next }
    { c[k] = v; keys[k] = 1 }
    END {
        for (k in keys) {
            split(k, parts, SUBSEP)
            d = c[k] - b[k]; ad = d < 0 ? -d : d
            if (b[k] < 0.005 && c[k] < 0.005) continue
            row = sprintf("%016.4f %10.2f %10.2f %+10.2f  %s", ad, b[k], c[k], d, parts[2])
            if (parts[1] == "pkg") pk[++np] = row; else st[++ns] = row
        }
        printf "\n-- by package (%s): %10s %10s %10s\n", unit, "base", "change", "diff"
        sortprint(pk, np, 1000)
        printf "\n-- the 25 sites that moved most (%s): %10s %10s %10s\n", unit, "base", "change", "diff"
        sortprint(st, ns, 25)
    }
    function sortprint(a, n, limit,    i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] < t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        for (i = 1; i <= n && i <= limit; i++) print substr(a[i], 18)
    }' "$2" "$3"
}

# memtable SIDE SAMPLE_INDEX TOTAL: one sample type of SIDE's memory profile,
# scaled to TOTAL.
memtable() {
    go tool pprof -sample_index="$2" -unit=b -top -nodecount=100000 "$tmp/bench_$1" "$tmp/mem_$1.prof" 2>/dev/null |
        scaled "$3" 1
}

memrun change "$root"
if [ -n "$base" ]; then
    mkdir "$tmp/base"
    git -C "$root" archive "$base" | tar -x -C "$tmp/base"
    memrun base "$tmp/base"
    for spec in "allocs_per_task alloc_objects allocs/task 1" "alloc_bytes_per_task alloc_space B/task 1" \
        "live_heap_mb inuse_space KiB 1024"; do
        set -- $spec
        vb=$(metric "$1" "$tmp/out_base.txt")
        vc=$(metric "$1" "$tmp/out_change.txt")
        echo
        echo "== $w (seed $seed): $1 $vb ($base) -> $vc (working tree)"
        memtable base "$2" "$(awk -v v="$vb" -v f="$4" 'BEGIN { print v * f }')" >"$tmp/$2.base"
        memtable change "$2" "$(awk -v v="$vc" -v f="$4" 'BEGIN { print v * f }')" >"$tmp/$2.change"
        compare "$3" "$tmp/$2.base" "$tmp/$2.change"
    done
    echo
    echo "profiles: $tmp"
    exit 0
fi

out=$tmp/out_change.txt
per_task=$(metric allocs_per_task "$out")
echo "== $w (seed $seed): allocs_per_task $per_task"
memtable change alloc_objects "$per_task" | show allocs/task ""

bytes=$(metric alloc_bytes_per_task "$out")
echo
echo "== $w (seed $seed): alloc_bytes_per_task $bytes"
memtable change alloc_space "$bytes" | show B/task ""

live=$(metric live_heap_mb "$out")
echo
echo "== $w (seed $seed): live_heap_mb $live (in use after the last rep)"
memtable change inuse_space "$(awk -v mb="$live" 'BEGIN { print mb * 1024 }')" | show KiB ""

"$tmp/bench_change" -workload "$w" -seed "$seed" -reps 3 -cpuprofile "$tmp/cpu.prof" >"$tmp/cpu.txt" 2>&1 || {
    cat "$tmp/cpu.txt"
    exit 1
}
wall=$(metric wall_ns_per_task "$tmp/cpu.txt")
echo
echo "== $w (seed $seed): wall_ns_per_task $wall (host CPU of the whole run, scaled)"
go tool pprof -unit=us -top -nodecount=100000 -nodefraction=0 "$tmp/bench_change" "$tmp/cpu.prof" 2>/dev/null |
    scaled "$wall" 4 | show ns/task ", cumulative"

echo
echo "-- host CPU share (cumulative)"
go tool pprof -top -nodecount=100000 -nodefraction=0 "$tmp/bench_change" "$tmp/cpu.prof" 2>/dev/null |
    awk '$6 == "runtime.mallocgc" || $6 == "runtime.gcBgMarkWorker" { printf "%8s  %s\n", $5, $6 }'

echo
echo "profiles: $tmp"
