#!/bin/sh
# Alternating before/after pairs of one benchmark workload: the measurement
# behind a perf claim ("better in at least 9 of 10 pairs").
#
#   scripts/pairs.sh WORKLOAD BASE [SEED] [N]     (make pairs W=... BASE=... [SEED=3] [N=10])
#
# Builds the repository benchmark twice, at commit BASE (exported with
# `git archive` into a temporary directory, so .git is left alone) and from
# the working tree, then runs N pairs of `-workload WORKLOAD -seed SEED`,
# alternating which side runs first. It prints every end-to-end metric of
# BENCHMARK.json, and ops_failed, per pair; then each side's median and
# quartiles, and in how many pairs the change is better (strictly, in the
# metric's direction) or ties, which is what bit-identical metrics such as
# virtual_*_s must do in every pair. A claim holds when the change wins at
# least nine tenths of the pairs and the medians differ by more than the
# distance between BASE's quartiles. The temporary directory is removed on
# exit.
set -eu

usage="usage: scripts/pairs.sh WORKLOAD BASE [SEED] [N]"
w=${1:?$usage}
base=${2:?$usage}
seed=${3:-3}
n=${4:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base/benchmark" && go build -o "$tmp/bench_base" .)
(cd "$root/benchmark" && go build -o "$tmp/bench_change" .)

# run SIDE PAIR appends one "side pair metric value" line per reading.
run() {
    out="$tmp/$1.$2.txt"
    if ! "$tmp/bench_$1" -workload "$w" -seed "$seed" >"$out" 2>&1; then
        cat "$out"
        exit 1
    fi
    awk -v side="$1" -v pair="$2" '
        $1 == "==" { for (f = 2; f <= NF; f++) if ($f ~ /^ops_failed=/) { sub(/^ops_failed=/, "", $f); print side, pair, "ops_failed", $f } }
        NF == 3 && $2 ~ /^[0-9.eE+-]+$/ { print side, pair, $1, $2 }' "$out" >>"$tmp/readings"
}

i=1
while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run change "$i"
    else
        run change "$i"
        run base "$i"
    fi
    echo "pair $i/$n done" >&2
    i=$((i + 1))
done

echo "== $w (seed $seed): $base vs the working tree, $n alternating pairs"
awk '
    FNR == NR {
        # BENCHMARK.json: the end_to_end array lists {"name": ..., "better": ...}.
        if ($0 ~ /"end_to_end"/) inE2E = 1
        else if ($0 ~ /^  "/) inE2E = 0
        if (inE2E && match($0, /"name": "[^"]*"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            better[name] = ($0 ~ /"better": "higher"/) ? "higher" : "lower"
            order[++nm] = name
        }
        next
    }
    { v[$1, $2, $3] = $4; if ($2 > np) np = $2 }
    END {
        better["ops_failed"] = "lower"; order[++nm] = "ops_failed"
        printf "%-22s %4s %14s %14s\n", "metric", "pair", "base", "change"
        for (m = 1; m <= nm; m++) {
            k = order[m]
            for (p = 1; p <= np; p++)
                printf "%-22s %4d %14s %14s\n", k, p, v["base", p, k], v["change", p, k]
        }
        print ""
        printf "%-22s %12s %12s %12s %12s %12s %12s %6s %5s\n", "metric", "base q1", "base median", "base q3",
            "change q1", "change med.", "change q3", "wins", "ties"
        for (m = 1; m <= nm; m++) {
            k = order[m]; wins = 0; ties = 0
            for (p = 1; p <= np; p++) {
                b[p] = v["base", p, k] + 0; c[p] = v["change", p, k] + 0
                if (c[p] == b[p]) ties++
                else if (better[k] == "lower" ? c[p] < b[p] : c[p] > b[p]) wins++
            }
            printf "%-22s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-2d %5d\n", k,
                q(b, np, 0.25), q(b, np, 0.5), q(b, np, 0.75), q(c, np, 0.25), q(c, np, 0.5), q(c, np, 0.75), wins, np, ties
        }
    }
    # q returns the f-quantile of a[1..n], interpolating between order statistics.
    function q(a, n, f,    s, i, j, t, x, lo) {
        for (i = 1; i <= n; i++) s[i] = a[i]
        for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
        x = 1 + f * (n - 1); lo = int(x)
        return lo >= n ? s[n] : s[lo] + (x - lo) * (s[lo + 1] - s[lo])
    }' "$root/BENCHMARK.json" "$tmp/readings"
