#!/bin/sh
# Code census: a machine-readable summary of the repository's size and
# surface, one "key value" pair per line, so two censuses compare with diff.
#
#   go_lines_nontest N   lines of non-test Go outside benchmark/
#   go_lines_test N      lines of *_test.go outside benchmark/
#   clis N               cmd/ directories holding a main package
#   flags N              flag definitions (flag.Int, flag.StringVar, ...) in cmd/
#   exported N           exported top-level identifiers (funcs, methods, types,
#                        consts, vars) in non-test Go outside benchmark/
#   options N            exported field declarations of the struct types named
#                        Config, Options, Opts or Params (or ending in one of
#                        those) plus expd.Spec, in non-test Go outside
#                        benchmark/; a line "A, B T" is one declaration
#   doc_bytes FILE N     size in bytes of each Markdown file at the root
#   test PKG:NAME        every Test*/Fuzz* function, sorted
#
# Usage: scripts/census.sh [DIR]   (DIR defaults to the current directory;
# also available as `make census`).
set -eu
cd "${1:-.}"

gofiles() {
    find . -path ./benchmark -prune -o -path ./.git -prune -o -name '*.go' -print | sort
}
lines() { xargs cat | wc -l | tr -d ' '; }

echo "go_lines_nontest $(gofiles | grep -v '_test\.go$' | lines)"
echo "go_lines_test $(gofiles | grep '_test\.go$' | lines)"

clis=0
for d in cmd/*/; do
    if grep -qs '^package main$' "$d"*.go; then
        clis=$((clis + 1))
    fi
done
echo "clis $clis"

echo "flags $(find cmd -name '*.go' ! -name '*_test.go' -exec cat {} + |
    grep -oE '\bflag\.(Bool|Duration|Float64|Func|BoolFunc|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(' |
    wc -l | tr -d ' ')"

# Top-level exported names: single-line declarations, receivers included,
# plus the members of const/var/type blocks.
echo "exported $(gofiles | grep -v '_test\.go$' | xargs awk '
    FNR == 1 { block = 0 }
    /^(const|var|type) \($/ { block = 1; next }
    block && /^\)/ { block = 0; next }
    block && /^\t[A-Z]/ { n++; next }
    /^func (\([^)]*\) )?[A-Z]/ || /^(const|var|type) [A-Z]/ { n++ }
    END { print n + 0 }')"

# Exported fields of the option structs: one per field line at struct depth.
echo "options $(gofiles | grep -v '_test\.go$' | xargs awk '
    FNR == 1 { in_s = 0 }
    /^type [A-Za-z0-9_]*(Config|Options|Opts|Params) struct \{$/ { in_s = 1; next }
    FILENAME ~ /\/internal\/expd\/spec\.go$/ && /^type Spec struct \{$/ { in_s = 1; next }
    in_s && /^}/ { in_s = 0; next }
    in_s && /^\t[A-Z]/ { n++ }
    END { print n + 0 }')"

for f in *.md; do
    echo "doc_bytes $f $(wc -c < "$f" | tr -d ' ')"
done

gofiles | grep '_test\.go$' | xargs awk '
    /^func (Test|Fuzz)[A-Za-z0-9_]*\(/ {
        name = $2; sub(/\(.*/, "", name)
        dir = FILENAME; sub(/^\.\//, "", dir)
        if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
        print "test " dir ":" name
    }' | sort
