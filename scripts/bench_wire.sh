#!/bin/sh
# Runs the wire ablation grid (BenchmarkAblationBlockSize: the rows-per-block
# sweep from one row per frame up to 4096, plus the default block budget
# with the per-column encodings turned off) and dumps the results as JSON.
#
#   scripts/bench_wire.sh [output.json]
#
# Each variant runs 5 iterations (-benchtime 5x) five times (-count=5)
# and the JSON records the per-metric MEDIAN of the five samples — the
# steady-state protocol of bench_hotpath.sh. The numbers this file tracks
# across PRs: wire-B/op vs raw-B/op (the columnar compression ratio),
# frames/op (coalescing), and allocs/op on the transfer path.
set -eu

out="${1:-BENCH_wire.json}"
cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench 'BenchmarkAblationBlockSize' -benchmem -benchtime 5x -count 5 .)

echo "$raw" | awk -v out="$out" '
/^BenchmarkAblationBlockSize\// {
    name = $1
    sub(/^BenchmarkAblationBlockSize\//, "", name)
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; names[nn++] = name }
    cnt[name]++
    c = cnt[name]
    v[name, "iterations", c] = $2
    for (i = 3; i < NF; i += 2) v[name, $(i + 1), c] = $i
}
function median(name, key,    c, i, j, t, a) {
    c = cnt[name]
    for (i = 1; i <= c; i++) a[i] = v[name, key, i] + 0
    for (i = 2; i <= c; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return a[int((c + 1) / 2)]
}
function fmtnum(x) {
    if (x == int(x)) return sprintf("%d", x)
    return sprintf("%.4f", x)
}
END {
    if (nn == 0) { print "no wire ablation results parsed" > "/dev/stderr"; exit 1 }
    order = "iterations ns/op B/op allocs/op frames/op raw-B/op wire-B/op sim-ms/op"
    nk = split(order, keys, " ")
    print "[" > out
    for (i = 0; i < nn; i++) {
        name = names[i]
        line = sprintf("  {\"benchmark\": \"%s\", \"samples\": %d", name, cnt[name])
        for (k = 1; k <= nk; k++)
            if ((name SUBSEP keys[k] SUBSEP 1) in v)
                line = line sprintf(", \"%s\": %s", keys[k], fmtnum(median(name, keys[k])))
        print line "}" (i < nn - 1 ? "," : "") >> out
    }
    print "]" >> out
}
'
echo "wrote $out:"
cat "$out"
