#!/bin/sh
# Compare the user-visible outputs of a git revision and of the working tree.
#
#     tools/diff_snapshots.sh [REV] [SEED ...]
#
# Unpacks REV (default HEAD) with `git archive` into a temporary directory,
# then for each seed (default 1 and 2) writes a snapshot of that tree and of
# the working tree with tools/snapshot_outputs.py and compares the two with
# `diff -r`.  Both snapshots use this tree's snapshot script and bench/.
# Then prints the line count of src/ddestab/*.py in REV and in the working
# tree.  Exits non-zero when any snapshot differs; writes nothing inside
# the repo.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
rev=${1:-HEAD}
[ $# -gt 0 ] && shift
[ $# -gt 0 ] || set -- 1 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/tree"

status=0
for seed in "$@"; do
    for side in rev work; do
        tree=$repo
        [ "$side" = rev ] && tree=$tmp/tree
        python3 "$repo/tools/snapshot_outputs.py" --tree "$tree" \
            --out "$tmp/$side-$seed" --seed "$seed" >/dev/null
    done
    echo "seed $seed: $rev against the working tree"
    diff -r "$tmp/rev-$seed" "$tmp/work-$seed" || status=1
done
src_lines() { echo $(($(cat "$1"/src/ddestab/*.py | wc -l))); }
echo "src lines: $rev $(src_lines "$tmp/tree"), working tree $(src_lines "$repo")"
exit $status
