#!/usr/bin/env bash
# Drive the installed CLI end to end from emitted fixtures.
# Exercises the documented exit codes: 0 true verdict, 1 false, 2 bad input.
set -u

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

expect() {
    local want=$1; shift
    echo "\$ lincat $*"
    lincat "$@"
    local got=$?
    echo
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: expected exit $want, got $got" >&2
        exit 1
    fi
}

for fx in kronecker kronecker-double F0 F1 F2 gdlp-base gdlp-C1 \
          cyclic-cover-2 cyclic-cover-4 smash-demo corrupted empty; do
    lincat fixtures "$fx" --dir . >/dev/null
done

expect 0 cover check --functor F0.json
expect 1 cover check --functor corrupted.json
expect 0 galois check --functor F0.json
expect 1 galois check --functor F2.json
expect 2 galois check --functor corrupted.json
expect 2 galois homs --functor F0.json --to corrupted.json
expect 0 galois quotient --action swap-action.json --out quotient.json
expect 0 h1 --cat quotient.json
expect 0 cover extend --functor cyclic-cover-4.json --to cyclic-cover-2.json
expect 0 cover extend --functor cyclic-cover-4.json --to cyclic-cover-4.json --object t1 --image t2
expect 1 cover extend --functor F0.json --to F1.json
expect 0 cover lambda --functor cyclic-cover-4.json --to cyclic-cover-2.json
expect 0 cover lambda --functor cyclic-cover-4.json --to cyclic-cover-2.json --image s1
expect 2 cover lambda --functor cyclic-cover-4.json --to cyclic-cover-2.json --image zz
expect 0 galois universal --functor cyclic-cover-4.json --family cyclic-cover-2.json
expect 0 galois gset --functor F0.json --to F0.json
expect 0 galois gset --functor cyclic-cover-4.json --to cyclic-cover-2.json
expect 0 galois structure --functor F0.json
expect 2 galois structure --functor F2.json
expect 0 grade induce --functor F0.json --out grading.json
expect 0 grade connected --grading grading.json
expect 0 grade smash --grading smash-grading.json --out projection.json
expect 0 galois check --functor projection.json
expect 0 delta --grading smash-grading.json --character smash-character.json
expect 0 delta-inj --grading smash-grading.json
expect 0 pi1 --presentation gdlp-R.txt --base x
expect 0 pi1 --presentation gdlp-Rprime.txt --base x
expect 0 validate --cat empty-category.json
expect 2 h1 --cat no-such-file.json

echo "all exit codes as documented"
