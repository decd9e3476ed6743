#!/usr/bin/env bash
# loc: the size measures the ROADMAP's north star names, from one
# command, so every simplicity PR quotes the same numbers.
#
# Prints non-test and test Go line counts for the root module and for
# bench/ (its own module), and the number of exported top-level
# identifiers and methods declared under internal/ (a grep over
# declaration lines; a grouped var/const block counts once). Counts the
# files git tracks in the checkout this script sits in, as they are in
# the working tree. scripts/exports.sh lists which packages name each of
# those exports. The last line is doc size in bytes: README.md, the
# verify skill, and the `// Package` and `// Command` comment blocks of
# the root module's Go files, then their sum.
set -euo pipefail

cd "$(dirname "$0")/.."

lines() { # stdin: file names -> total lines
  xargs -r cat | wc -l
}
gofiles() { git ls-files -- '*.go'; }

echo "root module: non-test Go lines   $(gofiles | grep -v '^bench/' | grep -v '_test\.go$' | lines)"
echo "root module: test Go lines       $(gofiles | grep -v '^bench/' | grep '_test\.go$' | lines)"
echo "bench module: non-test Go lines  $(gofiles | grep '^bench/' | grep -v '_test\.go$' | lines)"
echo "bench module: test Go lines      $(gofiles | grep '^bench/' | grep '_test\.go$' | lines)"
echo "internal/: exported identifiers  $(gofiles | grep '^internal/' | grep -v '_test\.go$' | xargs -r \
  grep -hE '^func [A-Z]|^func \([^)]*\) [A-Z]|^type [A-Z]|^var [A-Z]|^const [A-Z]' | wc -l)"
readme=$(wc -c < README.md)
skill=$(wc -c < .claude/skills/verify/SKILL.md)
pkgdocs=$(gofiles | grep -v '^bench/' | grep -v '_test\.go$' | xargs -r awk '
  FNR == 1 { inb = 0 }
  /^\/\/ (Package|Command) / { inb = 1 }
  inb && /^\/\// { n += length($0) + 1; next }
  { inb = 0 }
  END { print n + 0 }')
echo "docs: README + skill + package docs  $readme + $skill + $pkgdocs = $((readme + skill + pkgdocs)) bytes"
