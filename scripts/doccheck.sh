#!/usr/bin/env bash
# doccheck: print every reference in README.md and the verify skill that
# does not resolve against the tree, one line each; print nothing when
# all of them do. CI fails on any line.
#
#   scripts/doccheck.sh
#
# A grep, like loc.sh and exports.sh. It checks four kinds of reference:
#   - a Test*, Fuzz* or Example* name in code (a `span` or a fenced
#     block) with no `func Name(` in a _test.go file;
#   - a repo path (internal/, cmd/, scripts/, bench/, .github/) that does
#     not exist; {a,b} lists and * globs expand first;
#   - a `pkg.Name` in code, where pkg is a directory under internal/,
#     that is not declared in that package: a top-level identifier, a
#     method, a struct field or an interface method; or a `pkg.Type.Name`
#     whose Type declares no such method, field or interface method. A
#     name that BENCHMARK.json lists as a per-layer metric
#     (`fleet.allocs_per_call`) resolves too. A `Type.Name` with no
#     package must be a member of some package's Type;
#   - a -flag on a `go run ./cmd/X` line of a fenced sh block that cmd/X's
#     non-test code does not define.
set -euo pipefail

cd "$(dirname "$0")/.."

docs=(README.md .claude/skills/verify/SKILL.md)

# code FILE: the code in a markdown file, one chunk per line: each
# fenced-block line, then each `span` of the prose (spans may wrap).
code() {
  awk '
    /^[ \t]*```/ { fence = !fence; next }
    fence { print; next }
    { prose = prose " " $0 }
    END {
      while (match(prose, /`[^`]+`/)) {
        print substr(prose, RSTART + 1, RLENGTH - 2)
        prose = substr(prose, RSTART + RLENGTH)
      }
    }' "$1"
}

# expand WORD: WORD with one {a,b,...} list expanded, one per line.
expand() {
  local w=$1
  if [[ $w =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
    local pre=${BASH_REMATCH[1]} alts=${BASH_REMATCH[2]} post=${BASH_REMATCH[3]} a
    IFS=, read -ra parts <<<"$alts"
    for a in "${parts[@]}"; do expand "$pre$a$post"; done
  else
    echo "$w"
  fi
}

# decls DIR: every name declared in DIR's non-test Go files, and each
# method, field and interface method once more as Type.Name.
decls() {
  git ls-files -co --exclude-standard -- "$1/*.go" | grep -v '_test\.go$' | grep -v "^$1/.*/" | xargs -r awk '
    /^(var|const|type) \($/ { blk = 1; next }
    blk && /^\)/ { blk = 0; next }
    blk && match($0, /^\t[A-Za-z_][A-Za-z0-9_]*/) { print substr($0, 2, RLENGTH - 1) }
    /^type [A-Za-z_][A-Za-z0-9_]* (struct|interface) \{$/ { print $2; body = $2; next }
    body != "" && /^\}/ { body = ""; next }
    body != "" && match($0, /^\t[A-Za-z_][A-Za-z0-9_]*/) { s = substr($0, 2, RLENGTH - 1); print s; print body "." s }
    /^func / {
      s = $0; sub(/^func (\([^)]*\) )?/, "", s); sub(/[^A-Za-z0-9_].*/, "", s); print s
      if (match($0, /^func \([^)]*\)/)) {
        r = substr($0, 7, RLENGTH - 7); sub(/.* \**/, "", r); sub(/^\*/, "", r); sub(/\[.*/, "", r); print r "." s
      }
    }
    /^(type|var|const) [A-Za-z_]/ { s = $2; sub(/[^A-Za-z0-9_].*/, "", s); print s }
  ' | sort -u
}

tests=" $(git ls-files -co --exclude-standard -- '*_test.go' | xargs grep -ohE '^func (Test|Fuzz|Example)[A-Za-z0-9_]*\(' |
  sed 's/^func //; s/($//' | tr '\n' ' ') "
metrics=" $(grep -oE '"name": "[a-z]+\.[a-z0-9_]+"' BENCHMARK.json | sed 's/"name": "//; s/"$//' | tr '\n' ' ') "
declare -A pkgdecls=()
members=

for doc in "${docs[@]}"; do
  [[ -f $doc ]] || { echo "$doc: missing"; continue; }
  chunks=$(code "$doc")

  for name in $(grep -oE '\b(Test|Fuzz|Example)[A-Z_][A-Za-z0-9_]*' <<<"$chunks" | sort -u); do
    [[ $tests == *" $name "* ]] || echo "$doc: test $name: no func $name( in a _test.go file"
  done

  for tok in $(grep -oE '(^|[^A-Za-z0-9_.-])(\./)?(internal|cmd|scripts|bench|\.github)/[A-Za-z0-9_./*{},-]*' "$doc" |
    sed -E 's/^[^A-Za-z0-9_.]*//; s/^\.\///; s/[.,]+$//; s/\/\.\.\.$//' | sort -u); do
    while read -r p; do
      compgen -G "$p" >/dev/null || echo "$doc: path $p does not exist"
    done < <(expand "$tok")
  done

  while read -r pkg name sub; do
    [[ -d internal/$pkg ]] || continue
    [[ $metrics == *" $pkg.$name "* ]] && continue
    [[ -n ${pkgdecls[$pkg]:-} ]] || pkgdecls[$pkg]=" $(decls "internal/$pkg" | tr '\n' ' ') "
    want=$name${sub:+.$sub}
    [[ ${pkgdecls[$pkg]} == *" $want "* ]] || echo "$doc: name $pkg.$want: $want is not declared in internal/$pkg"
  done < <(grep -oE '(^|[^A-Za-z0-9_./-])[a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?' <<<"$chunks" |
    sed -E 's/^[^a-z]//' | grep -vE '\.(go|md|json|txt|sh|yml|ndjson)$' | tr '.' ' ' | sort -u)

  for name in $(grep -oE '(^|[^A-Za-z0-9_./-])[A-Z][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*' <<<"$chunks" |
    sed -E 's/^[^A-Z]//' | grep -vE '\.(go|md|json|txt|sh|yml|ndjson)$' | sort -u); do
    [[ -n $members ]] || members=" $(for d in internal/*/; do decls "${d%/}"; done | grep '\.' | tr '\n' ' ') "
    [[ $members == *" $name "* ]] || echo "$doc: name $name: no package under internal/ declares it"
  done

  awk '
    /^[ \t]*```(sh|bash)/ { sh = 1; next }
    /^[ \t]*```/ { sh = 0; next }
    sh { line = line $0; if (line ~ /\\$/) { sub(/\\$/, " ", line); next } print line; line = "" }
  ' "$doc" | grep -oE 'go run \./cmd/[a-z]+[^|>&;#]*' | while read -r _ _ cmd args; do
    dir=${cmd#./}
    for flag in $(grep -oE '(^| )-[a-z][a-z0-9-]*' <<<" $args" | sed 's/^ *-//' | sort -u); do
      git ls-files -co --exclude-standard -- "$dir/*.go" | grep -v '_test\.go$' | xargs -r grep -qE "\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, )?\"$flag\"" ||
        echo "$doc: flag -$flag is not defined by $dir"
    done
  done
done
