#!/usr/bin/env bash
# exports: for every exported identifier declared in non-test code under
# internal/, print the other packages that name it, so a simplicity PR
# can see which names only their own package uses.
#
#   scripts/exports.sh        # one line per identifier, then a summary
#   scripts/exports.sh -u     # only the unexplained ones; the summary
#                             # goes to stderr, so stdout is empty when
#                             # every export is explained
#
# A grep, like loc.sh. A top-level function, type, var or const counts
# as named by another package when `pkg.Name` appears in a Go file
# outside its directory; a method (`pkg.(T).Name`) when `.Name(` does.
# The search covers cmd/, bench/ and every other package, tests
# included. Each line reads
#
#   pkg.Name  kind  users
#
# where users is the directories that name it, or, when none does, one
# of: own (non-test code of its own package uses it: unexport it),
# test (only its own tests do: delete it or move it into the test),
# dead (nothing does), iface (a method some interface in the tree or
# the standard library declares), held (listed in keep, with how another
# package comes to hold a value of it).
set -euo pipefail

cd "$(dirname "$0")/.."

only_unexplained=
[[ "${1:-}" == "-u" ]] && only_unexplained=1

# Types that stay exported although no other package spells them,
# because another package holds values of them.
declare -A keep=(
  [blocking.BlockStyle]="UABlocker.Style"
  [core.Table]="Section.Table"
  [core.Section]="Result.Sections"
  [core.Experiment]="core.Experiments returns them"
  [core.Sink]="Options.Sink; NewSink and NewJSONSink return it"
  [corpus.EventKind]="Event.Kind"
  [corpus.Event]="Site.Events"
  [corpus.Snapshot]="elements of corpus.Snapshots"
  [corpus.Table4Row]="elements of corpus.Table4"
  [corpus.Deal]="elements of corpus.Deals"
  [crawler.Visit]="Crawler.Crawl and FetchOne return it"
  [fleet.ReplicaStatus]="GatewayStats.Replicas"
  [fleet.GatewayStats]="Gateway.Stats returns it"
  [fleet.TenantQuota]="Accounting.Tenants"
  [fleet.Accounting]="Limiter.Accounting returns it"
  [hosting.ControlLevel]="Table2Row.Control"
  [hosting.ArtistSite]="Population.Sites"
  [hosting.Population]="hosting.GeneratePopulation returns it"
  [hosting.Table2Row]="hosting.Table2 returns them"
  [hosting.ControlSummary]="hosting.Summarize returns it"
  [longitudinal.Table3Row]="Result.Table3"
  [longitudinal.AllowRow]="Result.Table4"
  [manager.PolicyClass]="the type of manager.BlockAllAI"
  [manager.Coverage]="manager.MaintenanceGap returns them"
  [measure.Table1Row]="measure.Table1Rows returns them"
  [metatags.Directives]="metatags.Scan returns it"
  [metatags.ScanResult]="metatags.RunTop10kScan returns it"
  [obs.Delta]="obs.SnapshotDelta returns them"
  [obs.HistSnapshot]="Histogram.Snapshot returns it"
  [obs.Gauge]="obs.NewGauge returns it"
  [obs.Registry]="the type of obs.Default"
  [policyd.Action]="Decision.Action"
  [policyd.Signal]="Decision.Signal"
  [policyd.Stats]="Service.Stats returns it"
  [policyd.DecisionJSON]="BatchResponse.Decisions; Decision.JSON returns it"
  [policyd.JSONStages]="policyd.NewJSONStages returns it"
  [blocking.GreyBoxResult]="blocking.RunGreyBox returns it"
  [ranking.Model]="ranking.NewModel returns it"
  [robots.Cache]="robots.NewCache returns it"
  [robots.CacheStats]="robots.SharedCacheStats returns it"
  [robots.Level]="Robots.Restriction returns it"
  [robots.ChangeKind]="Change.Kind"
  [robots.Change]="robots.Diff returns them"
  [robots.WarningCode]="Warning.Code"
  [robots.Warning]="Robots.Warnings and LintReport.Warnings"
  [robots.LintReport]="robots.Lint returns it"
  [robots.Rule]="Group.Rules"
  [robots.Group]="Robots.Groups"
  [robots.Extension]="Robots.Extensions"
  [robots.Builder]="robots.NewBuilder returns it"
  [robots.GroupBuilder]="Builder.Group returns it"
  [runstore.Delta]="Section.Deltas"
  [runstore.Meta]="runstore.NewMeta returns it"
  [runstore.ExperimentRecord]="Run.Experiments"
  [runstore.Summary]="Run.Summary"
  [runstore.TenantQuota]="QuotaAccounting.Tenants"
  [stats.Counter]="stats.NewCounter returns it"
  [survey.Likert]="Respondent.Familiarity and the likelihood fields"
  [survey.Impact]="Respondent.JobImpact"
  [survey.Term]="elements of survey.Terms"
  [survey.Respondent]="Population.Respondents"
  [survey.Headline]="Population.ComputeHeadline returns it"
)

# Method names some interface declares: the standard library's that
# types here implement, plus those inside the tree's `interface {` blocks.
interface_methods() {
  git ls-files -- '*.go' | grep -v '_test\.go$' | xargs awk '
    /interface \{$/ { in_if = 1; next }
    in_if && /^[ \t]*\}/ { in_if = 0; next }
    in_if && match($0, /^[ \t]+[A-Z][A-Za-z0-9_]*\(/) {
      s = substr($0, RSTART, RLENGTH - 1); sub(/^[ \t]+/, "", s); printf " %s", s
    }'
}
ifaces=" String Error ServeHTTP Read Write Close RoundTrip MarshalJSON UnmarshalJSON Len Less Swap Unwrap Accept Addr LocalAddr RemoteAddr SetDeadline SetReadDeadline SetWriteDeadline Network Int63 Seed Uint64$(interface_methods) "

# dir pkg kind recv name, one per exported declaration.
decls() {
  git ls-files -- 'internal/*.go' | grep -v '_test\.go$' | xargs awk '
    FNR == 1 { blk = ""; dir = FILENAME; sub(/\/[^\/]*$/, "", dir) }
    /^package / { pkg = $2 }
    /^(var|const|type) \($/ { blk = $1; next }
    blk != "" && /^\)/ { blk = ""; next }
    blk != "" {
      if (match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*/)) {
        n = split(substr($0, 2, RLENGTH - 1), names, /, /)
        for (i = 1; i <= n; i++) if (names[i] ~ /^[A-Z]/) print dir, pkg, blk, "-", names[i]
      }
      next
    }
    /^func [A-Z]/ { s = $2; sub(/[\[(].*/, "", s); print dir, pkg, "func", "-", s; next }
    /^func \([^)]*\) [A-Z]/ {
      r = $0; sub(/^func \(/, "", r); sub(/\).*/, "", r)
      r = r ~ / / ? substr(r, index(r, " ") + 1) : r; sub(/^\*/, "", r); sub(/\[.*/, "", r)
      s = $0; sub(/^func \([^)]*\) /, "", s); sub(/[\[(].*/, "", s)
      print dir, pkg, "method", r, s; next
    }
    /^(type|var|const) [A-Z]/ { s = $2; sub(/[^A-Za-z0-9_].*/, "", s); print dir, pkg, $1, "-", s }
  '
}

# Lines of a package's files matching pattern $2, leaving out comments
# and the lines matching $3 (the name's own declaration); $4 selects
# test (t) or non-test (n) files.
own_uses() {
  local dir=$1 pat=$2 decl=$3 files
  if [[ $4 == t ]]; then files=("$dir/*_test.go"); else files=("$dir/*.go" ":!$dir/*_test.go"); fi
  { git grep -hE "$pat" -- "${files[@]}" || true; } | { grep -vE "^\s*//|$decl" || true; } | wc -l
}

declare -A count=()
while read -r dir pkg kind recv name; do
  if [[ $kind == method ]]; then
    id="$pkg.($recv).$name"; ref="\\.$name\\("; self=$ref
    decl="^func \\([^)]*\\) $name\\("
  else
    id="$pkg.$name"; ref="\\b$pkg\\.$name\\b"; self="\\b$name\\b"
    decl="^func $name\\b|^(type|var|const) $name\\b|^	$name(\\s|,|$)"
  fi
  users=$(git grep -lE "$ref" -- '*.go' ":!$dir/" | sed 's|/[^/]*$||' | sort -u | tr '\n' ' ' || true)
  if [[ -n $users ]]; then
    class=other
  elif [[ -n ${keep[$id]:-} ]]; then
    class=held; users="held: ${keep[$id]}"
  elif [[ $kind == method && $ifaces == *" $name "* ]]; then
    class=iface; users=iface
  elif (( $(own_uses "$dir" "$self" "$decl" n) > 0 )); then
    class=own; users=own
  elif (( $(own_uses "$dir" "$self" "$decl" t) > 0 )); then
    class=test; users=test
  else
    class=dead; users=dead
  fi
  count[$class]=$(( ${count[$class]:-0} + 1 ))
  if [[ -z $only_unexplained || $class == own || $class == test || $class == dead ]]; then
    printf '%-44s %-6s %s\n' "$id" "$kind" "$users"
  fi
done < <(decls)
summary="exports: named elsewhere ${count[other]:-0}, held ${count[held]:-0}, iface ${count[iface]:-0}, own ${count[own]:-0}, test ${count[test]:-0}, dead ${count[dead]:-0}"
if [[ -n $only_unexplained ]]; then echo "$summary" >&2; else echo "$summary"; fi
