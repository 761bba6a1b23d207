#!/bin/sh
# Shell census (ROADMAP item 5, "measure first"): for every exported symbol of
# the root package, every CLI flag, every exported field of the option structs
# under internal/diag and internal/metrics and every dxbar_* metric series,
# print where it is reached — cmd/, examples/, scripts/ (with the Makefile and
# CI), benchmark/, the user-facing *.md — or "tests only", or "nowhere"; then
# the exported names of internal/ packages that no non-test Go line reaches
# outside their declaration; then the non-test Go line count per package. A
# name reached only from its own package and tests is a candidate to check, not
# a verdict: read the code before deleting. Informational: always exits 0. Run
# from the repository root (`make census`); needs git, grep and awk.
set -u

DOCS="README.md EXPERIMENTS.md DESIGN.md METRICS.md benchmark/README.md"
SCRIPTS="scripts Makefile .github"

# reach CODE_RE [TEXT_RE]: the places outside the defining package with a file
# matching — CODE_RE in Go code, TEXT_RE (default CODE_RE) in scripts, docs and
# tests (the root package's tests use its names unqualified).
reach() {
	out=""
	text=${2:-$1}
	for place in cmd examples benchmark; do
		if git grep -qE "$1" -- "$place/*.go" ":!*_test.go" 2>/dev/null; then out="$out $place/"; fi
	done
	# shellcheck disable=SC2086
	if git grep -qE "$text" -- $SCRIPTS 2>/dev/null; then out="$out scripts/"; fi
	# shellcheck disable=SC2086
	if git grep -qE "$text" -- $DOCS 2>/dev/null; then out="$out *.md"; fi
	if [ -z "$out" ]; then
		if git grep -qE "$text" -- "*_test.go" 2>/dev/null; then out=" tests only"; else out=" nowhere"; fi
	fi
	echo "$out"
}

row() { printf '  %-44s%s\n' "$1" "$2"; }

echo "== exported root symbols (package dxbar) =="
git ls-files '*.go' | grep -v / | grep -v _test.go | xargs awk '
	/^func \([^)]*\) [A-Z]/ { sub(/^func \([^)]*\) /, ""); sub(/[^A-Za-z0-9_].*/, ""); print "method " $0; next }
	/^func [A-Z]/           { sub(/^func /, ""); sub(/[^A-Za-z0-9_].*/, ""); print "name " $0; next }
	/^(type|var|const) [A-Z]/ { print "name " $2; next }
	/^(type|var|const) \($/ { block = 1; next }
	/^\)/                   { block = 0 }
	block && /^\t[A-Z][A-Za-z0-9_]*/ { sub(/^\t/, ""); sub(/[^A-Za-z0-9_].*/, ""); print "name " $0 }
' | sort -u | while read -r kind name; do
	if [ "$kind" = method ]; then
		row ".$name()" "$(reach "\\.$name\\(")"
	else
		row "$name" "$(reach "dxbar\\.$name([^A-Za-z0-9_]|\$)" "(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|\$)")"
	fi
done

echo "== CLI flags =="
for main in cmd/*/main.go; do
	tool=$(basename "$(dirname "$main")")
	grep -oE '(flag|fs)\.[A-Z][A-Za-z0-9]*\((&[A-Za-z0-9_.]+, )?"[a-z0-9-]+"' "$main" | grep -v NewFlagSet | sed -E 's/.*"([a-z0-9-]+)"/\1/' | sort -u | while read -r f; do
		row "$tool -$f" "$(reach "(^|[^A-Za-z0-9_-])-$f([^A-Za-z0-9_-]|\$)")"
	done
done

echo "== exported option-struct fields (internal/diag, internal/metrics) =="
for pkg in diag metrics; do
	git ls-files "internal/$pkg/*.go" | grep -v _test.go | xargs awk -v pkg="$pkg" '
		/^type ([A-Z][A-Za-z0-9]*)?(Config|Options) struct \{/ { s = $2; next }
		/^\}/ { s = "" }
		s != "" && /^\t[A-Z]/ { line = $0; sub(/^\t/, "", line); sub(/ +[^, ]*$/, "", line); n = split(line, names, /, */)
			for (i = 1; i <= n; i++) if (names[i] ~ /^[A-Z][A-Za-z0-9_]*$/) print pkg "." s, names[i] }
	' | while read -r owner field; do
		row "$owner.$field" "$(reach "([^A-Za-z0-9_]$field:|\\.$field = )")"
	done
done

echo "== metric series =="
git grep -ohE '"dxbar_[a-z0-9_]+"' -- 'internal/*.go' '*.go' ':!*_test.go' ':!benchmark' | tr -d '"' | sort -u | while read -r s; do
	row "$s" "$(reach "$s")"
done

# A name is unreached when the identifier occurs in no non-test Go line (comments
# and string literals stripped) but its declarations: one occurrence per package
# that declares it. Same-named declarations reached anywhere hide each other, and
# methods that satisfy an interface (MarshalJSON, Int63) are listed although the
# interface reaches them.
echo "== exported internal/ names no non-test Go line reaches =="
git ls-files '*.go' | grep -v _test.go | xargs awk '
	FNR == 1 { pkg = ""; block = 0; if (FILENAME ~ /^internal\//) { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); sub(/^internal\//, "", pkg) } }
	{ line = $0; name = "" }
	pkg != "" && /^\)/ { block = 0 }
	pkg != "" && /^func \([^)]*\) [A-Z]/ {
		recv = line; sub(/^func \([^ ]* \*?/, "", recv); sub(/[^A-Za-z0-9_].*/, "", recv)
		name = line; sub(/^func \([^)]*\) /, "", name); owner = pkg "." recv "."
	}
	pkg != "" && /^func [A-Z]/                { name = line; sub(/^func /, "", name); owner = pkg "." }
	pkg != "" && /^(type|var|const) [A-Z]/    { name = $2; owner = pkg "." }
	pkg != "" && block && /^\t[A-Z]/          { name = line; sub(/^\t/, "", name); owner = pkg "." }
	pkg != "" && /^(type|var|const) \($/      { block = 1 }
	name != "" { sub(/[^A-Za-z0-9_].*/, "", name); decl[owner name] = name; ndecl[name]++ }
	{
		sub(/^[ \t]*\/\/.*/, "", line); gsub(/"([^"\\]|\\.)*"/, " ", line); sub(/\/\/.*/, "", line)
		gsub(/[^A-Za-z0-9_]+/, " ", line)
		n = split(line, tok, " ")
		for (i = 1; i <= n; i++) uses[tok[i]]++
	}
	END { for (o in decl) if (uses[decl[o]] == ndecl[decl[o]]) print "  " o }
' | sort

echo "== non-test Go lines per package (benchmark/ excluded) =="
git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | while read -r f; do
	printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
done | awk '{ n[$1] += $2; total += $2 } END { for (d in n) printf "  %6d  %s\n", n[d], d; printf "  %6d  total\n", total }' | sort -k2
