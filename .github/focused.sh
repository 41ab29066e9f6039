#!/bin/sh
# Runs focused test rows read from stdin, one a line: package under
# ./internal/, -count, -run pattern ('#' lines and blank lines are skipped).
# The arguments go to every go test, before the row's own flags. A row whose
# pattern matches no top-level test fails, since it would otherwise pass
# having run nothing.
#
#   sh .github/focused.sh -race <<'ROWS'
#   core 3 TestReuse|TestExplore
#   ROWS
while read -r pkg count pattern; do
  case "$pkg" in '' | '#'*) continue ;; esac
  if ! go test -list "${pattern%%/*}" "./internal/$pkg/" | grep -q '^Test'; then
    echo "no test in ./internal/$pkg/ matches '$pattern'"
    exit 1
  fi
  echo "== go test $* -count=$count -run '$pattern' ./internal/$pkg/"
  go test "$@" -count="$count" -run "$pattern" "./internal/$pkg/" || exit 1
done
