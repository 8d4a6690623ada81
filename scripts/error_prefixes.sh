#!/usr/bin/env bash
# Check that every error message in lib/ that names a function names
# one that exists. Such a message is a string literal that starts with
# "Module.fn:", as `invalid_arg` and `failwith` raise it (and as an
# `@raise` doc quotes it). It passes when lib/*/module.ml or its .mli
# binds fn: a `let`, `let rec`, `and`, `external` or `val`, at top
# level or local (an NF's `restore` callback, for one, is a local
# function of its `create`). A message that outlives the function it
# names (a rename or a deletion) fails the check.
#
# It prints every prefix that names no function and exits 1 if there
# is one. Run from anywhere inside the repository; needs git and bash.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

missing=0

while IFS=: read -r file line prefix; do
  module=${prefix%%.*}
  fn=${prefix#*.}
  defs=$(ls lib/*/"${module,}".ml lib/*/"${module,}".mli 2>/dev/null || true)
  if [ -z "$defs" ] ||
     ! grep -q -E "^ *((let|and)(\[@[^]]*\])*( rec)?|external|val) $fn\\b" $defs; then
    printf '%s:%s: %s names no function\n' "$file" "$line" "$prefix"
    missing=$((missing + 1))
  fi
done < <(git grep --untracked -n -o -E '"[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*:' \
           -- 'lib/*.ml' 'lib/*.mli' | sed -E 's/"([^:]*):$/\1/')

if [ "$missing" -gt 0 ]; then
  echo "$missing error message(s) above start with a Module.fn: prefix that" \
       "names no function of that module: rename the prefix to the" \
       "function that raises it." >&2
  exit 1
fi
