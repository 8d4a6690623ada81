#!/usr/bin/env bash
# Check that every name the code's error messages and the design
# documents quote still exists.
#
# In lib/: every string literal that starts with "Module.fn:", as
# `invalid_arg` and `failwith` raise it (and as an `@raise` doc quotes
# it), names a function that lib/*/module.ml or its .mli binds: a
# `let`, `let rec`, `and`, `external` or `val`, at top level or local
# (an NF's `restore` callback, for one, is a local function of its
# `create`).
#
# In DESIGN.md, README.md and EXPERIMENTS.md, inside backticks:
# - `Nfp_<lib>.<Module>` is a file lib/<lib>/<module>.ml;
# - `Module.fn` is bound, as a value, type or record field, in
#   lib/*/module.ml or its .mli, when that module exists (a path such
#   as `Nfp_sim.Harness.system.classifier` checks its first lowercase
#   name, `system`, in its last module, Harness; `List.map` and other
#   names of modules outside lib/ are not checked).
# And anywhere in those three files, a named `test_<suite>` is a file
# test/test_<suite>.ml.
#
# A message or a document that outlives the name it quotes (a rename
# or a deletion) fails the check: it prints every such name and exits
# 1. Run from anywhere inside the repository; needs git and bash.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

docs=(DESIGN.md README.md EXPERIMENTS.md)
missing=0

fail() {
  printf '%s\n' "$1"
  missing=$((missing + 1))
}

# The .ml and .mli that define [module], or nothing.
defs_of() { ls lib/*/"${1,}".ml lib/*/"${1,}".mli 2>/dev/null || true; }

# Does one of [defs] bind [name] as a value or function?
binds_value() {
  grep -q -E "^ *((let|and)(\[@[^]]*\])*( rec)?|external|val) $2\\b" $1
}

# ... or as a type or record field?
binds_type_or_field() {
  grep -q -E "^ *(type|and)( nonrec)?( +('[a-z_]+|\\([^)]*\\)))? +$2\\b|(^|[{;]) *(mutable +)?$2 *:" $1
}

while IFS=: read -r file line prefix; do
  module=${prefix%%.*}
  fn=${prefix#*.}
  defs=$(defs_of "$module")
  if [ -z "$defs" ] || ! binds_value "$defs" "$fn"; then
    fail "$file:$line: $prefix names no function"
  fi
done < <(git grep --untracked -n -o -E '"[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*:' \
           -- 'lib/*.ml' 'lib/*.mli' | sed -E 's/"([^:]*):$/\1/')

# The inline code spans of a Markdown file, one per line: fenced blocks
# and double-backtick spans are dropped, and a span may cross a line
# break.
spans() {
  awk '/^```/ { fenced = !fenced; next } !fenced' "$1" | tr '\n' ' ' |
    sed -E 's/``([^`]|`[^`])*``//g' | grep -o '`[^`]*`' || true
}

for doc in "${docs[@]}"; do
  while read -r name; do
    IFS=. read -r -a parts <<< "$name"
    i=0
    if [[ ${parts[0]} == Nfp_* ]]; then
      lib=${parts[0]#Nfp_}
      if [ ! -f "lib/$lib/${parts[1],}.ml" ]; then
        fail "$doc: $name: no file lib/$lib/${parts[1],}.ml"
        continue
      fi
      i=1
    fi
    # The last module of the path, and the first lowercase name after it.
    while [ $((i + 1)) -lt ${#parts[@]} ] && [[ ${parts[i + 1]} == [A-Z]* ]]; do
      i=$((i + 1))
    done
    [ $((i + 1)) -lt ${#parts[@]} ] || continue
    module=${parts[i]}
    fn=${parts[i + 1]}
    defs=$(defs_of "$module")
    if [ -n "$defs" ] && ! binds_value "$defs" "$fn" && ! binds_type_or_field "$defs" "$fn"
    then
      fail "$doc: $module.$fn: $module binds no $fn"
    fi
  done < <(spans "$doc" |
             grep -o -E '[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+' |
             grep -E '^[A-Z]' | sort -u)
  while read -r suite; do
    [ -f "test/$suite.ml" ] || fail "$doc: $suite: no file test/$suite.ml"
  done < <(grep -o -E '\btest_[a-z0-9_]+' "$doc" | sort -u)
done

if [ "$missing" -gt 0 ]; then
  echo "$missing name(s) above are quoted by an error message in lib/ or by" \
       "${docs[*]} but no longer exist: rename the quote to the name that" \
       "exists, or drop it." >&2
  exit 1
fi
