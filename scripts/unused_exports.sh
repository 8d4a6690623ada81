#!/usr/bin/env bash
# List every `val` exported from lib/*/*.mli that no program uses: its
# name appears in no .ml/.mli file of lib/, bin/, bench/, examples/ or
# perfbench/ other than its own module's two files. test/ does not
# count as a user.
#
# A use is `M.name` (also through a library path such as
# `Nfp_algo.M.name` or a `module X = M` alias), or a bare `name` in a
# file that opens M (`open M`, `let open M in`, or a local open
# `M.( ... )`, `M.[ ... ]`, `M.{ ... }`).
#
# Such an export either goes, or its doc says why tests need it, with
# the fixed marker "Kept for tests" in the doc comment that follows
# the `val`.
#
# The same holds for each optional argument `?label` of a `val` that
# programs do use: some call of the `val` must pass `~label` or
# `?label`, or the `val`'s doc must name `label` and carry the marker.
# A call runs from the name to the end of its application: the first
# bracket it does not open, or, outside brackets, strings and
# comments, the first infix operator, separator or keyword.
#
#   scripts/unused_exports.sh          list them, marked or not
#   scripts/unused_exports.sh --check  also exit 1 if one lacks the marker
#
# Run from anywhere inside the repository; needs git and bash.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

marker='Kept for tests'
check=0
[ "${1-}" = "--check" ] && check=1

users=()
for d in lib bin bench examples perfbench; do users+=("$d/*.ml" "$d/*.mli"); done
unmarked=0

# Emits "line<TAB>module<TAB>name<TAB>marked<TAB>labels" for each val
# of one .mli, where labels lists its optional arguments as
# "label=marked" or "label=unmarked" (marked: the doc names the label
# and carries the marker). A nested `module X : sig ... end` qualifies
# its vals by X. A val's doc runs from its line to the next item, or to
# the next blank line outside a comment; its signature is the part
# before the first `(**`.
vals_of() {
  awk -v top="$2" -v marker="$marker" '
    function flush(   sig, comment, has, labels, l) {
      gsub(/[ \t]+/, " ", doc)
      if (name != "") {
        has = index(doc, marker)
        sig = doc; comment = ""
        if (index(doc, "(**")) {
          sig = substr(doc, 1, index(doc, "(**") - 1)
          comment = substr(doc, index(doc, "(**"))
        }
        labels = ""
        while (match(sig, /\?[a-z_][A-Za-z0-9_]*:/)) {
          l = substr(sig, RSTART + 1, RLENGTH - 2)
          sig = substr(sig, RSTART + RLENGTH)
          labels = labels " " l "=" \
            ((has && comment ~ ("[^A-Za-z0-9_]" l "[^A-Za-z0-9_]")) ? "marked" : "unmarked")
        }
        print vline "\t" qual "\t" name "\t" (has ? "marked" : "unmarked") "\t" labels
      }
      name = ""; doc = ""
    }
    # Comment depth of the text gathered so far.
    function depth(s,   o, c) {
      o = gsub(/\(\*/, "", s); c = gsub(/\*\)/, "", s)
      return o - c
    }
    /^[ \t]*$/ { if (name != "" && depth(doc) > 0) next; flush(); next }
    /^[ \t]*(val|type|module|end|exception|external|include|open)[ \t]/ || /^[ \t]*end[ \t]*$/ { flush() }
    /^module [A-Z][A-Za-z0-9_]* : sig/ { split($0, w, /[ \t:]+/); qual = w[2]; next }
    /^end[ \t]*$/ { qual = top; next }
    /^[ \t]*val [a-z_][A-Za-z0-9_]*/ {
      match($0, /val [a-z_][A-Za-z0-9_]*/)
      name = substr($0, RSTART + 4, RLENGTH - 4); vline = NR
    }
    name != "" { doc = doc " " $0 }
    END { flush() }
    BEGIN { qual = top }
  ' "$1"
}

# Prints the text of every call in file $2 that matches the regex $1
# (a name, qualified or bare, with what may precede it); the name must
# end at a non-identifier character.
calls_of() {
  awk -v pat="$1" -v q="'" '
    BEGIN {
      ident = "^[A-Za-z0-9_" q "]"
      word = "^[A-Za-z_][A-Za-z0-9_" q "]*"
      label = "^[~?][a-z_][A-Za-z0-9_" q "]*:?"
      stop = "^(in|then|else|do|done|with|let|and|begin|end|match|if|fun|function|when|try|of|to|downto|val|module|type|open)$"
    }
    { text = text $0 "\n" }
    END {
      while (match(text, pat)) {
        start = RSTART; i = RSTART + RLENGTH; n = length(text)
        if (substr(text, i, 1) ~ ident) { text = substr(text, i); continue }
        depth = 0
        while (i <= n) {
          c = substr(text, i, 1)
          if (c == "\"") {
            for (i++; i <= n && substr(text, i, 1) != "\""; i++)
              if (substr(text, i, 1) == "\\") i++
          } else if (substr(text, i, 2) == "(*") {
            d = 1
            for (i += 2; i <= n && d > 0; i++) {
              if (substr(text, i, 2) == "(*") { d++; i++ }
              else if (substr(text, i, 2) == "*)") { d--; i++ }
            }
            continue
          } else if (c ~ /[([{]/) depth++
          else if (c ~ /[])}]/) { if (depth == 0) break; depth-- }
          else if (c ~ /[~?]/ && match(substr(text, i), label)) { i += RLENGTH; continue }
          else if (depth == 0 && c ~ /[-;,|=<>@^+*\/&$%!:]/) break
          else if (c ~ /[A-Za-z_]/) {
            match(substr(text, i), word)
            if (depth == 0 && substr(text, i, RLENGTH) ~ stop) break
            i += RLENGTH; continue
          }
          i++
        }
        print substr(text, start, i - start)
        text = substr(text, i)
      }
    }' "$2"
}

for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  top="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  own=(":(exclude)${mli%.mli}.ml" ":(exclude)$mli")
  # Files outside the module that open it, and names it is aliased to.
  openers=$(git grep --untracked -l -E \
    "(open|open!) +([A-Z][a-z_]*\.)*$top( |\$)|\\b$top\\.([([{]|\$)" \
    -- "${users[@]}" "${own[@]}" || true)
  aliases=$(git grep --untracked -h -o -E \
    "module +[A-Z][A-Za-z0-9_]* += +([A-Z][a-z_]*\.)*$top\\b" \
    -- "${users[@]}" "${own[@]}" | sed -E 's/module +([A-Za-z0-9_]+) .*/\1/' || true)
  while IFS=$'\t' read -r line qual name marked labels; do
    quals="$qual"
    [ "$qual" = "$top" ] && for a in $aliases; do quals="$quals|$a"; done
    # The program files that use this val.
    callers=$(git grep --untracked -l -E "\\b($quals)\\.$name\\b" \
                -- "${users[@]}" "${own[@]}" || true)
    if [ -n "$openers" ] && [ "$qual" = "$top" ]; then
      callers="$callers $(printf '%s\n' $openers | xargs grep -l -w -- "$name" || true)"
    fi
    if [ -z "${callers// /}" ]; then
      printf '%s:%s: %s.%s %s\n' "$mli" "$line" "$qual" "$name" "$marked"
      if [ "$marked" = unmarked ]; then unmarked=$((unmarked + 1)); fi
      continue
    fi
    [ -z "$labels" ] && continue
    calls=$(for f in $callers; do
      if printf '%s\n' $openers | grep -q -x -F -- "$f" && [ "$qual" = "$top" ]; then
        calls_of "(^|[^A-Za-z0-9_'])$name" "$f"
      else
        calls_of "(^|[^A-Za-z0-9_'])($quals)\\.$name" "$f"
      fi
    done)
    for lm in $labels; do
      label=${lm%=*}
      if grep -q -E "[~?]$label\\b" <<<"$calls"; then continue; fi
      printf '%s:%s: %s.%s ?%s %s\n' "$mli" "$line" "$qual" "$name" "$label" "${lm#*=}"
      if [ "${lm#*=}" = unmarked ]; then unmarked=$((unmarked + 1)); fi
    done
  done < <(vals_of "$mli" "$top")
done

if [ "$check" = 1 ] && [ "$unmarked" -gt 0 ]; then
  echo "$unmarked export(s) or optional argument(s) above have no" \
       "program using them and no '$marker' doc line: delete them, drop" \
       "them from the .mli, or say why tests need them." >&2
  exit 1
fi
