#!/usr/bin/env bash
# Count the non-comment, non-blank lines of lib/*/*.ml and lib/*/*.mli,
# per library and in total. A line counts when some character of it
# lies outside every comment and is not white space; comments nest, a
# string literal (also one inside a comment) is lexed as OCaml does, so
# "(*" in a string opens nothing, and a character literal such as '"'
# opens no string. Doc comments are comments.
#
#   scripts/loc.sh
#
# One mode, no options; run from anywhere inside the repository (needs
# git, bash and awk). The same count on two trees compares them.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count() {
  awk '
    # Marks the line as code when [c] is a printing character outside
    # every comment.
    function code(c) { if (depth == 0 && c !~ /[ \t\r]/) seen = 1 }
    {
      line = $0; n = length(line); seen = 0
      for (i = 1; i <= n; i++) {
        c = substr(line, i, 1)
        if (instr) {
          code(c)
          if (c == "\\") i++
          else if (c == "\"") instr = 0
        } else if (substr(line, i, 2) == "(*") {
          depth++; i++
        } else if (depth > 0 && substr(line, i, 2) == "*)") {
          depth--; i++
        } else {
          code(c)
          if (c == "\"") instr = 1
          else if (c == q && substr(line, i + 1, 1) == "\\") {
            j = index(substr(line, i + 2), q)
            if (j > 0) i += 1 + j
          } else if (c == q && substr(line, i + 2, 1) == q) i += 2
        }
      }
      if (seen) total++
    }
    END { print total + 0 }
  ' q="'" "$@"
}

printf '%-10s %7s %7s %7s\n' library ml mli total
sum_ml=0 sum_mli=0
for dir in lib/*/; do
  lib=$(basename "$dir")
  ml=0 mli=0
  for f in "$dir"*.ml; do [ -e "$f" ] && ml=$((ml + $(count "$f"))); done
  for f in "$dir"*.mli; do [ -e "$f" ] && mli=$((mli + $(count "$f"))); done
  printf '%-10s %7d %7d %7d\n' "$lib" "$ml" "$mli" $((ml + mli))
  sum_ml=$((sum_ml + ml)) sum_mli=$((sum_mli + mli))
done
printf '%-10s %7d %7d %7d\n' total "$sum_ml" "$sum_mli" $((sum_ml + sum_mli))
