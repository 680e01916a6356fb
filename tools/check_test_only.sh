#!/usr/bin/env bash
# Lists library functions that only tests reach, and fails on any that the
# allowlist does not explain.
#
# A name counts as declared when it appears as a function or method
# declaration in src/**/*.h: at namespace scope or in the public part of a
# class or struct (private helpers are their own file's business). It is
# test-only when no file under src/, tools/, bench/, examples/ or
# perfbench/ uses it: every mention there is a comment, a declaration or a
# definition (a call from the name's own .cc counts as a use, since product
# code then reaches it). Matching is by name, so a name shared with any
# used function passes; the check keeps new test-only surface from growing,
# it does not prove every listed name dead.
#
# Usage: tools/check_test_only.sh [allowlist]
#   allowlist defaults to tools/test_only_allowlist.txt: one name per line,
#   then "#" and the reason it may stay. Exit status 1 when a test-only name
#   is missing from it.

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allowlist="${1:-$root/tools/test_only_allowlist.txt}"
cd "$root"

# Prints "name" for every public function/method declaration in one header.
declared_names() {
  awk '
    function push(kind, acc) { n++; kinds[n] = kind; access[n] = acc }
    function at_decl_scope() {
      if (n == 0 || kinds[n] == "ns") return 1
      return kinds[n] == "class" && access[n] == "public"
    }
    # A class nested in a private part stays private whatever its labels.
    function class_kind() {
      return (n == 0 || kinds[n] == "ns" || at_decl_scope()) ? "class" : "hidden"
    }
    BEGIN {
      n = 0; incomment = 0; pending = ""
      split("return else new delete throw sizeof case goto operator " \
            "decltype alignof typeid if while for switch using typedef " \
            "static_assert defined alignas noexcept", kw, " ")
      for (i in kw) keyword[kw[i]] = 1
    }
    {
      line = $0
      if (incomment) {
        if (sub(/.*\*\//, "", line)) incomment = 0; else next
      }
      gsub(/\/\*([^*]|\*+[^*\/])*\*+\//, "", line)
      if (match(line, /\/\*/)) { line = substr(line, 1, RSTART - 1); incomment = 1 }
      sub(/\/\/.*/, "", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      gsub(/\047([^\047\\]|\\.)*\047/, "0", line)

      if (line ~ /^[ \t]*(public|private|protected)[ \t]*:/) {
        if (n > 0 && (kinds[n] == "class" || kinds[n] == "hidden")) {
          label = line; sub(/^[ \t]*/, "", label); sub(/[ \t]*:.*/, "", label)
          access[n] = label
        }
        next
      }
      if (line ~ /^[ \t]*namespace([ \t]+[A-Za-z_][A-Za-z0-9_:]*)?[ \t]*\{/) {
        pending = "ns"
      } else if (line ~ /^[ \t]*(template[ \t]*<.*>[ \t]*)?(class|struct)[ \t]+[A-Za-z_]/ &&
                 line !~ /;[ \t]*$/) {
        pending = (line ~ /^[ \t]*(template[ \t]*<.*>[ \t]*)?class/) ? "private" : "public"
      } else if (at_decl_scope() &&
                 line ~ /^[ \t]*((static|virtual|inline|explicit|constexpr|friend)[ \t]+)*[A-Za-z_][A-Za-z0-9_:<>,*& \t]*[ \t*&]+~?[A-Za-z_][A-Za-z0-9_]*[ \t]*\(/) {
        head = substr(line, 1, index(line, "(") - 1)
        if (match(head, /~?[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)) {
          name = substr(head, RSTART, RLENGTH); sub(/[ \t]+$/, "", name)
          if (name !~ /^~/ && !(name in keyword) && name !~ /^[A-Z0-9_]+$/)
            print name
        }
      }

      for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") {
          if (pending == "ns") push("ns", "")
          else if (pending != "") push(class_kind(), pending)
          else push("other", "")
          pending = ""
        } else if (c == "}") {
          if (n > 0) n--
        } else if (c == ";" && pending != "ns") {
          pending = ""
        }
      }
    }
  ' "$1" | sort -u
}

# Succeeds when some file under src/, tools/, bench/, examples/ or
# perfbench/ uses `name`: mentions it on a line that is neither a comment
# nor one of its declarations or definitions (a type, then the name, maybe
# class-qualified, then "(").
has_product_use() {
  local decl="^[[:space:]]*((static|virtual|inline|explicit|constexpr|friend)[[:space:]]+)*[A-Za-z_][A-Za-z0-9_:<>*& ]*[ *&]([A-Za-z_][A-Za-z0-9_]*::)*~?$1[[:space:]]*\\("
  grep -rhw --include='*.h' --include='*.cc' --include='*.cpp' -e "$1" \
      src tools bench examples perfbench 2>/dev/null |
    sed -e 's://.*$::' -e 's:^[[:space:]]*\*.*$::' \
        -e 's/^[[:space:]]*\(return\|else\|throw\|new\|case\)[[:space:]]/ = /' |
    grep -Ev -e "$decl" |
    grep -w -e "$1" >/dev/null  # not -q: an early exit fails the pipe
}

allowed="$(sed -e 's/#.*//' -e 's/[[:space:]]//g' "$allowlist" | grep -v '^$' || true)"

status=0
listed=""
while IFS= read -r header; do
  while IFS= read -r name; do
    if has_product_use "$name"; then
      continue
    fi
    listed="$listed $name"
    if grep -qxF -e "$name" <<<"$allowed"; then
      echo "allowed   $name  ($header)"
    else
      echo "TEST-ONLY $name  ($header)"
      status=1
    fi
  done < <(declared_names "$header")
done < <(find src -name '*.h' | sort)

for name in $allowed; do
  case " $listed " in
    *" $name "*) ;;
    *) echo "note: allowlist entry '$name' is no longer test-only" ;;
  esac
done

if [ "$status" -ne 0 ]; then
  echo "check_test_only: library names above are reached only by tests;" \
       "delete them or add them to $allowlist with a reason" >&2
fi
exit "$status"
