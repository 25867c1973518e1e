#!/bin/sh
# Guards the independence of the standalone certificate checker: the
# advocat-check binary may define symbols only in advocat::proofcheck (the
# checker), advocat::util (exact numbers) and advocat::tighten (the
# interval tightener it shares with the certifier). A symbol in any other
# advocat namespace means solver code was linked in. Registered as the
# ctest `advocat_check_solver_free`.
#
# Usage: check_solver_free.sh <advocat-check binary>
set -eu

bin=$1
syms=$(nm -C --defined-only "$bin")
spaces=$(printf '%s\n' "$syms" | grep -o 'advocat::[A-Za-z0-9_]*::' |
  sort -u)
# An empty symbol table would pass vacuously.
if ! printf '%s\n' "$spaces" | grep -qx 'advocat::proofcheck::'; then
  echo "check_solver_free: no advocat::proofcheck symbols in $bin" >&2
  exit 1
fi
bad=$(printf '%s\n' "$spaces" | grep -vx -e 'advocat::proofcheck::' \
  -e 'advocat::util::' -e 'advocat::tighten::' || true)
if [ -n "$bad" ]; then
  echo "check_solver_free: $bin defines symbols in other namespaces:" >&2
  for ns in $bad; do
    printf '%s\n' "$syms" | grep -F "$ns" | head -3 | sed 's/^/  /' >&2
  done
  exit 1
fi
echo "check_solver_free: $bin defines only proofcheck, util and tighten"
