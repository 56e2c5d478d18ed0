#!/bin/sh
# Fails if the static library given as $1 defines or references any of the
# reference implementations that live in tests/support/ (the shipped library
# must not carry its own test oracles). Usage: library_oracle_free.sh libdsaudit.a
set -eu
lib="$1"
pattern='VarUInt|mul_naive|validate_bn254_parameters|final_exponentiation_slow|pairing_textbook|g2_in_subgroup_naive'
symbols=$(nm -C "$lib") || { echo "nm failed on $lib" >&2; exit 1; }
found=$(printf '%s\n' "$symbols" | grep -E "$pattern" || true)
if [ -n "$found" ]; then
  echo "test oracles found in $lib:" >&2
  printf '%s\n' "$found" >&2
  exit 1
fi
echo "no test oracle in $lib"
