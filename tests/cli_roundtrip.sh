#!/bin/sh
# End-to-end round trip through the dsaudit CLI: keygen -> tag -> challenge
# -> private prove -> verify must pass (exit 0), and the same proof with one
# byte of its GT commitment R flipped must fail (exit 1).
#
# Usage: cli_roundtrip.sh <path to dsaudit_cli> <scratch directory>
set -eu
cli=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"

head -c 4000 "$cli" > f.bin  # any bytes will do as the archive
"$cli" keygen --s 4 --sk sk.bin --pk pk.bin
"$cli" tag --sk sk.bin --pk pk.bin --file f.bin --tag tag.bin
"$cli" challenge --k 8 --out chal.bin
"$cli" prove --pk pk.bin --file f.bin --tag tag.bin --challenge chal.bin \
  --proof p.bin
[ "$(wc -c < p.bin)" -eq 288 ] || { echo "proof is not 288 bytes"; exit 1; }
"$cli" verify --pk pk.bin --tag tag.bin --challenge chal.bin --proof p.bin

# R spans bytes 96..287 of the private proof; flip the low bit of byte 200.
byte=$(od -An -tu1 -j200 -N1 p.bin | tr -d ' ')
printf "\\$(printf %03o $((byte ^ 1)))" |
  dd of=p.bin bs=1 seek=200 conv=notrunc 2>/dev/null
status=0
"$cli" verify --pk pk.bin --tag tag.bin --challenge chal.bin --proof p.bin ||
  status=$?
if [ "$status" -ne 1 ]; then
  echo "tampered proof: expected exit 1, got $status"
  exit 1
fi
echo "cli-roundtrip: ok"
