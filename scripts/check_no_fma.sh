#!/usr/bin/env sh
# Fails when any cwcsim static archive in a build tree contains an FMA
# instruction. The batch engine's AVX2/AVX-512 variants, and every
# -DCWCSIM_NATIVE build, target CPUs that have FMA; a fused a*b+c rounds
# once instead of twice, so one contraction breaks bit-exactness against
# the baseline-ISA scalar engines. src/CMakeLists.txt compiles with
# -ffp-contract=off, and this check keeps it that way: the lockstep
# digests alone only notice when a sample lands within an ulp of a
# contracted expression. Prints each offending object and function.
# Usage: ./scripts/check_no_fma.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
archives=$(find "$BUILD_DIR" -name 'libcwcsim*.a' -not -path '*/_deps/*' |
  sort)
if [ -z "$archives" ]; then
  echo "error: no libcwcsim*.a under $BUILD_DIR" >&2
  exit 1
fi

# shellcheck disable=SC2086  # one archive path per word
objdump -d --no-show-raw-insn -C $archives | awk '
  /file format/ { obj = $1 }
  /^[0-9a-f]+ <.*>:$/ { fn = $0; sub(/^[0-9a-f]+ /, "", fn); sub(/:$/, "", fn) }
  /\tv(fmadd|fmsub|fnmadd|fnmsub)/ { print obj " " fn ": " $0; n++ }
  END {
    if (n > 0) { print n " FMA instruction(s) found"; exit 1 }
    print "no FMA instructions in the cwcsim archives"
  }'
