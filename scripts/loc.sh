#!/usr/bin/env sh
# Source line counts, tracked like a benchmark: non-blank lines of C++
# (.hpp/.cpp) per src/<module>, the src total, and tests, bench and
# examples. Prints a Markdown table, so CI can append it to the job
# summary. Usage: ./scripts/loc.sh [repo-root]
set -eu

cd "${1:-$(dirname "$0")/..}"

count() {
  find "$@" -type f \( -name '*.hpp' -o -name '*.cpp' \) -exec cat {} + |
    grep -c -v '^[[:space:]]*$' || true
}

echo "| tree | non-blank lines |"
echo "|------|----------------:|"
for dir in src/*/; do
  dir=${dir%/}
  echo "| $dir | $(count "$dir") |"
done
echo "| **src total** | **$(count src)** |"
for dir in tests bench examples; do
  echo "| $dir | $(count "$dir") |"
done
