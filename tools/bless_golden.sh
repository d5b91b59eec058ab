#!/usr/bin/env bash
# Regenerates the model-answer pins (kModelPins in
# tests/golden_model_test.cc) for every kernel tier this CPU supports.
# GoldenModel.RunM3OneThreadMatchesThePins and
# GoldenModel.IdentityMatchesThePins print one
# `golden-model <flavor> <model> <query> <tier> <hex>` line per stale pin;
# this script pastes each hex back into its table row. Run it only for a
# deliberate change of model answers, and say so in CHANGES.md. Rows of a
# tier the CPU lacks are left as they are. The plain build (default
# `build`) blesses the "opt" rows; a sanitizer build (e.g. `build-asan`,
# configured with -DM3_SANITIZE=address) blesses the "san" rows.
#
# Usage: tools/bless_golden.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake --build "$BUILD" --target m3_tests
lines="$(env -u M3_KERNEL "$BUILD/tests/m3_tests" \
  --gtest_filter='*GoldenModel.RunM3OneThreadMatchesThePins*:*GoldenModel.IdentityMatchesThePins*' |
  grep '^golden-model ' || true)"
if [ -z "$lines" ]; then
  echo "bless_golden: every pin already matches"
  exit 0
fi
printf '%s\n' "$lines" | python3 -c '
import re, sys
path = sys.argv[1]
src = open(path).read()
for line in sys.stdin:
    _, flavor, model, query, tier, hexd = line.split()
    row = re.compile(r"(\{\"%s\", \"%s\", \"%s\", \"%s\", \")[0-9a-f]*(\"\})"
                     % (flavor, model, query, tier))
    src, n = row.subn(lambda m: m.group(1) + hexd + m.group(2), src)
    if n != 1:
        sys.exit("bless_golden: no table row for %s %s %s %s" % (flavor, model, query, tier))
    print("blessed", flavor, model, query, tier, hexd)
open(path, "w").write(src)
' tests/golden_model_test.cc
cmake --build "$BUILD" --target m3_tests
"$BUILD/tests/m3_tests" --gtest_filter='*GoldenModel*'
