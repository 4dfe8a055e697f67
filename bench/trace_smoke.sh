#!/usr/bin/env bash
# Tier-1 smoke check: build, run the test suite, then emit a launch
# trace from the quickstart example in both binary modes and validate
# its Chrome-trace schema (three launch-phase spans, transfer byte
# counts, JIT-cache hit/miss events) with bench/trace_check.  A third
# leg re-runs with fault injection and checks the recovery events
# survive the same schema validation, and a last leg traces a program
# that mixes a nowait region with a synchronous one and checks that
# their copies never overlap on the device's one copy engine.
#
#   bash bench/trace_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

tmpdir="${TMPDIR:-/tmp}/ompi-trace-smoke.$$"
mkdir -p "$tmpdir"
trap 'rm -rf "$tmpdir"' EXIT

for mode in cubin ptx; do
  echo "== ompirun --trace ($mode) =="
  dune exec bin/ompirun.exe -- -b "$mode" --mem-policy=copy \
    --trace "$tmpdir/quickstart-$mode.json" examples/quickstart >/dev/null
  dune exec bench/trace_check.exe -- "$tmpdir/quickstart-$mode.json"
done

echo "== ompirun --trace --mem-policy=auto (policy decisions) =="
dune exec bin/ompirun.exe -- --mem-policy=auto \
  --trace "$tmpdir/quickstart-auto.json" examples/quickstart >/dev/null
dune exec bench/trace_check.exe -- --expect-policy "$tmpdir/quickstart-auto.json"

echo "== ompirun --trace --faults (recovery events) =="
dune exec bin/ompirun.exe -- --faults 'transfer:nth=2' --mem-policy=copy \
  --trace "$tmpdir/quickstart-faults.json" examples/quickstart >/dev/null
dune exec bench/trace_check.exe -- "$tmpdir/quickstart-faults.json"
grep -q '"retry_backoff"' "$tmpdir/quickstart-faults.json" || {
  echo "trace_smoke: FAIL: no retry_backoff event in faulted trace" >&2
  exit 1
}

echo "== ompirun --trace, nowait and synchronous copies (one copy engine) =="
cat > "$tmpdir/mixed.c" <<'EOF'
int main(void)
{
  int n = 65536;
  float *a = malloc(n * 4);
  float *b = malloc(n * 4);
  for (int i = 0; i < n; i++) { a[i] = i; b[i] = 2 * i; }
  #pragma omp target teams distribute parallel for map(to: n) map(tofrom: a[0:n]) nowait
  for (int i = 0; i < n; i++)
    a[i] = a[i] + 1.0f;
  #pragma omp target teams distribute parallel for map(to: n) map(tofrom: b[0:n])
  for (int i = 0; i < n; i++)
    b[i] = b[i] + 1.0f;
  #pragma omp taskwait
  printf("%.1f %.1f\n", a[n - 1], b[n - 1]);
  return 0;
}
EOF
dune exec bin/ompirun.exe -- --mem-policy=copy --trace "$tmpdir/mixed.json" "$tmpdir/mixed.c" \
  >/dev/null
dune exec bench/trace_check.exe -- "$tmpdir/mixed.json"

echo "trace_smoke: all checks passed"
