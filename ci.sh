#!/bin/sh
# CI entry point: formatting, build, tier-1 tests, profile smoke.
#
# Stays green on containers without ocamlformat: the @fmt check only runs
# when the tool is installed; a portable whitespace lint always runs.
set -eu

cd "$(dirname "$0")"

echo "== fmt"
# Portable lint: no tabs, no trailing whitespace in OCaml sources.
if grep -rlP '\t| +$' --include='*.ml' --include='*.mli' lib bin test tools examples; then
  echo "fmt: tabs or trailing whitespace found in the files above" >&2
  exit 1
fi
# Nothing the program runs decodes bytes with Marshal: its readers
# trust their input's layout, so a corrupt or foreign file can crash
# the process instead of raising.
if grep -rnF 'Marshal.from_' lib bin; then
  echo "lint: Marshal decoding found in lib/ or bin/ (lines above)" >&2
  exit 1
fi
if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  dune build @fmt
else
  echo "fmt: ocamlformat check skipped (tool not installed)"
fi

echo "== build"
dune build

echo "== tier-1 tests"
dune runtest

echo "== profile smoke"
dune build @smoke

echo "== parallel determinism"
# The staged engine guarantees input-order results: the printed tables
# must be byte-identical no matter how many worker domains run them.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec --no-build -- ipcp tables --jobs 1 > "$tmpdir/jobs1.out"
dune exec --no-build -- ipcp tables --jobs 2 > "$tmpdir/jobs2.out"
if ! cmp -s "$tmpdir/jobs1.out" "$tmpdir/jobs2.out"; then
  echo "determinism: tables output differs between --jobs 1 and --jobs 2" >&2
  diff "$tmpdir/jobs1.out" "$tmpdir/jobs2.out" >&2 || true
  exit 1
fi
# Both analyses' tables are pinned to golden files: constant and copy
# propagation run one solver with two entry seeds, and a change to it
# must not move a byte of either.  Regenerate a golden deliberately if
# the tables change.
if ! cmp -s test/goldens/tables_const.txt "$tmpdir/jobs1.out"; then
  echo "golden: tables output differs from test/goldens/tables_const.txt" >&2
  diff test/goldens/tables_const.txt "$tmpdir/jobs1.out" >&2 || true
  exit 1
fi
dune exec --no-build -- ipcp tables --analysis copy > "$tmpdir/copy.out"
if ! cmp -s test/goldens/tables_copy.txt "$tmpdir/copy.out"; then
  echo "golden: tables --analysis copy differs from test/goldens/tables_copy.txt" >&2
  diff test/goldens/tables_copy.txt "$tmpdir/copy.out" >&2 || true
  exit 1
fi

echo "== fault injection"
# The fault draws under two fixed seeds: each seed's decisions must be
# deterministic, and two seeds must decide differently.  (Pool
# containment is checked by `test engine`.)
for seed in 7 11; do
  echo "-- seed $seed"
  IPCP_FAULT_SEED=$seed dune exec --no-build test/main.exe -- test fault
done

echo "== budget degradation"
# A generous per-pass budget must not change a single byte of the
# tables: exhaustion never triggers, so the degradation paths stay cold
# and the counts equal the unbudgeted run exactly.
dune exec --no-build -- ipcp tables --jobs 1 --max-steps 1000000 > "$tmpdir/budgeted.out"
if ! cmp -s "$tmpdir/jobs1.out" "$tmpdir/budgeted.out"; then
  echo "budget: tables output differs under a generous --max-steps" >&2
  diff "$tmpdir/jobs1.out" "$tmpdir/budgeted.out" >&2 || true
  exit 1
fi
# A starvation-level budget must degrade, not crash: the tables still
# render (sound, fewer constants) and the exit code stays 0.
dune exec --no-build -- ipcp tables --jobs 1 --max-steps 1 > "$tmpdir/starved.out"
grep -q "Table 3" "$tmpdir/starved.out" || {
  echo "budget: starved tables run did not render" >&2
  exit 1
}

echo "== certification"
# The independent certifier re-checks every suite program at the paper's
# default configuration: fixpoint per call edge, entry seeding, MOD
# containment, SCCP transfer consistency, and an interpreter witness for
# every published constant.  Any violation exits 4 and fails CI.
dune exec --no-build -- ipcp certify --suite
# A corrupted solution must be rejected (exit 4), proving the checker
# has teeth — not just that healthy solutions pass.
if IPCP_FAULT_CORRUPT=7 dune exec --no-build -- ipcp certify --suite > /dev/null 2>&1; then
  echo "certify: corrupted solutions were not rejected" >&2
  exit 1
fi

echo "== oracles on a big input"
# The certifier and the incremental path on a 1600-procedure program,
# large enough that a whole-program walk per procedure would show: the
# program must certify, and after a one-literal edit, re-analysis
# against the original must print exactly what a from-scratch analyze
# of the edited program prints.
dune exec --no-build -- ipcp generate --seed 42 --procs 1600 --stmts 10 > "$tmpdir/big.f"
dune exec --no-build -- ipcp certify "$tmpdir/big.f"
# The substituted source is printed from the resolved program, the one
# MiniFort printer: at this size it must still resolve and certify.
dune exec --no-build -- ipcp analyze "$tmpdir/big.f" \
  --substitute "$tmpdir/big_substituted.f" > /dev/null
dune exec --no-build -- ipcp certify "$tmpdir/big_substituted.f"
# One profile must explain the run: the frontend is parse and sema (the
# parser pulls its tokens from the lexer), the pipeline stages are all
# there, substitution has a span of its own, and the certifier has one
# child span per obligation family.
dune exec --no-build -- ipcp analyze "$tmpdir/big.f" --certify \
  --profile-json "$tmpdir/big_profile.json" > /dev/null
dune exec --no-build tools/profile_lint.exe -- --stages "$tmpdir/big_profile.json"
if ! grep -q '"name": "substitute"' "$tmpdir/big_profile.json"; then
  echo "big input: the analyze profile has no substitute span" >&2
  exit 1
fi
# the top-level certify span, whose direct children sit at 10 spaces
sed -n '/^      "name": "certify",$/,/^    }/p' "$tmpdir/big_profile.json" \
  > "$tmpdir/big_certify_span.json"
for family in mod exec; do
  if ! grep -qxF "          \"name\": \"$family\"," "$tmpdir/big_certify_span.json"; then
    echo "big input: the analyze --certify profile has no certify > $family span" >&2
    exit 1
  fi
done
# The certifier reads the SCCP results substitution computed: SCCP runs
# once per procedure (1601 of them), not twice.
n=$(sed -n 's/.*"sccp.runs": \([0-9]*\).*/\1/p' "$tmpdir/big_profile.json")
if [ "${n:-0}" -ne 1601 ]; then
  echo "big input: analyze --certify counted ${n:-0} sccp.runs, not 1601" >&2
  exit 1
fi
# The cost per jump-function kind (the paper's §3.1.5) is read off
# these profiles: each kind builds its forward jump functions under a
# stage2:forward_jfs span, one per call site, so every kind counts the
# same sites.
sites=
for kind in literal intraconst passthrough polynomial; do
  dune exec --no-build -- ipcp analyze "$tmpdir/big.f" -j "$kind" \
    --profile-json "$tmpdir/big_$kind.json" > /dev/null
  if ! grep -q '"name": "stage2:forward_jfs"' "$tmpdir/big_$kind.json"; then
    echo "big input: the -j $kind profile has no stage2:forward_jfs span" >&2
    exit 1
  fi
  n=$(sed -n "s/.*\"jf.sites.$kind\": \([0-9]*\).*/\1/p" "$tmpdir/big_$kind.json")
  if [ "${n:-0}" -eq 0 ] || [ "$n" != "${sites:-$n}" ]; then
    echo "big input: -j $kind counted ${n:-no} jf.sites.$kind," \
      "where the kinds before it counted ${sites:-none}" >&2
    exit 1
  fi
  sites=$n
done
sed '1,/^  lv1 = [0-9][0-9]*$/s/^\(  lv1 = [0-9][0-9]*\)$/\11/' "$tmpdir/big.f" > "$tmpdir/big_edited.f"
if cmp -s "$tmpdir/big.f" "$tmpdir/big_edited.f"; then
  echo "big input: the literal edit changed nothing" >&2
  exit 1
fi
dune exec --no-build -- ipcp analyze "$tmpdir/big_edited.f" --against "$tmpdir/big.f" \
  --profile-json "$tmpdir/big_delta_profile.json" > "$tmpdir/big_delta.out"
dune exec --no-build -- ipcp analyze "$tmpdir/big_edited.f" > "$tmpdir/big_scratch.out"
if ! cmp -s "$tmpdir/big_delta.out" "$tmpdir/big_scratch.out"; then
  echo "big input: analyze --against differs from a from-scratch analyze" >&2
  diff "$tmpdir/big_delta.out" "$tmpdir/big_scratch.out" | head -20 >&2 || true
  exit 1
fi
# Complete propagation continues its rounds from the --against session.
dune exec --no-build -- ipcp analyze "$tmpdir/big_edited.f" --complete \
  --against "$tmpdir/big.f" > "$tmpdir/big_complete_delta.out"
dune exec --no-build -- ipcp analyze "$tmpdir/big_edited.f" --complete \
  > "$tmpdir/big_complete_scratch.out"
if ! cmp -s "$tmpdir/big_complete_delta.out" "$tmpdir/big_complete_scratch.out"; then
  echo "big input: analyze --complete --against differs from a from-scratch analyze --complete" >&2
  diff "$tmpdir/big_complete_delta.out" "$tmpdir/big_complete_scratch.out" | head -20 >&2 || true
  exit 1
fi
# Identical bytes do not show reuse: recomputing everything prints them
# too.  The edit is in main, so every other procedure (1600 of them)
# must keep its site jump functions, its call sites and its direct
# MOD/REF effects from the previous version.
profile="$tmpdir/big_delta_profile.json"
for copies in driver.site_jfs_reused callgraph.sites_copied \
  modref.effects_copied; do
  n=$(sed -n "s/.*\"$copies\": \([0-9]*\).*/\1/p" "$profile")
  if [ "${n:-0}" -lt 1600 ]; then
    echo "big input: --against counted ${n:-0} $copies, not 1600" >&2
    exit 1
  fi
done
# An update to the same program changes no site jump function, so it
# keeps the previous fixpoint: the profile's only propagation is the
# previous version's own, one worklist pop per procedure.
dune exec --no-build -- ipcp analyze "$tmpdir/big.f" --against "$tmpdir/big.f" \
  --profile-json "$tmpdir/big_same_profile.json" > /dev/null 2>&1
for expected in incr.cone_size=0 solver.iterations=1601; do
  name=${expected%=*}
  n=$(sed -n "s/.*\"$name\": \([0-9]*\).*/\1/p" "$tmpdir/big_same_profile.json")
  if [ "${n:-none}" != "${expected#*=}" ]; then
    echo "big input: --against itself counted ${n:-no} $name," \
      "not ${expected#*=}" >&2
    exit 1
  fi
done
# The intraprocedural baseline is updated like any configuration: the
# same bytes as from scratch, and every procedure but the edited main
# keeps its call sites and direct MOD/REF effects.
dune exec --no-build -- ipcp analyze "$tmpdir/big_edited.f" --against "$tmpdir/big.f" \
  --intra-only --profile-json "$tmpdir/big_intra_profile.json" > "$tmpdir/big_intra_delta.out"
dune exec --no-build -- ipcp analyze "$tmpdir/big_edited.f" --intra-only \
  > "$tmpdir/big_intra_scratch.out"
if ! cmp -s "$tmpdir/big_intra_delta.out" "$tmpdir/big_intra_scratch.out"; then
  echo "big input: analyze --against --intra-only differs from a from-scratch analyze --intra-only" >&2
  diff "$tmpdir/big_intra_delta.out" "$tmpdir/big_intra_scratch.out" | head -20 >&2 || true
  exit 1
fi
for copies in callgraph.sites_copied modref.effects_copied; do
  n=$(sed -n "s/.*\"$copies\": \([0-9]*\).*/\1/p" "$tmpdir/big_intra_profile.json")
  if [ "${n:-0}" -lt 1600 ]; then
    echo "big input: --against --intra-only counted ${n:-0} $copies, not 1600" >&2
    exit 1
  fi
done
# A print never feeds a call: a literal edit in one changes no jump
# function, so the update keeps the previous fixpoint.
sed '/^subroutine proc19(/,/^end$/s/^  print \*, (ng3 + 18)$/  print *, (ng3 + 19)/' \
  "$tmpdir/big.f" > "$tmpdir/big_print.f"
if cmp -s "$tmpdir/big.f" "$tmpdir/big_print.f"; then
  echo "big input: the print edit changed nothing" >&2
  exit 1
fi
dune exec --no-build -- ipcp analyze "$tmpdir/big_print.f" --against "$tmpdir/big.f" \
  --profile-json "$tmpdir/big_print_profile.json" > "$tmpdir/big_print_delta.out" 2>/dev/null
dune exec --no-build -- ipcp analyze "$tmpdir/big_print.f" > "$tmpdir/big_print_scratch.out"
if ! cmp -s "$tmpdir/big_print_delta.out" "$tmpdir/big_print_scratch.out"; then
  echo "big input: analyze --against after a print edit differs from a from-scratch analyze" >&2
  exit 1
fi
n=$(sed -n 's/.*"incr.cone_size": \([0-9]*\).*/\1/p' "$tmpdir/big_print_profile.json")
if [ "${n:-none}" != 0 ]; then
  echo "big input: a print edit counted ${n:-no} incr.cone_size, not 0" >&2
  exit 1
fi

echo "== differential fuzzing"
# The seeded oracle under two pinned seeds with full certification:
# random terminating programs, metamorphic invariants (rename, reorder,
# budget monotonicity, --jobs determinism) and the certifier on every
# iteration.  Then the known-bad self-test: every deliberately corrupted
# solution must be detected, with minimization demonstrated end-to-end.
for seed in 7 11; do
  echo "-- seed $seed"
  dune exec --no-build tools/fuzz.exe -- --seed "$seed" --iterations 25 --certify
done
dune exec --no-build tools/fuzz.exe -- --seed 7 --iterations 5 --inject-bad

echo "== copy subsumes const"
# The solver's two entry seedings under two pinned seeds: on every
# suite program and generated workload, under each oracle
# configuration, the constant-propagation fixpoint must hold no copy
# fact, the copy-propagation fixpoint must project pointwise onto it,
# publish the same CONSTANTS sets, and substitute at least as many
# sites.
for seed in 7 11; do
  echo "-- seed $seed"
  dune exec --no-build tools/fuzz.exe -- --subsume --seed "$seed" --iterations 10
done

echo "== incremental delta"
# Randomized edit sequences under two pinned seeds, all four
# jump-function kinds: every Incr.update must render byte-identically
# to a from-scratch analyze, and complete propagation continued from
# the session to a from-scratch --complete; every update must pass
# independent certification and keep the previous fixpoint (nothing
# solved again) for an identical, renamed or reordered version.  An
# unbudgeted update copies what the edit cannot reach whatever the
# configuration (the intraprocedural baseline's copies are pinned on
# the big input above).
for seed in 7 11; do
  echo "-- seed $seed"
  dune exec --no-build tools/fuzz.exe -- --delta --seed "$seed" --iterations 8
done
# The CLI surface: analyze --against a previous version with profiling
# on must carry the incr.* counter triple, validated by profile_lint.
prev_f="$tmpdir/prev.f" next_f="$tmpdir/next.f"
printf 'program main\ninteger k\nk = 1\ncall s(k)\nend\nsubroutine s(n)\ninteger n\nprint *, n\nend\n' > "$prev_f"
printf 'program main\ninteger k\nk = 2\ncall s(k)\nend\nsubroutine s(n)\ninteger n\nprint *, n\nend\n' > "$next_f"
dune exec --no-build -- ipcp analyze "$next_f" --against "$prev_f" \
  --profile-json "$tmpdir/incr_profile.json" > /dev/null 2>&1
dune exec --no-build tools/profile_lint.exe -- "$tmpdir/incr_profile.json"
if ! grep -q 'incr\.cone_size' "$tmpdir/incr_profile.json"; then
  echo "incremental: --against run carried no incr.cone_size counter" >&2
  exit 1
fi

echo "== serve differential"
# Server-vs-direct at a pinned seed: generated and suite programs
# through the in-process serving layer at workers 1 and 4, as analyze
# and analyze-delta requests — every response frame byte-identical to
# the direct CLI-equivalent rendering, every request answered exactly
# once.
dune exec --no-build tools/fuzz.exe -- --seed 7 --iterations 5 --serve-diff

echo "== serve online certification"
# The adversarial serving gate under two pinned seeds: with the
# served-solution corruption site armed at rate 1.0, sampling at 1.0
# and 0.5 must never let a corrupted solution out as an ok frame,
# conserve one terminal response per request, and produce the exact
# status set the pure (seed, rate, seq) sampling function predicts at
# workers 1/2/4.  The post-drain health snapshot (seed 7) must lint as
# ipcp.health/1 and carry the certify.* counter triple.
for seed in 7 11; do
  echo "-- seed $seed"
  dune exec --no-build tools/fuzz.exe -- --serve-cert --seed "$seed" \
    --iterations 8 --health-out "$tmpdir/cert_health_$seed.json"
done
dune exec --no-build tools/profile_lint.exe -- "$tmpdir/cert_health_7.json"
if ! grep -q 'certify\.sampled' "$tmpdir/cert_health_7.json"; then
  echo "serve-cert: health snapshot carries no certify.sampled counter" >&2
  exit 1
fi

echo "== certified serving is byte-identical"
# Certification is pay-for-use: a serve run with --certify-sample 1.0
# over healthy inputs must emit byte-for-byte the frames of an
# uncertified run (health counters are only surfaced on request, so the
# streams compare equal).  The response streams must also pass the
# typed-error frame lint.
cat > "$tmpdir/certid.in.jsonl" <<'EOF'
{"id":"t","op":"tables"}
{"id":"a","op":"analyze","suite":"adm"}
{"id":"d","op":"analyze","suite":"doduc"}
{"id":"c","op":"certify","suite":"trfd"}
{"id":"bad","op":"frobnicate"}
EOF
dune exec --no-build -- ipcp serve --workers 2 \
  < "$tmpdir/certid.in.jsonl" > "$tmpdir/certid.plain.jsonl"
dune exec --no-build -- ipcp serve --workers 2 --certify-sample 1.0 \
  < "$tmpdir/certid.in.jsonl" > "$tmpdir/certid.certified.jsonl"
sort "$tmpdir/certid.plain.jsonl" > "$tmpdir/certid.plain.sorted"
sort "$tmpdir/certid.certified.jsonl" > "$tmpdir/certid.certified.sorted"
if ! cmp -s "$tmpdir/certid.plain.sorted" "$tmpdir/certid.certified.sorted"; then
  echo "serve-cert: certified run is not byte-identical to uncertified" >&2
  diff "$tmpdir/certid.plain.sorted" "$tmpdir/certid.certified.sorted" >&2 || true
  exit 1
fi
dune exec --no-build tools/profile_lint.exe -- "$tmpdir/certid.plain.jsonl"

echo "== serve smoke"
# A real `ipcp serve` subprocess: full-suite byte-diff against direct
# CLI runs, graceful SIGTERM drain (exit 0), fault-injected worker
# crashes failing exactly the requests whose serve.worker draws fire,
# at worker counts 1 and 2, and — with IPCP_FAULT_CORRUPT armed — certified
# serving that never lets a corrupted solution out as an ok frame.
dune exec --no-build tools/fuzz.exe -- --serve-smoke \
  --ipcp "$(pwd)/_build/default/bin/ipcp.exe"

echo "== serve shard fleet"
# The multi-process router under two pinned seeds: routed output
# byte-identical to a single-process server at shards 1/2/4, exactly one
# terminal response per request with a shard SIGKILLed mid-stream, the
# router-scope breaker quarantining a poison input that kills two shard
# processes, a respawned shard starting a lost incremental session again
# (the next delta byte-identical to a from-scratch analyze, counted in
# serve.delta_fresh), the socket listener's oversize / slow-loris /
# client-gone defenses driven over a real unix socket, a SIGKILLed
# router whose every shard must exit within 5 s, and a SIGTERMed router
# whose binary is gone (no shard can respawn), which must still answer
# its parked request with a drain frame and exit 0 within 5 s.
for seed in 7 11; do
  echo "-- seed $seed"
  dune exec --no-build tools/fuzz.exe -- --serve-shard --seed "$seed" \
    --ipcp "$(pwd)/_build/default/bin/ipcp.exe"
done
echo "== serve gray failures"
# Gray-failure tolerance under two pinned seeds: a shard stalled via
# IPCP_SERVE_STALL_INPUT must be hedged at the route deadline with the
# stream staying byte-identical to a healthy run and no id answered
# twice (ledger dedupe); a SIGSTOPped shard must be ejected after
# missed heartbeats and respawned with no frame lost; and a 2ms EINTR
# storm must not change a byte.  The post-drain ejection snapshot must
# lint as ipcp.health/1 (router gray-counter coherence included) and
# carry the gray-failure readings.
for seed in 7 11; do
  echo "-- seed $seed"
  dune exec --no-build tools/fuzz.exe -- --serve-gray --seed "$seed" \
    --ipcp "$(pwd)/_build/default/bin/ipcp.exe" \
    --health-out "$tmpdir/gray_health_$seed"
done
dune exec --no-build tools/profile_lint.exe -- "$tmpdir/gray_health_7.eject"
if ! grep -q 'router\.ejections' "$tmpdir/gray_health_7.eject"; then
  echo "serve-gray: ejection snapshot carries no router.ejections counter" >&2
  exit 1
fi
if ! grep -q 'router\.hedged' "$tmpdir/gray_health_7.eject"; then
  echo "serve-gray: ejection snapshot carries no router.hedged counter" >&2
  exit 1
fi

# Shell-level identity smoke: the same request file through `ipcp serve`
# and `ipcp route --shards 3` must produce byte-identical (sorted)
# response streams, and the routed stream must pass the typed-error
# frame lint.  The router runs under a TMPDIR longer than a unix socket
# path may be (108 bytes): it makes nothing on disk, so it must still
# serve, finish, and leave that directory empty.
cat > "$tmpdir/route.in.jsonl" <<'EOF'
{"id":"t","op":"tables"}
{"id":"a","op":"analyze","suite":"adm"}
{"id":"d","op":"analyze","suite":"doduc","jf":"literal"}
{"id":"c","op":"certify","suite":"trfd"}
{"id":"bad","op":"frobnicate"}
EOF
dune exec --no-build -- ipcp serve --workers 2 \
  < "$tmpdir/route.in.jsonl" > "$tmpdir/route.single.jsonl"
long_tmp="$tmpdir/route-tmpdir-$(printf '%0100d' 0)"
mkdir "$long_tmp"
if ! TMPDIR="$long_tmp" timeout -k 5 60 _build/default/bin/ipcp.exe route \
  --shards 3 --workers 2 \
  < "$tmpdir/route.in.jsonl" > "$tmpdir/route.routed.jsonl"; then
  echo "route: the router under a long TMPDIR failed or did not finish in 60 s" >&2
  exit 1
fi
if [ -n "$(ls -A "$long_tmp")" ]; then
  echo "route: the router left files in its TMPDIR:" >&2
  ls -A "$long_tmp" >&2
  exit 1
fi
sort "$tmpdir/route.single.jsonl" > "$tmpdir/route.single.sorted"
sort "$tmpdir/route.routed.jsonl" > "$tmpdir/route.routed.sorted"
if ! cmp -s "$tmpdir/route.single.sorted" "$tmpdir/route.routed.sorted"; then
  echo "route: routed stream is not byte-identical to a single server" >&2
  diff "$tmpdir/route.single.sorted" "$tmpdir/route.routed.sorted" >&2 || true
  exit 1
fi
dune exec --no-build tools/profile_lint.exe -- "$tmpdir/route.routed.jsonl"

echo "== piped batches are never shed"
# A pipe has backpressure of its own: with a 2-slot queue, the stdio
# server and the router stop reading instead of shedding, so 200 piped
# suite analyze lines must come back as 200 ok frames from both.
i=0
: > "$tmpdir/batch.in.jsonl"
while [ $i -lt 200 ]; do
  for p in adm doduc fpppp linpackd matrix300 mdg ocean qcd simple snasa7 spec77 trfd; do
    [ $i -lt 200 ] && printf '{"id":"b%d","op":"analyze","suite":"%s"}\n' $i $p >> "$tmpdir/batch.in.jsonl"
    i=$((i + 1))
  done
done
dune exec --no-build -- ipcp serve --queue 2 \
  < "$tmpdir/batch.in.jsonl" > "$tmpdir/batch.serve.jsonl"
dune exec --no-build -- ipcp route --shards 2 --queue 2 \
  < "$tmpdir/batch.in.jsonl" > "$tmpdir/batch.route.jsonl"
for f in "$tmpdir/batch.serve.jsonl" "$tmpdir/batch.route.jsonl"; do
  frames=$(wc -l < "$f")
  oks=$(grep -c '"status":"ok"' "$f" || true)
  if [ "$frames" -ne 200 ] || [ "$oks" -ne 200 ]; then
    echo "backpressure: $f has $oks ok of $frames frames for 200 piped lines" >&2
    exit 1
  fi
done

echo "== broken output pipe"
# A reader that vanishes mid-stream must surface as the documented I/O
# exit code 3 — never a SIGPIPE death.  `false` closes its stdin at
# once, so ipcp's first flush hits a broken pipe; its exit code is
# smuggled out through a status file (POSIX sh has no PIPESTATUS).
( _build/default/bin/ipcp.exe tables 2>/dev/null; echo $? > "$tmpdir/pipe_code" ) | false || true
pipe_code=$(cat "$tmpdir/pipe_code")
if [ "$pipe_code" != "3" ]; then
  echo "broken pipe: ipcp tables | false exited $pipe_code, expected 3" >&2
  exit 1
fi

echo "ci: ok"
