#!/usr/bin/env bash
# Run the tracked CLI runs and print one "name exit sha256[:12] stop_reasons"
# line each: the digest is "-" when the run writes no CSV, and stop_reasons,
# the count of each optimizer stop reason from the console summary, is "-"
# when the run prints none. Exits 1 if any run's exit code differs from the
# one listed for it, or if optimize-caseA-RSSD's CSV differs from
# optimize-caseA's.
#
# Usage: scripts/csv_digests.sh [CHECKOUT]
#
# CHECKOUT (default: this script's repository) is the source tree whose
# src/ and scenarios/ are run, so two checkouts compare with one command:
#   diff <(scripts/csv_digests.sh /path/to/other) <(scripts/csv_digests.sh)
# Set PYTHONHASHSEED to check that the CSVs do not depend on hash order.
set -euo pipefail

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# caseA with its variant upper-cased: the file value is lower-cased before
# it is hashed, so this copy's CSV must equal optimize-caseA's byte for byte
sed 's/"rssd"/"RSSD"/' "$root/scenarios/caseA.json" >"$work/caseA-RSSD.json"

# one "name|expected exit|flags" entry per CLI run; scenario paths are
# relative to the checkout, but for the upper-cased copy in $work
runs=(
  "practical|0|practical --scenario scenarios/caseA.json --trials 45 --seed 7"
  # the benchmark's practical input
  "practical-bench|0|practical --scenario scenarios/caseA.json --trials 40 --seed 0 --prior-std 111.80339887498948"
  # priors about 1e150 m off: squared distances near 1e300 must
  # not overflow anywhere in the design or the refinement
  "practical-far|0|practical --scenario scenarios/caseA.json --trials 45 --seed 7 --prior-std 1e150"
  # priors about 1e6 m off: one model root of each trial starts
  # tens of km out and converges there, and no start reaches the
  # 200-iteration cap
  "practical-cap|0|practical --scenario scenarios/caseB.json --trials 45 --seed 7 --prior-std 1e6"
  # priors about 20 km off: one block of 120 starts, one model root
  # of each trial a median 13 km out, every start converged
  "practical-mid|0|practical --scenario scenarios/caseA.json --trials 40 --seed 1 --prior-std 20000"
  # priors about 500 m off: the mirror fits about as well as the
  # source, most trials keep a start other than the lowest-cost
  # one, and some starts run to the iteration cap
  "practical-500|0|practical --scenario scenarios/caseA.json --trials 40 --seed 1 --prior-std 500"
  # a zero prior error: the single-start refinement, from the prior
  # alone
  "practical-exact|0|practical --scenario scenarios/caseB.json --trials 21 --seed 3 --prior-std 0"
  # scoring only, no simulation or refinement, on caseB's noise
  "practical-norefine|0|practical --scenario scenarios/caseB.json --no-refine --trials 45 --seed 7"
  "sweep-angle|0|sweep-angle --scenario scenarios/caseB.json"
  # arcs on both sides of pi, where the paper's vector bound
  # changes form (the MM rule does not), pi itself and the full
  # circle, whose last uniform angle wraps to 0
  "sweep-angle-pi|0|sweep-angle --scenario scenarios/caseA.json --beta-grid-deg 179.5,180,180.5,359.5,360"
  # the 60-105 degree designs return early iterates whose bits
  # hinge on rounding
  "sweep-angle-A|0|sweep-angle --scenario scenarios/caseA.json"
  # 41 arcs in one lockstep batch, wider than any other run's
  "sweep-angle-wide|0|sweep-angle --scenario scenarios/caseB.json --beta-grid-deg 60,67.5,75,82.5,90,97.5,105,112.5,120,127.5,135,142.5,150,157.5,165,172.5,180,187.5,195,202.5,210,217.5,225,232.5,240,247.5,255,262.5,270,277.5,285,292.5,300,307.5,315,322.5,330,337.5,345,352.5,360"
  # narrow arcs, where the iterates leave the good region after a few
  # steps: every design stops on a rule, the oscillating 30 degree one on
  # patience, and none reaches the iteration cap
  "sweep-angle-narrowA|0|sweep-angle --scenario scenarios/caseA.json --beta-grid-deg 5,10,15,20,25,30,35,40,45"
  # no placement on a 1e-6 degree arc has a finite bound
  "sweep-angle-tiny|2|sweep-angle --scenario scenarios/caseA.json --beta-grid-deg 1e-6"
  "sweep-n|0|sweep-n --scenario scenarios/caseA.json"
  # the N = 8, 360 degree row shows a last-bit change of the
  # certified LB-RMSE in improvement_pct
  "sweep-n-B|0|sweep-n --scenario scenarios/caseB.json"
  # odd sizes and arcs above pi padded to one lockstep group
  "sweep-n-odd|0|sweep-n --scenario scenarios/caseB.json --n-list 3,5,7,16 --beta-max-deg 90,150,250,330"
  # N = 64 is above the padding limit and keeps a group of its own
  "sweep-n-wide|0|sweep-n --scenario scenarios/caseA.json --n-list 4,8,64"
  # odd sizes of caseA's two-level noise: each class keeps as near half
  # of the swarm as n allows ([8, 8, 2] at n = 3, [8, 8, 8, 2, 2] at n = 5)
  "sweep-n-oddA|0|sweep-n --scenario scenarios/caseA.json --n-list 3,5,9 --beta-max-deg 120,280"
  # uniform starts whose last angle i * beta / n rounds 1 ulp past the arc
  # (n = 3 at 55 and 105 degrees, 5 at 200, 9 at 55, 12 at 105) or past
  # 2 pi (n = 13 at 360), clipped onto it
  "sweep-n-clip|0|sweep-n --scenario scenarios/caseB.json --n-list 3,5,9,12,13 --beta-max-deg 55,105,200,360"
  "convergence|0|convergence --scenario scenarios/caseA.json"
  "convergence-B|0|convergence --scenario scenarios/caseB.json"
  # both designs end on a patience stop, their best records 48 steps old
  "convergence-patience|0|convergence --scenario scenarios/caseB.json --beta-max-deg 60,105"
  # designs whose iterates settle a few steps after their best records (2
  # and 1), so only the patience stop ends them
  "convergence-step|0|convergence --scenario scenarios/caseB.json --beta-max-deg 42.5,50"
  "optimize-caseA|0|optimize --scenario scenarios/caseA.json"
  "optimize-caseB|0|optimize --scenario scenarios/caseB.json"
  "optimize-caseA-RSSD|0|optimize --scenario $work/caseA-RSSD.json"
  # a cap of 9 ends on a partial scoring block of one step (not converged)
  "convergence-9|3|convergence --scenario scenarios/caseA.json --max-outer 9"
  # caps that end each run on its first step, and on a mid-run step of caseB
  "convergence-1|3|convergence --scenario scenarios/caseA.json --max-outer 1"
  "convergence-B17|3|convergence --scenario scenarios/caseB.json --max-outer 17"
  # configuration errors exit 2 and write no CSV: a removed solver flag, a
  # list flag that is not a list of whole numbers, and a negative seed,
  # which every mode rejects before any design work
  "optimize-rho|2|optimize --scenario scenarios/caseA.json --max-outer 1 --rho 1"
  "sweep-n-fraction|2|sweep-n --scenario scenarios/caseA.json --n-list 4.7"
  "optimize-seed|2|optimize --scenario scenarios/caseA.json --seed -1"
)

status=0
cd "$root"
for run in "${runs[@]}"; do
  name=${run%%|*}
  rest=${run#*|}
  want=${rest%%|*}
  out="$work/$name.csv"
  rc=0
  # flags are split on spaces on purpose
  # shellcheck disable=SC2086
  PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python -W error::RuntimeWarning \
    -m rssdgeom.cli ${rest#*|} --out "$out" >"$work/$name.log" 2>"$work/$name.err" || rc=$?
  digest=-
  if [ -f "$out" ]; then
    digest=$(sha256sum "$out" | cut -c1-12)
  fi
  reasons=$(sed -n 's/^  stop_reasons: //p' "$work/$name.log")
  echo "$name $rc $digest ${reasons:--}"
  if [ "$rc" -ne "$want" ]; then
    echo "$name exited $rc, expected $want:" >&2
    cat "$work/$name.err" >&2
    status=1
  fi
done
if ! cmp -s "$work/optimize-caseA.csv" "$work/optimize-caseA-RSSD.csv"; then
  echo "optimize-caseA-RSSD's CSV differs from optimize-caseA's" >&2
  status=1
fi
exit "$status"
