#!/usr/bin/env bash
# cli_one_prep.sh <pilfill> <dir>: analyze, fill and score read one prep.
#
# On <dir>/c.pld plus a metal blockage, `pilfill analyze`'s window density
# range must equal the "before" range of `pilfill fill --method greedy`, and
# `pilfill score` of that fill's GDS must print fill's delay impact with
# every feature mapped. Exits 1 on any mismatch.
set -euo pipefail
pilfill=$1
cd "$2"
{ cat c.pld; echo "BLOCKAGE m3 10 10 40 40 METAL"; } > one_prep.pld

analyze=$("$pilfill" analyze one_prep.pld)
fill=$("$pilfill" fill one_prep.pld --method greedy --gds one_prep.gds)
score=$("$pilfill" score one_prep.pld one_prep.gds)

# "window density    : [lo, hi], ..." and "density: [lo, hi] -> [...]"
analyze_range=$(sed -n 's/^window density *: \(\[[^]]*\]\).*/\1/p' <<< "$analyze")
fill_range=$(sed -n 's/^density: \(\[[^]]*\]\) ->.*/\1/p' <<< "$fill")
# "delay impact: +X ps (weighted +Y ps..." in both fill and score
impact='s/^delay impact *: +\([^ ]*\) ps (weighted +\([^ ]*\) ps.*/\1 ps, weighted \2 ps/p'
fill_impact=$(sed -n "$impact" <<< "$fill")
score_impact=$(sed -n "$impact" <<< "$score")
placed=$(sed -n 's/^greedy: placed \([0-9]*\) features.*/\1/p' <<< "$fill")
mapped=$(sed -n 's/^mapped *: \([0-9]*\/[0-9]*\) .*/\1/p' <<< "$score")

echo "analyze density $analyze_range, fill before $fill_range"
echo "fill impact $fill_impact, score impact $score_impact, mapped $mapped"
[[ -n "$analyze_range" && "$analyze_range" == "$fill_range" ]]
[[ -n "$fill_impact" && "$fill_impact" == "$score_impact" ]]
[[ -n "$placed" && "$mapped" == "$placed/$placed" ]]
